#!/usr/bin/env python3
"""CLI smoke test: every registered detector runs end to end through `grapr`.

Generates a small LFR graph with `grapr generate`, then runs
`grapr detect --algo NAME --in GRAPH --out FILE` once for every name that
`detectorNames()` in src/baselines/registry.cpp returns. Each run must exit
0 and write exactly one non-negative label per node. The names are read from
the registry source, so a newly registered detector is covered without
editing this script.

    python3 tests/cli_smoke.py --grapr build/tools/grapr \
        --registry src/baselines/registry.cpp
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

NODES = 2000


def registered_names(registry_path):
    with open(registry_path, "r", encoding="utf-8") as handle:
        source = handle.read()
    body = re.search(r"detectorNames\(\)\s*\{\s*return\s*\{(.*?)\};",
                     source, re.DOTALL)
    if not body:
        sys.exit(f"cli_smoke: no detectorNames() list in {registry_path}")
    return re.findall(r'"([^"]+)"', body.group(1))


def run(command):
    result = subprocess.run(command, capture_output=True, text=True,
                            timeout=600, check=False)
    if result.returncode != 0:
        print(f"FAIL (exit {result.returncode}): {' '.join(command)}\n"
              f"{result.stdout}{result.stderr}", file=sys.stderr)
    return result.returncode == 0


def labels_ok(path, name):
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split()
    if len(lines) != NODES:
        print(f"FAIL {name}: {len(lines)} labels for {NODES} nodes",
              file=sys.stderr)
        return False
    bad = [line for line in lines if not line.isdigit()]
    if bad:
        print(f"FAIL {name}: {len(bad)} labels are not node ids, e.g. "
              f"{bad[0]!r}", file=sys.stderr)
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grapr", required=True, help="the grapr binary")
    parser.add_argument("--registry", required=True,
                        help="src/baselines/registry.cpp")
    args = parser.parse_args()

    names = registered_names(args.registry)
    with tempfile.TemporaryDirectory(prefix="grapr_cli_smoke_") as tmp:
        graph = os.path.join(tmp, "lfr.gcsr")
        if not run([args.grapr, "generate", "--type", "lfr", "--n",
                    str(NODES), "--seed", "7", "--out", graph]):
            return 1
        failed = []
        for index, name in enumerate(names):
            out = os.path.join(tmp, f"partition_{index}.txt")
            if not (run([args.grapr, "detect", "--algo", name, "--in", graph,
                         "--seed", "1", "--out", out])
                    and labels_ok(out, name)):
                failed.append(name)
    if failed:
        print(f"cli_smoke: {len(failed)} of {len(names)} detectors failed: "
              f"{', '.join(failed)}")
        return 1
    print(f"cli_smoke: all {len(names)} detectors ran: {', '.join(names)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
