#pragma once
// Shared infrastructure for the per-figure benchmark harnesses:
//  * the replica suite — synthetic stand-ins for the paper's 13-network
//    test set (Table I), generated once and cached on disk,
//  * timing/quality measurement helpers,
//  * the platform banner every harness prints (the paper's Table II).
//
// Replica mapping rationale is documented per instance in DESIGN.md: each
// paper network is replaced by a generator that reproduces its structural
// signature (degree skew, clustering, component structure) at a scale a
// single-core CI container can sweep in minutes.

#include <functional>
#include <string>
#include <vector>

#include "community/detector.hpp"
#include "graph/graph.hpp"

namespace grapr::bench {

struct ReplicaSpec {
    std::string name;        ///< paper network this replica stands in for
    std::string recipe;      ///< human-readable generator recipe
    std::function<Graph()> make;
};

/// The 13-instance replica suite in ascending size order (the paper sorts
/// its per-network charts by graph size).
std::vector<ReplicaSpec> replicaSuite();

/// Load `cachePath` (a GCSR file, io/binary_csr.hpp) or, when it is
/// missing or corrupt, build the graph with `make` and cache it there.
Graph cachedGraph(const std::string& cachePath,
                  const std::function<Graph()>& make);

/// Generate-or-load a replica: cached as data/<name>.gcsr next to the
/// build tree. Deterministic: generation always reseeds from the name.
Graph loadReplica(const ReplicaSpec& spec);

/// Directory used for cached instances ("data", created on demand).
std::string dataDirectory();

/// Measurement of one detector on one graph.
struct RunResult {
    double seconds = 0.0;     ///< median wall time over repetitions
    double modularity = 0.0;  ///< mean modularity over repetitions
    count communities = 0;    ///< from the last repetition
};

/// Run `detector` `repetitions` times on g; median time, mean modularity.
RunResult measureDetector(CommunityDetector& detector, const Graph& g,
                          int repetitions);

/// Cached variant: results are persisted per (algorithm, instance,
/// repetitions, quick-mode) in <data>/results.tsv so the comparison
/// harnesses (Figures 5, 6, 7) share one sweep instead of re-running the
/// expensive competitors three times. Delete the file to re-measure.
RunResult measureDetectorCached(const std::string& algorithmName,
                                const std::string& instanceName,
                                const Graph& g, int repetitions);

/// Print the platform banner (threads, compiler, mode) — the analogue of
/// the paper's Table II so every output file is self-describing.
void printPlatformBanner(const std::string& benchName);

/// The host header of a BENCH_*.json, as a JSON object: core count, the
/// OpenMP team size a parallel region actually gets, compiler, build type,
/// and whether the run was serial (the fields perfbench records), so a
/// committed number from a 1-core host cannot pass for a parallel result.
std::string hostJson();

/// Edge threshold above which the expensive sequential competitors
/// (RG, CGGC, CGGCi) are skipped unless GRAPR_BENCH_FULL=1 is set; the
/// harnesses print an explicit "skipped" marker, mirroring how the paper
/// reports non-viable runs (e.g. CLU_TBB failing on uk-2007-05).
count expensiveAlgorithmEdgeCap();

/// True when GRAPR_BENCH_QUICK=1: harnesses shrink instance sizes and
/// repetition counts for smoke-testing the full bench pipeline.
bool quickMode();

} // namespace grapr::bench
