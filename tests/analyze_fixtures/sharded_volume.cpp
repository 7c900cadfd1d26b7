// Fixture for a sharded community-volume write path. Never compiled.
//
//   1. NOT a violation: `base[c] += delta[c]` folds each slot in the
//      iteration that owns it (c is the worksharing index and base is read
//      nowhere else), so the write is disjoint and must stay unreported.
//   2. atomic-read-snapshot  an atomic-read volume snapshot without the
//                            required stale-read annotation
//   3. shared-write-safety   pushing into a shards vector that is NOT
//                            accessed through a per-thread slot (neither
//                            `.local()` nor `[omp_get_thread_num()]`)

#include <cstdint>
#include <vector>

void fixtureFoldInsideRegion(std::vector<double>& base,
                             const std::vector<double>& delta) {
    const std::int64_t n = static_cast<std::int64_t>(base.size());
#pragma omp parallel for default(none) shared(base, delta, n)
    for (std::int64_t c = 0; c < n; ++c) {
        // (1) one iteration per slot: disjoint, no finding
        base[c] += delta[static_cast<std::size_t>(c)];
    }
}

void fixtureUnannotatedSnapshot(std::vector<double>& volumes, double& out) {
#pragma omp parallel for default(none) shared(volumes, out)
    for (std::int64_t c = 0; c < 8; ++c) {
        // (2) stale snapshot of a concurrently-updated volume, but the
        // grapr:benign-race(<var>) annotation is missing
        double v;
#pragma omp atomic read // grapr:expect(atomic-read-snapshot)
        v = volumes[static_cast<std::size_t>(c)];
        if (v > 0.0) {
#pragma omp atomic
            out += v;
        }
    }
}

void fixtureSharedShardPush(std::vector<std::vector<int>>& shards) {
#pragma omp parallel for default(none) shared(shards)
    for (std::int64_t c = 0; c < 64; ++c) {
        // (3) all threads append into shard 0 — the receiver is not a
        // per-thread slot, so this is a concurrent container mutation
        shards[0].push_back(static_cast<int>(c)); // grapr:expect(shared-write-safety)
    }
}
