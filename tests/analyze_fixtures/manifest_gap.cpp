// Seeded benign-race-manifest violations, driven with an explicit
// --benign-manifest pointing at manifest_gap.txt next to this file:
//
//   direction 1: the validated benign race on `labels` below has NO row
//                in the manifest (the trace harness would never hold the
//                runtime writes to it), and
//   direction 2: the manifest lists `analyze_fixtures/
//                manifest_gap.cpp:ghost`, which matches no annotation.
//
// Both must be reported, at the grapr:expect markers here and in the
// manifest. The ctest entry passes --tsan-supp '' so only the manifest
// directions are under test.
//
// This file is analyzed, never compiled.

using node = unsigned long long;

void manifestGap(node* labels, const node* neighbors,
                 const unsigned long long* offsets, long long n) {
#pragma omp parallel for default(none) \
    shared(labels, neighbors, offsets, n)
    for (long long i = 0; i < n; ++i) {
        const node u = static_cast<node>(i);
        node best = 0;
        for (unsigned long long e = offsets[u]; e < offsets[u + 1]; ++e) {
            const node v = neighbors[e];
            best += labels[v];
        }
        // grapr:benign-race(labels): asynchronous label publish; racy by grapr:expect(benign-race-manifest)
        // design and validated by parallel-effects — but missing from
        // manifest_gap.txt.
        labels[u] = best;
    }
}
