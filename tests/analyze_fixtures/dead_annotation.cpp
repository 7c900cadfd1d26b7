// Seeded annotation-liveness violations for grapr_analyze, each marked
// with grapr:expect. An annotation that anchors nothing is a contract
// exception nobody is using — worse than none, because readers trust it.
//
// This file is analyzed, never compiled.

#include "structures/partition.hpp"

namespace grapr {

void updateLabels(Partition& zeta, node u, node target) {
    // (1) Stale benign-race annotation: `labels` is not touched anywhere
    // in the following lines (the code it excused was refactored away).
    // grapr:benign-race(labels): asynchronous label publish grapr:expect(annotation-liveness)
    zeta.set(u, target);
}

// (2) Unused analyze-allow: nothing below trips region-alloc, so the
// suppression gates nothing.
void compactOnly(Partition& zeta) {
    // grapr:analyze-allow(region-alloc): rows are thread-private grapr:expect(annotation-liveness)
    zeta.compact();
}

// (3) analyze-allow naming a check that does not exist (typo'd id).
void typoAllow(Partition& zeta, node u) {
    // grapr:analyze-allow(index-witdh): bounded by construction grapr:expect(annotation-liveness)
    zeta.set(u, 0);
}

// (4) An analyze-allow without a reason: it still suppresses the
// narrowing below, but the allow itself is reported.
int reasonlessAllow(Partition& zeta) {
    // grapr:analyze-allow(index-width) grapr:expect(annotation-liveness)
    int k = zeta.numberOfSubsets();
    return k;
}

// Live annotation — must NOT be reported: the publish call is right
// below it.
void legalAnnotation(Partition& zeta, node u, node target) {
    // grapr:benign-race(zeta): label published non-atomically by design
    zeta.set(u, target);
}

} // namespace grapr
