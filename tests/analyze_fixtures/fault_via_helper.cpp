// Seeded violation for fault-point-in-parallel through a helper: the site
// is NOT lexically inside the region's extent — it hides one call level
// down, in a helper defined in this file. The analyzer flags the call and,
// because the same-file helper runs inside the team, the site itself.
//
// Never compiled; parsed only.
#define GRAPR_FAULT_POINT(site) ((void)0)
#define GRAPR_FAULT_INJECT(site) false

// The helper the region calls: its body registers a fault site.
void logDurable(int value) {
    GRAPR_FAULT_POINT("fixture.helper.write"); // grapr:expect(fault-point-in-parallel)
    (void)value;
}

// A helper without a site: calling it in the region is fine.
void accumulate(int value) {
    (void)value;
}

void churnInParallel(int* data, int n) {
    // (1) the loop body reaches fixture.helper.write through logDurable.
#pragma omp parallel for default(none) shared(data) firstprivate(n)
    for (int i = 0; i < n; ++i) {
        accumulate(data[i]);
        logDurable(data[i]); // grapr:expect(fault-point-in-parallel)
    }
}
