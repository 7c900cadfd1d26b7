// A fault-injection site reached from a parallel region through TWO
// same-file call levels: region -> outerHelper -> innerHelper -> site.
// The fault-point-in-parallel fixed point follows call chains to any
// depth, so it flags the region's call and the helper's call below it
// (outerHelper runs inside the region's team too). Never compiled.
#define GRAPR_FAULT_POINT(site) ((void)0)

void innerHelper() {
    GRAPR_FAULT_POINT("fixture.deep.site");
}

void outerHelper() {
    innerHelper(); // grapr:expect(fault-point-in-parallel)
}

void deepChain(long long n) {
#pragma omp parallel for default(none) shared(n)
    for (long long i = 0; i < n; ++i) {
        outerHelper(); // grapr:expect(fault-point-in-parallel)
    }
}
