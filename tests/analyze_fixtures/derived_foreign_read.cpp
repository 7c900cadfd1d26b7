// Regression fixture for the disjoint class of parallel-effects: a write
// at the worksharing index is disjoint only if the region reads the
// container at no other index. An index built from the induction variable
// alone (`v + 1`) is still another iteration's slot, so the write it reads
// against is racy, and an annotation on it is live, not stale.
//
// This file is analyzed, never compiled.

void shiftLeft(int* label, long long n) {
#pragma omp parallel for default(none) shared(label, n)
    for (long long v = 0; v < n - 1; ++v) {
        label[v] = label[v + 1]; // grapr:expect(shared-write-safety)
    }
}

void liveAnnotation(int* label, long long n) {
#pragma omp parallel for default(none) shared(label, n)
    for (long long v = 0; v < n - 1; ++v) {
        const int next = label[v + 1];
        // grapr:benign-race(label): a neighbour may read the old or the new
        // value; either is a valid label (no finding: the race is real)
        label[v] = next;
    }
}

// Legal twin: the only read is the written slot itself, spelled with a
// cast and parentheses, so the write stays disjoint.
void bumpInPlace(int* label, long long n) {
#pragma omp parallel for default(none) shared(label, n)
    for (long long v = 0; v < n; ++v) {
        label[v] = label[static_cast<unsigned long long>(v)] + 1;
    }
}
