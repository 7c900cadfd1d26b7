// Fixture: every parallel region below breaks one rule of the OpenMP
// contract. Each seeded line carries the check it must trip as a
// grapr:expect marker; the analyzer passes this file only when it reports
// exactly those findings. This file is never compiled.
//
// Seeded violations, in order:
//   1. omp-default-none      region without default(none)
//   2. omp-default-none      region with default(shared)
//   3. no-rand               rand() instead of support/random.hpp
//   4. no-stream-log         std::cout inside a parallel region
//   5. shared-write-safety   push_back on a shared vector
//   6. shared-write-safety   total += x on a shared scalar, no atomic
//   7. shared-write-safety   unannotated label publication; the read at
//                            (v + 1) % 100 is induction-derived but not the
//                            written slot, so the write is not disjoint
//   8. annotation-liveness   annotation without a reason

#include <cstdlib>
#include <iostream>
#include <vector>

void fixtureDefaultNone(std::vector<int>& data) {
    // (1) implicit data sharing — must be default(none) with shared(...)
#pragma omp parallel for // grapr:expect(omp-default-none)
    for (int i = 0; i < 100; ++i) {
        data[i] = i;
    }
}

void fixtureDefaultShared(std::vector<int>& data) {
    // (2) default(shared) is not default(none)
#pragma omp parallel for default(shared) // grapr:expect(omp-default-none)
    for (int i = 0; i < 100; ++i) {
        data[i] = i;
    }
}

void fixtureRand(std::vector<int>& data) {
#pragma omp parallel for default(none) shared(data)
    for (int i = 0; i < 100; ++i) {
        // (3) rand() shares hidden global state across threads
        data[i] = rand(); // grapr:expect(no-rand)
    }
}

void fixtureStreamLog() {
#pragma omp parallel default(none)
    {
        // (4) interleaved/unsynchronised logging
        std::cout << "worker alive\n"; // grapr:expect(no-stream-log)
    }
}

void fixtureContainerMutation(std::vector<int>& sink) {
#pragma omp parallel for default(none) shared(sink)
    for (int i = 0; i < 100; ++i) {
        // (5) concurrent push_back on a non-thread-local container
        sink.push_back(i); // grapr:expect(shared-write-safety)
    }
}

void fixtureCompoundWrite(std::vector<int>& data, long total) {
#pragma omp parallel for default(none) shared(data, total)
    for (int i = 0; i < 100; ++i) {
        // (6) read-modify-write without '#pragma omp atomic' (lost update)
        total += data[i]; // grapr:expect(shared-write-safety)
    }
}

void fixtureUnannotatedPublish(std::vector<int>& label) {
#pragma omp parallel for default(none) shared(label)
    for (int v = 0; v < 100; ++v) {
        const int neighbor = label[(v + 1) % 100];
        // (7) write through shared label[] that is also read above:
        // stale-publication by design, but the annotation is missing
        label[v] = neighbor; // grapr:expect(shared-write-safety)
    }
}

void fixtureBadAnnotation(std::vector<int>& label) {
#pragma omp parallel for default(none) shared(label)
    for (int v = 0; v < 100; ++v) {
        // grapr:benign-race(label) grapr:expect(annotation-liveness)
        // (8) annotation above has no ': <reason>' part
        label[v] = label[(v + 1) % 100];
    }
}
