#pragma once
// Base interface of all community detection algorithms, sequential and
// parallel alike: runFrozen() computes a Partition of the node set of a
// frozen CsrGraph, the one layout every detector, coarsening level and
// ensemble stage works on. The framework is deliberately uniform so
// ensembles (EPP) can be instantiated with any base/final algorithm and
// the benchmark harnesses can treat competitors and our algorithms
// identically.

#include <memory>
#include <string>

#include "graph/csr_graph.hpp"
#include "graph/graph.hpp"
#include "structures/partition.hpp"
#include "support/progress.hpp"

namespace grapr {

class CommunityDetector {
public:
    virtual ~CommunityDetector() = default;

    /// Compute communities for the frozen graph g. Must be callable
    /// repeatedly (each call is an independent run; randomized algorithms
    /// may return different solutions per call).
    virtual Partition runFrozen(const CsrGraph& g) = 0;

    /// Freeze a mutable graph and run on it: the API-boundary convenience
    /// for callers that hold a Graph.
    Partition run(const Graph& g) { return runFrozen(CsrGraph(g)); }

    /// Human-readable algorithm label, e.g. "PLM(gamma=1)".
    virtual std::string toString() const = 0;

    /// Attach an iteration tracer (may be nullptr to detach). Algorithms
    /// that do not iterate ignore it.
    void setTracer(IterationTracer* tracer) { tracer_ = tracer; }

protected:
    IterationTracer* tracer_ = nullptr;
};

/// Factory type used by the ensemble scheme and the registry.
using DetectorFactory = std::unique_ptr<CommunityDetector> (*)();

} // namespace grapr
