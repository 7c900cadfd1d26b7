#pragma once
// PLM — Parallel Louvain Method (paper Algorithms 2 & 3, §III-B), the first
// shared-memory parallelization of the Louvain community detection method
// for massive inputs, plus the refinement extension that turns it into
// PLMR (Algorithm 4, §III-C).
//
// Each level: a parallel local-move phase greedily relocates nodes to the
// neighboring community with the highest modularity gain until stable; the
// graph is then coarsened by the resulting communities (parallel scheme,
// see coarsening/) and the method recurses, finally prolonging the coarse
// solution and — for PLMR — re-running the move phase as refinement.
//
// The move phase sweeps in parallel with guided scheduling — all nodes
// first, then only the active set of nodes whose neighbor moved — and
// tolerates stale data: concurrent moves may invalidate a Δmod score
// between evaluation and application, occasionally producing a
// modularity-decreasing move, which later iterations correct (§III-B).
// Following the paper's engineering result, the implementation does NOT
// cache per-node neighbor-community weights (maps + locks proved slower);
// it recomputes them per evaluation in per-thread scratch arrays and only
// maintains per-community volumes, updated atomically on each move.

#include <vector>

#include "community/detector.hpp"
#include "graph/csr_graph.hpp"

namespace grapr {

/// Strategy for obtaining the edge weight from a node to its neighboring
/// communities inside the move phase — the paper's central engineering
/// trade-off (§III-B).
enum class PlmWeightStrategy {
    /// Recompute per evaluation in per-thread scratch arrays (the paper's
    /// final, faster choice; the default).
    Recompute,
    /// Maintain a per-node map of neighbor-community weights, protected by
    /// a per-node lock, updated on every move — the paper's *first*
    /// implementation, "later discovered to introduce too much overhead
    /// (map operations, locks)". Kept selectable so the ablation bench can
    /// measure that claim.
    CachedMaps,
};

/// Tuning of the move kernel: one flat guided sweep whose
/// later iterations revisit only the active set. The degree-bucketed
/// schedule, sharded volumes and SIMD scoring that once sat here lost
/// every measurement and were deleted (DESIGN.md, "Move-phase kernel
/// engineering").
struct PlmKernelConfig {
    /// Frontier-driven sweeps: after the first full iteration only nodes
    /// whose neighborhood changed (a neighbor moved, deduplicated through
    /// an atomic seen-bitmap) are re-evaluated, instead of rescanning all
    /// n nodes per iteration. This is a *semantic* option, not a pure
    /// scheduling one: a node can profit from a volume change in a
    /// community it merely neighbors, which a frontier sweep only
    /// discovers one iteration later (or not at all if the frontier
    /// empties first), so results are near-identical in quality but not
    /// bit-identical to the reference kernel. On by default: it is what
    /// keeps multi-threaded first levels contracting; false restores the
    /// full sweep that is bit-identical to the reference single-threaded.
    bool activeNodes = true;
};

struct PlmConfig {
    /// Resolution parameter γ ∈ [0, 2m]: 1 = standard modularity, smaller
    /// coarser, larger finer (§III-B).
    double gamma = 1.0;
    /// Add the refinement move phase after every prolongation (PLMR).
    bool refine = false;
    /// Use the parallel coarsening scheme; sequential hash aggregation
    /// otherwise (ablation of the "major sequential bottleneck").
    bool parallelCoarsening = true;
    /// Safety cap on move-phase sweeps per level.
    count maxMoveIterations = 64;
    /// Neighbor-community weight strategy (see PlmWeightStrategy).
    PlmWeightStrategy strategy = PlmWeightStrategy::Recompute;
    /// Collapse degree-1 chains/pendants onto their anchors before the
    /// first level and project the labels back afterwards (vertex
    /// following, Lu & Halappanavar): a pendant's modularity-optimal
    /// community is its anchor's, so the sweep never needs to evaluate
    /// it. Changes results only on the collapsed nodes (they land exactly
    /// where the anchor lands); opt-in because the default config is the
    /// bit-reproducibility anchor of the test harness.
    bool vertexFollowing = false;
    /// Move-kernel tuning (the active-set frontier).
    PlmKernelConfig kernel = {};
};

/// Per-level record of a PLM run, for scaling analyses and tests. Filled
/// on every run, with or without a tracer attached.
struct PlmLevelInfo {
    count nodes = 0;
    count edges = 0;
    count moveIterations = 0; ///< sweeps of the level's first move phase
    count totalMoves = 0;
};

class Plm : public CommunityDetector {
public:
    explicit Plm(PlmConfig config = {}) : config_(config) {}

    /// Every level, coarsening step and refinement stays in the frozen
    /// layout of g.
    Partition runFrozen(const CsrGraph& g) override;

    std::string toString() const override;

    /// Coarsening hierarchy of the last run, finest level first.
    const std::vector<PlmLevelInfo>& levels() const noexcept { return levels_; }

    /// The local move phase (Algorithm 2), exposed for reuse by the
    /// refinement pass, tests, and ablation benches: the tuned kernel with
    /// the default PlmKernelConfig. Moves nodes of g between the
    /// communities of zeta until stable (or the iteration cap); returns
    /// the number of moves performed. zeta must be complete with ids <
    /// zeta.upperBound(). Equal-gain candidates resolve to the lowest
    /// community id, so single-threaded runs are deterministic and
    /// independent of neighbor order.
    static count movePhase(const CsrGraph& g, Partition& zeta, double gamma,
                           count maxIterations, IterationTracer* tracer);
    /// With explicit kernel tuning (the active-set frontier) — the entry
    /// point of the kernel ablation bench and the bit-identity property
    /// tests.
    static count movePhase(const CsrGraph& g, Partition& zeta, double gamma,
                           count maxIterations, IterationTracer* tracer,
                           const PlmKernelConfig& kernel);
    /// The untuned reference kernel — the oracle the full-sweep tuned
    /// kernel is pinned against bit for bit (tests/test_move_kernels.cpp).
    /// Not a fast path.
    static count movePhaseReference(const CsrGraph& g, Partition& zeta,
                                    double gamma, count maxIterations,
                                    IterationTracer* tracer);

    /// Seeded restricted move phase — the incremental re-detection entry
    /// of the streaming engine (community/streaming_update.hpp). Iteration
    /// 0 evaluates only `seed` (the nodes a batch touched); later
    /// iterations ride the active-set frontier, so cost scales with
    /// the perturbation, not n. `zeta` must be complete over g with labels
    /// < zeta.upperBound(). When `splitBase != none`, node u may also
    /// split off into its own reserved empty community `splitBase + u`
    /// (required after deletions; zeta.upperBound() must cover
    /// splitBase + upperNodeIdBound()). `evaluatedNodes`, if non-null,
    /// receives the number of DISTINCT nodes evaluated across iterations —
    /// the re-activation metric BENCH_stream.json reports. `minGain` is a
    /// Δmodularity floor a move must clear: batches shift the total edge
    /// weight, nudging every marginal node's score, and without a floor
    /// converged near-ties far from the batch flip on those micro-gains
    /// and balloon the frontier (0.0 = the static any-positive-gain rule).
    /// Deterministic single-threaded for a fixed seed list.
    static count movePhaseSeeded(const CsrGraph& g, Partition& zeta,
                                 double gamma, count maxIterations,
                                 const std::vector<node>& seed,
                                 node splitBase, count* evaluatedNodes,
                                 double minGain = 0.0);

    /// The abandoned first implementation (per-node cached maps + locks),
    /// same contract as movePhase. Exposed for the strategy ablation.
    static count movePhaseCachedMaps(const CsrGraph& g, Partition& zeta,
                                     double gamma, count maxIterations);

protected:
    PlmConfig config_;
    std::vector<PlmLevelInfo> levels_;

private:
    /// One level of Algorithm 3. The coarse graphs are built CSR-to-CSR,
    /// so the whole recursion stays in the frozen layout.
    Partition runRecursive(const CsrGraph& g, count level);

    /// Applies the vertex-following reduction when configured, then
    /// starts the recursion.
    Partition detectFrozen(const CsrGraph& g);
};

} // namespace grapr
