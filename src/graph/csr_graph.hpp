#pragma once
// CsrGraph — the immutable "frozen" counterpart of Graph, laid out in
// Compressed Sparse Row form: one flat offsets[n+1] array into flat
// neighbors[] / weights[] arrays holding every adjacency entry of the
// graph back to back. This is the memory layout the paper's engineering
// thesis revolves around (§IV-A): the PLP/PLM hot loops are memory-bound
// neighborhood scans, and replacing Graph's per-node heap vectors with one
// contiguous arena removes a pointer chase per node, packs adjacency
// entries of consecutive nodes into shared cache lines, and lets the
// prefetcher stream the scan.
//
// A CsrGraph is a snapshot: it is built from a Graph (in parallel, via
// Parallel::prefixSum over the degree array) or assembled directly from
// CSR arrays (the parallel coarsening constructs its coarse graphs this
// way), and never mutated afterwards. Node volumes and the total edge
// weight are precomputed at freeze time, turning Graph::volume's O(deg)
// scan into an O(1) read inside the move phase. The iteration interface
// mirrors Graph (forNeighborsOf, parallelForNodes,
// balancedParallelForNodes, forEdges, parallelForEdges, ...) so kernels
// that serve both layouts (modularity, coverage) are written once, generic
// over the layout. Every community detector and the coarsener run on
// CsrGraph only.
//
// Adjacency order is preserved exactly by the freezing constructor, which
// makes single-threaded quality scores bit-identical between the two
// layouts (asserted by tests/test_csr.cpp).

#include <cstdint>
#include <utility>
#include <vector>

#include <omp.h>

#include "graph/graph.hpp"
#include "support/common.hpp"
#include "support/view_check.hpp"

namespace grapr {

class CsrGraph {
public:
    /// An empty frozen graph (0 nodes).
    CsrGraph() { offsets_.push_back(0); }

    /// Freeze g into CSR form. Parallel: degree scan + prefix sum +
    /// parallel scatter. Adjacency order of every node is preserved.
    /// GRAPR_VIEW_CHECK builds capture the caller as the freeze site and
    /// the source graph's mutation generation; every accessor then asserts
    /// the source has not mutated since (see support/view_check.hpp).
    explicit CsrGraph(const Graph& g GRAPR_VIEW_SITE_PARAM);

    /// Assemble from raw CSR arrays (all nodes exist, adjacency must be
    /// symmetric with self-loops stored once). Takes ownership of the
    /// arrays; derives edge counts, self-loops, total weight and per-node
    /// volumes in parallel. `weights` may be empty for an unweighted
    /// graph, otherwise must parallel `neighbors`.
    CsrGraph(std::vector<index> offsets, std::vector<node> neighbors,
             std::vector<edgeweight> weights, bool weighted);

    // --- size and flags ---------------------------------------------------

    count numberOfNodes() const noexcept { return n_; }
    count numberOfEdges() const noexcept { return m_; }
    count numberOfSelfLoops() const noexcept { return selfLoops_; }
    count upperNodeIdBound() const noexcept { return offsets_.size() - 1; }

    bool isWeighted() const noexcept { return weighted_; }
    bool isEmpty() const noexcept { return n_ == 0; }

    bool hasNode(node v) const noexcept {
        return v < exists_.size() && exists_[v];
    }

    // --- degrees, weights, volumes -----------------------------------------

    count degree(node v) const noexcept {
        GRAPR_VIEW_ASSERT(viewStamp_);
        return static_cast<count>(offsets_[v + 1] - offsets_[v]);
    }

    edgeweight weightedDegree(node v) const {
        GRAPR_VIEW_ASSERT(viewStamp_);
        if (!weighted_) return static_cast<edgeweight>(degree(v));
        edgeweight total = 0.0;
        for (index i = offsets_[v]; i < offsets_[v + 1]; ++i) {
            total += weights_[i];
        }
        return total;
    }

    /// vol(v), precomputed at freeze time (self-loop counted twice).
    edgeweight volume(node v) const noexcept {
        GRAPR_VIEW_ASSERT(viewStamp_);
        return volume_[v];
    }

    edgeweight totalEdgeWeight() const noexcept {
        GRAPR_VIEW_ASSERT(viewStamp_);
        return totalWeight_;
    }

    // --- neighborhood access -----------------------------------------------

    node getIthNeighbor(node v, index i) const {
        GRAPR_VIEW_ASSERT(viewStamp_);
        return neighbors_[offsets_[v] + i];
    }

    edgeweight getIthNeighborWeight(node v, index i) const {
        GRAPR_VIEW_ASSERT(viewStamp_);
        return weighted_ ? weights_[offsets_[v] + i] : 1.0;
    }

    // --- iteration (mirrors Graph) ------------------------------------------

    template <typename F>
    void forNodes(F&& f) const {
        GRAPR_VIEW_ASSERT(viewStamp_);
        const count bound = upperNodeIdBound();
        for (node v = 0; v < bound; ++v) {
            if (exists_[v]) f(v);
        }
    }

    template <typename F>
    void parallelForNodes(F&& f) const {
        GRAPR_VIEW_ASSERT(viewStamp_);
        const auto bound = static_cast<std::int64_t>(upperNodeIdBound());
#pragma omp parallel for default(none) shared(f, bound) schedule(static)
        for (std::int64_t v = 0; v < bound; ++v) {
            if (exists_[static_cast<node>(v)]) f(static_cast<node>(v));
        }
    }

    template <typename F>
    void balancedParallelForNodes(F&& f) const {
        GRAPR_VIEW_ASSERT(viewStamp_);
        const auto bound = static_cast<std::int64_t>(upperNodeIdBound());
#pragma omp parallel for default(none) shared(f, bound) schedule(guided)
        for (std::int64_t v = 0; v < bound; ++v) {
            if (exists_[static_cast<node>(v)]) f(static_cast<node>(v));
        }
    }

    /// Apply f(v, w) to every neighbor of u (self-loop delivered once).
    template <typename F>
    void forNeighborsOf(node u, F&& f) const {
        GRAPR_VIEW_ASSERT(viewStamp_);
        const index lo = offsets_[u];
        const index hi = offsets_[u + 1];
        if (weighted_) {
            for (index i = lo; i < hi; ++i) f(neighbors_[i], weights_[i]);
        } else {
            for (index i = lo; i < hi; ++i) f(neighbors_[i], 1.0);
        }
    }

    /// Apply f(u, v, w) to every undirected edge exactly once (v >= u).
    template <typename F>
    void forEdges(F&& f) const {
        GRAPR_VIEW_ASSERT(viewStamp_);
        const count bound = upperNodeIdBound();
        for (node u = 0; u < bound; ++u) {
            for (index i = offsets_[u]; i < offsets_[u + 1]; ++i) {
                const node v = neighbors_[i];
                if (v >= u) f(u, v, weighted_ ? weights_[i] : 1.0);
            }
        }
    }

    template <typename F>
    void parallelForEdges(F&& f) const {
        GRAPR_VIEW_ASSERT(viewStamp_);
        const auto bound = static_cast<std::int64_t>(upperNodeIdBound());
#pragma omp parallel for default(none) shared(f, bound) schedule(guided)
        for (std::int64_t su = 0; su < bound; ++su) {
            const node u = static_cast<node>(su);
            for (index i = offsets_[u]; i < offsets_[u + 1]; ++i) {
                const node v = neighbors_[i];
                if (v >= u) f(u, v, weighted_ ? weights_[i] : 1.0);
            }
        }
    }

    // --- whole-graph helpers -----------------------------------------------

    /// List of existing node ids (ascending).
    std::vector<node> nodeIds() const;

    /// Thaw back into a mutable adjacency-list Graph (the API-boundary
    /// conversion; adjacency order is preserved, so freezing again is an
    /// exact round trip).
    Graph toGraph() const;

    /// Raw array access for benchmarks and tests.
    const std::vector<index>& offsets() const noexcept { return offsets_; }
    const std::vector<node>& neighborArray() const noexcept {
        return neighbors_;
    }
    const std::vector<edgeweight>& weightArray() const noexcept {
        return weights_;
    }

private:
    count n_ = 0;
    count m_ = 0;
    count selfLoops_ = 0;
    bool weighted_ = false;
    edgeweight totalWeight_ = 0.0;
    std::vector<index> offsets_;        // size upperNodeIdBound() + 1
    std::vector<node> neighbors_;       // size offsets_.back()
    std::vector<edgeweight> weights_;   // empty when unweighted
    std::vector<edgeweight> volume_;    // per-node, precomputed
    std::vector<std::uint8_t> exists_;  // holes survive freezing
#ifdef GRAPR_VIEW_CHECK
    // Freeze-time generation + freeze site; disengaged for views assembled
    // from raw arrays (no source graph to go stale against).
    view::ViewStamp viewStamp_;
#endif
};

} // namespace grapr
