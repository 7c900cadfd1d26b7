#pragma once
// Vertex following (Lu & Halappanavar, "Parallel Heuristics for Scalable
// Community Detection"): a modularity-preserving pre-pass that collapses
// degree-1 chains and pendants onto the node they hang from before the
// detector ever sweeps.
//
// A pendant u with single neighbor a contributes most to modularity inside
// a's community — moving u elsewhere can only lose the u–a edge — so the
// move phase never needs to evaluate it. The collapse is a SINGLE pass
// over the original pendants (chain tips fold one step onto the chain);
// it is deliberately not iterated to a full peel, because a node that has
// absorbed followers is heavy (its collapsed edges became self-loops) and
// the pendant-optimality argument no longer covers moving it — an
// iterated peel dissolves whole trees into one node and craters quality.
// Detection then runs on the reduced graph (noticeably smaller for
// scale-free inputs, where degree-1 nodes are the largest degree class)
// and the labels are prolonged back through the standard projector, so
// every follower lands exactly in its anchor's community by construction.
//
// The reduction reuses the parallel CSR-to-CSR coarsener
// (ParallelPartitionCoarsening, parallel = true): followers and anchors
// form the blocks of a partition, and contracting the graph by it yields
// the reduced CsrGraph with collapsed edges folded into self-loops — i.e.
// node volumes (and hence modularity arithmetic) are preserved exactly.

#include <vector>

#include "graph/csr_graph.hpp"
#include "structures/partition.hpp"

namespace grapr {

/// Result of the vertex-following reduction of a frozen graph.
struct VertexFollowingReduction {
    /// The contracted graph (weighted; collapsed edges became self-loops).
    CsrGraph reduced;
    /// π: original node id -> reduced node id (input to projectBack).
    std::vector<node> fineToCoarse;
    /// Anchor of every original node in ORIGINAL ids: the live node its
    /// pendant chain resolves to; anchor[u] == u for survivors.
    std::vector<node> anchor;
    /// Number of nodes collapsed away (0 = the input had no pendants).
    count collapsed = 0;
};

namespace VertexFollowing {

/// Collapse every original degree-1 node (self-loops don't count toward
/// degree) onto its unique neighbor — one pass, see the header comment for
/// why it is not iterated — then contract the follower->anchor blocks.
/// O(m) detection, then one parallel coarsening.
VertexFollowingReduction reduce(const CsrGraph& g);

/// ζ(v) = ζ'(π(v)): prolong a solution on the reduced graph back to the
/// original node ids (thin wrapper over ClusteringProjector).
Partition projectBack(const Partition& reducedSolution,
                      const VertexFollowingReduction& reduction);

} // namespace VertexFollowing

} // namespace grapr
