#pragma once
// Graph coarsening according to a partition (§III-B): the nodes of each
// community collapse into one coarse node; an edge between coarse nodes
// carries the summed weight of inter-community edges, a self-loop the
// summed weight of intra-community edges.
//
// Both strategies read a frozen CsrGraph and build the coarse graph
// directly in CSR form, rows sorted by neighbor id, so a multi-level
// algorithm stays in the frozen layout across all levels and the coarse
// graph is the same for every thread count. They are the two arms of the
// paper's coarsening ablation:
//  * Parallel (`parallel = true`, the paper's scheme and what PLM, EPP and
//    CEL run): fine nodes are bucketed by coarse id with a counting sort,
//    then one thread per coarse node aggregates its members' rows in a
//    scratch accumulator and writes the coarse row into its CSR slice.
//  * Sequential (`parallel = false`): one hash-aggregation sweep over the
//    fine edges — the "major sequential bottleneck" of early PLM
//    versions. It shares nothing with the parallel kernel past the id
//    compaction, which makes it the reference the tests hold the parallel
//    kernel to.

#include <vector>

#include "graph/csr_graph.hpp"
#include "structures/partition.hpp"

namespace grapr {

/// Result of coarsening a frozen graph: a frozen, weighted coarse graph.
struct CsrCoarseningResult {
    CsrGraph coarseGraph;
    /// π: fine node id -> coarse node id.
    std::vector<node> fineToCoarse;
};

class ParallelPartitionCoarsening {
public:
    explicit ParallelPartitionCoarsening(bool parallel = true)
        : parallel_(parallel) {}

    /// Coarsen g according to zeta. zeta need not be compacted; community
    /// ids are compacted into coarse node ids in ascending-id order. The
    /// coarse graph is canonical (sorted rows): a function of g and zeta
    /// only, whatever the strategy's thread count.
    CsrCoarseningResult run(const CsrGraph& g, const Partition& zeta) const;

private:
    bool parallel_;
};

} // namespace grapr
