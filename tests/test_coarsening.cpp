// Coarsening and prolongation: weight conservation, structural shape,
// parallel == sequential, thread-count independence, projection
// identities.

#include <gtest/gtest.h>

#include "coarsening/parallel_coarsening.hpp"
#include "coarsening/projector.hpp"
#include "generators/erdos_renyi.hpp"
#include "generators/planted_partition.hpp"
#include "generators/simple_graphs.hpp"
#include "quality/modularity.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"

using namespace grapr;

namespace {

Partition evenOddPartition(count n) {
    Partition p(n);
    for (node v = 0; v < n; ++v) p.set(v, v % 2);
    p.setUpperBound(2);
    return p;
}

} // namespace

TEST(Coarsening, TwoTrianglesToTwoNodes) {
    // Two triangles plus a bridge collapse to two coarse nodes with
    // self-loops of weight 3 and a connecting edge of weight 1.
    Graph g(6, false);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(0, 2);
    g.addEdge(3, 4);
    g.addEdge(4, 5);
    g.addEdge(3, 5);
    g.addEdge(2, 3);
    Partition p(6);
    for (node v = 0; v < 6; ++v) p.set(v, v < 3 ? 0 : 1);
    p.setUpperBound(2);

    const CsrCoarseningResult result =
        ParallelPartitionCoarsening().run(CsrGraph(g), p);
    const Graph coarse = result.coarseGraph.toGraph();
    EXPECT_EQ(coarse.numberOfNodes(), 2u);
    EXPECT_EQ(coarse.numberOfEdges(), 3u); // 2 loops + 1 edge
    EXPECT_DOUBLE_EQ(coarse.weight(0, 0), 3.0);
    EXPECT_DOUBLE_EQ(coarse.weight(1, 1), 3.0);
    EXPECT_DOUBLE_EQ(coarse.weight(0, 1), 1.0);
    coarse.checkConsistency();
}

TEST(Coarsening, PreservesTotalEdgeWeight) {
    Random::setSeed(70);
    Graph g = ErdosRenyiGenerator(500, 0.02).generate();
    const Partition p = evenOddPartition(g.upperNodeIdBound());
    const CsrCoarseningResult result =
        ParallelPartitionCoarsening().run(CsrGraph(g), p);
    EXPECT_NEAR(result.coarseGraph.totalEdgeWeight(), g.totalEdgeWeight(),
                1e-9);
}

TEST(Coarsening, PreservesCommunityVolumes) {
    Random::setSeed(71);
    Graph g = ErdosRenyiGenerator(300, 0.05).generate();
    Partition p(g.upperNodeIdBound());
    for (node v = 0; v < p.numberOfElements(); ++v) p.set(v, v % 7);
    p.setUpperBound(7);

    const CsrCoarseningResult result =
        ParallelPartitionCoarsening().run(CsrGraph(g), p);
    // Volume of coarse node c == summed volume of its fine community.
    std::vector<double> fineVolume(7, 0.0);
    g.forNodes([&](node v) { fineVolume[p[v]] += g.volume(v); });
    for (node c = 0; c < 7; ++c) {
        // Community ids are compacted ascending, so community c -> coarse c.
        EXPECT_NEAR(result.coarseGraph.volume(c), fineVolume[c], 1e-9);
    }
}

TEST(Coarsening, SequentialMatchesParallel) {
    Random::setSeed(72);
    Graph g = PlantedPartitionGenerator(600, 12, 0.2, 0.01).generate();
    Partition p(g.upperNodeIdBound());
    for (node v = 0; v < p.numberOfElements(); ++v) {
        p.set(v, static_cast<node>(Random::integer(40)));
    }
    p.setUpperBound(40);

    const CsrGraph csr(g);
    const CsrCoarseningResult parallel =
        ParallelPartitionCoarsening(true).run(csr, p);
    const CsrCoarseningResult sequential =
        ParallelPartitionCoarsening(false).run(csr, p);
    EXPECT_EQ(parallel.fineToCoarse, sequential.fineToCoarse);
    // Equal up to summation order: weights within 1e-9.
    EXPECT_TRUE(parallel.coarseGraph.toGraph().structurallyEquals(
        sequential.coarseGraph.toGraph()));
}

TEST(Coarsening, OutputIndependentOfThreadCount) {
    // Non-integer weights make every summation order visible in the low
    // bits, so equality here means the rows are aggregated in the same
    // order at every thread count, not just to the same edge set.
    Random::setSeed(75);
    const Graph unweighted =
        PlantedPartitionGenerator(800, 16, 0.15, 0.01).generate();
    Graph g(unweighted.upperNodeIdBound(), true);
    unweighted.forEdges([&](node u, node v, edgeweight) {
        g.addEdge(u, v, 0.1 + Random::real());
    });
    g.addEdge(3, 3, 0.7);
    const CsrGraph csr(g);
    Partition p(g.upperNodeIdBound());
    for (node v = 0; v < p.numberOfElements(); ++v) {
        p.set(v, static_cast<node>(Random::integer(60)));
    }
    p.setUpperBound(60);

    const int restoreThreads = Parallel::maxThreads();
    for (const bool parallel : {true, false}) {
        std::vector<CsrCoarseningResult> runs;
        for (const int threads : {1, 2, 4}) {
            Parallel::setThreads(threads);
            runs.push_back(ParallelPartitionCoarsening(parallel).run(csr, p));
        }
        for (std::size_t r = 1; r < runs.size(); ++r) {
            const CsrGraph& a = runs[0].coarseGraph;
            const CsrGraph& b = runs[r].coarseGraph;
            EXPECT_EQ(runs[r].fineToCoarse, runs[0].fineToCoarse);
            EXPECT_EQ(b.offsets(), a.offsets()) << "parallel=" << parallel;
            EXPECT_EQ(b.neighborArray(), a.neighborArray())
                << "parallel=" << parallel;
            EXPECT_EQ(b.weightArray(), a.weightArray())
                << "parallel=" << parallel;
        }
    }
    Parallel::setThreads(restoreThreads);
}

TEST(Coarsening, SingletonPartitionIsIdentityShape) {
    Random::setSeed(73);
    Graph g = ErdosRenyiGenerator(100, 0.05).generate();
    Partition p(g.upperNodeIdBound());
    p.allToSingletons();
    const CsrCoarseningResult result =
        ParallelPartitionCoarsening().run(CsrGraph(g), p);
    EXPECT_EQ(result.coarseGraph.numberOfNodes(), g.numberOfNodes());
    EXPECT_EQ(result.coarseGraph.numberOfEdges(), g.numberOfEdges());
    EXPECT_NEAR(result.coarseGraph.totalEdgeWeight(), g.totalEdgeWeight(),
                1e-9);
}

TEST(Coarsening, AllToOneGivesSingleNode) {
    Graph g = SimpleGraphs::clique(10);
    Partition p(10);
    p.allToOne();
    const CsrCoarseningResult result =
        ParallelPartitionCoarsening().run(CsrGraph(g), p);
    EXPECT_EQ(result.coarseGraph.numberOfNodes(), 1u);
    EXPECT_EQ(result.coarseGraph.numberOfSelfLoops(), 1u);
    EXPECT_DOUBLE_EQ(result.coarseGraph.toGraph().weight(0, 0), 45.0);
}

TEST(Coarsening, NonCompactCommunityIdsAreCompacted) {
    Graph g = SimpleGraphs::path(4);
    Partition p(4);
    p.set(0, 100);
    p.set(1, 100);
    p.set(2, 7);
    p.set(3, 7);
    p.setUpperBound(101);
    const CsrCoarseningResult result =
        ParallelPartitionCoarsening().run(CsrGraph(g), p);
    EXPECT_EQ(result.coarseGraph.numberOfNodes(), 2u);
    // Ascending compaction: community 7 -> coarse 0, community 100 -> 1.
    EXPECT_EQ(result.fineToCoarse[0], 1u);
    EXPECT_EQ(result.fineToCoarse[2], 0u);
}

TEST(Coarsening, WeightedInputWeightsSummed) {
    Graph g(4, true);
    g.addEdge(0, 2, 1.5);
    g.addEdge(0, 3, 2.0);
    g.addEdge(1, 2, 0.5);
    Partition p(4);
    p.set(0, 0); p.set(1, 0); p.set(2, 1); p.set(3, 1);
    p.setUpperBound(2);
    const CsrCoarseningResult result =
        ParallelPartitionCoarsening().run(CsrGraph(g), p);
    EXPECT_DOUBLE_EQ(result.coarseGraph.toGraph().weight(0, 1), 4.0);
}

TEST(Projector, ProjectBackBasic) {
    Partition coarse(2);
    coarse.set(0, 5);
    coarse.set(1, 9);
    coarse.setUpperBound(10);
    const std::vector<node> fineToCoarse = {0, 0, 1, 1, 0};
    const Partition fine =
        ClusteringProjector::projectBack(coarse, fineToCoarse);
    EXPECT_EQ(fine.numberOfElements(), 5u);
    EXPECT_EQ(fine[0], 5u);
    EXPECT_EQ(fine[1], 5u);
    EXPECT_EQ(fine[2], 9u);
    EXPECT_EQ(fine[4], 5u);
}

TEST(Projector, NoneEntriesStayUnassigned) {
    Partition coarse(1);
    coarse.set(0, 3);
    coarse.setUpperBound(4);
    const std::vector<node> fineToCoarse = {0, none, 0};
    const Partition fine =
        ClusteringProjector::projectBack(coarse, fineToCoarse);
    EXPECT_EQ(fine[1], none);
}

TEST(Projector, HierarchyComposition) {
    // Two levels: 6 fine -> 3 mid -> 2 coarse.
    const std::vector<node> level0 = {0, 0, 1, 1, 2, 2};
    const std::vector<node> level1 = {0, 0, 1};
    Partition coarsest(2);
    coarsest.set(0, 0);
    coarsest.set(1, 1);
    coarsest.setUpperBound(2);
    const Partition fine = ClusteringProjector::projectThroughHierarchy(
        coarsest, {level0, level1});
    EXPECT_EQ(fine.numberOfElements(), 6u);
    for (node v = 0; v < 4; ++v) EXPECT_EQ(fine[v], 0u);
    EXPECT_EQ(fine[4], 1u);
    EXPECT_EQ(fine[5], 1u);
}

TEST(Projector, ModularityInvariantUnderProjection) {
    // Modularity of a coarse solution on the coarse graph equals the
    // modularity of its projection on the fine graph — the identity that
    // makes the multilevel scheme sound.
    Random::setSeed(74);
    Graph g = PlantedPartitionGenerator(400, 8, 0.25, 0.01).generate();
    Partition p(g.upperNodeIdBound());
    for (node v = 0; v < p.numberOfElements(); ++v) {
        p.set(v, static_cast<node>(Random::integer(20)));
    }
    p.setUpperBound(20);
    const CsrCoarseningResult result =
        ParallelPartitionCoarsening().run(CsrGraph(g), p);

    // Any coarse solution: group coarse nodes by parity.
    Partition coarseSolution(result.coarseGraph.upperNodeIdBound());
    for (node c = 0; c < coarseSolution.numberOfElements(); ++c) {
        coarseSolution.set(c, c % 2);
    }
    coarseSolution.setUpperBound(2);

    const Partition fineSolution = ClusteringProjector::projectBack(
        coarseSolution, result.fineToCoarse);
    const double coarseQ =
        Modularity().getQuality(coarseSolution, result.coarseGraph);
    const double fineQ = Modularity().getQuality(fineSolution, g);
    EXPECT_NEAR(coarseQ, fineQ, 1e-9);
}
