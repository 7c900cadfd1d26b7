// Micro benchmarks (google-benchmark) for the graph substrate: the
// operations on PLM/PLP's critical path — neighborhood scans, edge
// iteration, builder assembly, coarsening — so regressions in the data
// structure are visible independently of whole-algorithm timings.

#include <benchmark/benchmark.h>

#include "coarsening/parallel_coarsening.hpp"
#include "generators/rmat.hpp"
#include "graph/graph_builder.hpp"
#include "structures/partition.hpp"
#include "support/random.hpp"

using namespace grapr;

namespace {

const Graph& testGraph() {
    static const Graph g = [] {
        Random::setSeed(1000);
        return RmatGenerator(15, 8).generate();
    }();
    return g;
}

} // namespace

static void BM_NeighborhoodScan(benchmark::State& state) {
    const Graph& g = testGraph();
    double total = 0.0;
    for (auto _ : state) {
        g.forNodes([&](node u) {
            g.forNeighborsOf(u, [&](node, edgeweight w) { total += w; });
        });
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(2 * g.numberOfEdges()));
}
BENCHMARK(BM_NeighborhoodScan);

static void BM_ParallelEdgeSweep(benchmark::State& state) {
    const Graph& g = testGraph();
    for (auto _ : state) {
        std::atomic<double> total{0.0};
        g.parallelForEdges([&](node, node, edgeweight w) {
            double expected = total.load(std::memory_order_relaxed);
            while (!total.compare_exchange_weak(expected, expected + w)) {
            }
        });
        benchmark::DoNotOptimize(total.load());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(g.numberOfEdges()));
}
BENCHMARK(BM_ParallelEdgeSweep);

static void BM_DegreeLookup(benchmark::State& state) {
    const Graph& g = testGraph();
    count total = 0;
    for (auto _ : state) {
        for (node v = 0; v < g.upperNodeIdBound(); ++v) {
            total += g.degree(v);
        }
        benchmark::DoNotOptimize(total);
    }
}
BENCHMARK(BM_DegreeLookup);

static void BM_GraphBuilderAssembly(benchmark::State& state) {
    Random::setSeed(1001);
    const count n = 1 << 14;
    std::vector<std::pair<node, node>> edges;
    for (count i = 0; i < 8 * n; ++i) {
        edges.emplace_back(static_cast<node>(Random::integer(n)),
                           static_cast<node>(Random::integer(n)));
    }
    for (auto _ : state) {
        GraphBuilder builder(n, false);
        for (auto [u, v] : edges) builder.addEdge(u, v);
        Graph g = builder.build(/*dedup=*/true);
        benchmark::DoNotOptimize(g.numberOfEdges());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(edges.size()));
}
BENCHMARK(BM_GraphBuilderAssembly);

static void BM_CoarseningParallel(benchmark::State& state) {
    const CsrGraph g(testGraph());
    Random::setSeed(1002);
    Partition p(g.upperNodeIdBound());
    const count k = g.numberOfNodes() / 50;
    for (node v = 0; v < p.numberOfElements(); ++v) {
        p.set(v, static_cast<node>(Random::integer(k)));
    }
    p.setUpperBound(static_cast<node>(k));
    for (auto _ : state) {
        const CsrCoarseningResult result =
            ParallelPartitionCoarsening(state.range(0) != 0).run(g, p);
        benchmark::DoNotOptimize(result.coarseGraph.numberOfEdges());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(g.numberOfEdges()));
}
BENCHMARK(BM_CoarseningParallel)->Arg(1)->Arg(0);
