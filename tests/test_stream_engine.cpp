// Property and concurrency tests for the streaming update engine
// (graph/stream_engine, graph/graph_log, structures/delta_csr) and the
// incremental detectors built on it (community/streaming_update).
//
// The load-bearing properties, in the order they appear:
//   - batches are programs: replay semantics, Strict/Permissive modes,
//     net-effect reduction (cancelled ops publish nothing);
//   - apply/undo is a bit-identical round trip on the CSR arrays;
//   - one big batch == many small batches (replay composes);
//   - the engine agrees bit for bit with an independent map-based oracle
//     under randomized churn, at every thread count;
//   - pinned snapshots are immutable under concurrent publishes (the
//     snapshot-isolation contract, checked from racing reader threads);
//   - incremental PLM/PLP re-detection stays inside the quality envelope
//     of from-scratch detection while re-activating only a local region;
//   - single-threaded incremental PLM, which compacts once per batch,
//     equals a replay that also compacts before the sweep, element for
//     element, and its partition stays dense between batches;
//   - batch by batch, both detectors follow insertions, deletions, node
//     growth and reweights the way a cold run would.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include <omp.h>

#include "community/plm.hpp"
#include "community/plp.hpp"
#include "community/streaming_update.hpp"
#include "generators/planted_partition.hpp"
#include "generators/simple_graphs.hpp"
#include "graph/graph_log.hpp"
#include "graph/stream_engine.hpp"
#include "quality/modularity.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"
#include "support/stream_workload.hpp"

using namespace grapr;
using grapr::testing::StreamWorkload;
using grapr::testing::StreamWorkloadConfig;

namespace {

// Bit-identity on the frozen representation: offsets, neighbor targets,
// weights. This is deliberately stricter than graph isomorphism — the
// engine promises deterministic, sorted-row CSR output.
void expectCsrIdentical(const CsrGraph& a, const CsrGraph& b) {
    ASSERT_EQ(a.isWeighted(), b.isWeighted());
    EXPECT_EQ(a.offsets(), b.offsets());
    EXPECT_EQ(a.neighborArray(), b.neighborArray());
    if (a.isWeighted()) {
        EXPECT_EQ(a.weightArray(), b.weightArray());
    }
}

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t bytes,
                    std::uint64_t h = 1469598103934665603ULL) {
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= data[i];
        h *= 1099511628211ULL;
    }
    return h;
}

// Checksum of the full CSR state; used by the concurrent-reader harness
// where gtest's vector printers would be too slow under contention.
std::uint64_t csrChecksum(const CsrGraph& g) {
    const auto& off = g.offsets();
    const auto& nbr = g.neighborArray();
    const auto& wts = g.weightArray();
    std::uint64_t h = fnv1a(
        reinterpret_cast<const std::uint8_t*>(off.data()),
        off.size() * sizeof(grapr::index));
    h = fnv1a(reinterpret_cast<const std::uint8_t*>(nbr.data()),
              nbr.size() * sizeof(node), h);
    h = fnv1a(reinterpret_cast<const std::uint8_t*>(wts.data()),
              wts.size() * sizeof(edgeweight), h);
    return h;
}

// Independent oracle for the engine's batch semantics: a sorted edge map
// replayed sequentially with the documented Permissive rules. Shares no
// code with the delta-CSR path — agreement is meaningful.
class OracleGraph {
public:
    OracleGraph(const Graph& g, bool weighted)
        : weighted_(weighted), bound_(g.upperNodeIdBound()) {
        g.forEdges([&](node u, node v, edgeweight w) {
            edges_[canonical(u, v)] = weighted_ ? w : 1.0;
        });
    }

    void applyPermissive(const EdgeBatch& batch) {
        const auto before = edges_;
        for (const EdgeOp& op : batch.ops()) {
            const auto key = canonical(op.u, op.v);
            if (op.kind == EdgeOp::Kind::Insert) {
                if (edges_.find(key) == edges_.end()) {
                    edges_[key] = weighted_ ? op.w : 1.0;
                }
            } else {
                edges_.erase(key);
            }
        }
        // The engine grows the bound only for *net*-changed edges (a
        // cancelled insert of a new node publishes nothing); mirror that.
        for (const auto& [key, w] : edges_) {
            const auto it = before.find(key);
            if (it == before.end() || it->second != w) {
                bound_ = std::max(bound_, maxEndpoint(key) + 1);
            }
        }
        for (const auto& [key, w] : before) {
            if (edges_.find(key) == edges_.end()) {
                bound_ = std::max(bound_, maxEndpoint(key) + 1);
            }
        }
    }

    CsrGraph freeze() const {
        Graph g(bound_, weighted_);
        for (const auto& [key, w] : edges_) {
            g.addEdge(static_cast<node>(key >> 32),
                      static_cast<node>(key & 0xffffffffULL), w);
        }
        g.sortNeighborLists();
        return CsrGraph(g);
    }

private:
    static std::uint64_t canonical(node u, node v) {
        const node a = std::min(u, v);
        const node b = std::max(u, v);
        return (static_cast<std::uint64_t>(a) << 32) | b;
    }
    static count maxEndpoint(std::uint64_t key) {
        return static_cast<count>(key & 0xffffffffULL);
    }

    bool weighted_;
    count bound_;
    std::map<std::uint64_t, edgeweight> edges_;
};

Graph seedGraph(count n = 64, bool weighted = false) {
    Random::setSeed(700);
    Graph g(n, weighted);
    SplitMix64 rng = Random::forStream(700);
    for (count e = 0; e < 3 * n; ++e) {
        const auto u = static_cast<node>(Random::integer(rng, n));
        const auto v = static_cast<node>(Random::integer(rng, n));
        const auto w = static_cast<edgeweight>(1 + Random::integer(rng, 4));
        if (!g.hasEdge(u, v)) g.addEdge(u, v, weighted ? w : 1.0);
    }
    return g;
}

} // namespace

// --- freezing and lookups --------------------------------------------------

TEST(StreamEngine, FreezeFromGraphMatchesDirectFreeze) {
    Graph g = seedGraph(64, true);
    StreamingGraph engine(g);
    EXPECT_EQ(engine.generation(), 0u);
    EXPECT_TRUE(engine.isWeighted());

    Graph sorted = g;
    sorted.sortNeighborLists();
    const CsrGraph direct(sorted);
    expectCsrIdentical(engine.pin()->graph, direct);
}

TEST(StreamEngine, CsrEdgeWeightBinarySearch) {
    Graph g(6, true);
    g.addEdge(0, 1, 2.5);
    g.addEdge(0, 3, 1.0);
    g.addEdge(2, 2, 4.0); // self-loop
    g.sortNeighborLists();
    const CsrGraph frozen(g);

    EXPECT_EQ(csrEdgeWeight(frozen, 0, 1), std::optional<edgeweight>(2.5));
    EXPECT_EQ(csrEdgeWeight(frozen, 1, 0), std::optional<edgeweight>(2.5));
    EXPECT_EQ(csrEdgeWeight(frozen, 2, 2), std::optional<edgeweight>(4.0));
    EXPECT_FALSE(csrEdgeWeight(frozen, 1, 3).has_value());
    EXPECT_FALSE(csrEdgeWeight(frozen, 0, 99).has_value());
}

// --- batch semantics -------------------------------------------------------

TEST(StreamEngine, EmptyAndCancelledBatchesPublishNothing) {
    StreamingGraph engine(seedGraph());
    const std::uint64_t checksum = csrChecksum(engine.pin()->graph);
    const StreamView view = engine.current();

    const BatchResult empty = engine.apply(EdgeBatch{});
    EXPECT_EQ(empty.generation, 0u);
    EXPECT_TRUE(empty.touched.empty());

    // Insert-then-remove of a brand-new edge cancels out: legal in Strict
    // mode (the batch is a program), net effect zero, nothing published.
    EdgeBatch cancel;
    cancel.insert(60, 61);
    cancel.remove(61, 60);
    const BatchResult result = engine.apply(cancel);
    EXPECT_EQ(result.generation, 0u);
    EXPECT_EQ(result.inserted, 0u);
    EXPECT_EQ(result.removed, 0u);
    EXPECT_TRUE(result.touched.empty());

    EXPECT_EQ(engine.generation(), 0u);
    EXPECT_EQ(csrChecksum(engine.pin()->graph), checksum);
    // No publish happened, so the borrowed view must still be readable
    // (under GRAPR_VIEW_CHECK this would abort had the engine bumped).
    EXPECT_EQ(csrChecksum(view.graph()), checksum);
}

TEST(StreamEngine, StrictViolationsThrowAndLeaveStateUntouched) {
    Graph g(8, false);
    g.addEdge(0, 1);
    g.addEdge(2, 3);
    StreamingGraph engine(g);
    const std::uint64_t checksum = csrChecksum(engine.pin()->graph);

    EdgeBatch duplicate;
    duplicate.insert(4, 5);
    duplicate.insert(1, 0); // {0,1} exists — duplicate under any ordering
    EXPECT_THROW(engine.apply(duplicate), std::runtime_error);

    EdgeBatch missing;
    missing.remove(5, 6);
    EXPECT_THROW(engine.apply(missing), std::runtime_error);

    EdgeBatch sentinel;
    sentinel.insert(0, none);
    EXPECT_THROW(engine.apply(sentinel), std::runtime_error);

    // A throwing batch is all-or-nothing: generation and arrays untouched,
    // including the valid {4,5} insert that preceded the bad op.
    EXPECT_EQ(engine.generation(), 0u);
    EXPECT_EQ(csrChecksum(engine.pin()->graph), checksum);
}

TEST(StreamEngine, PermissiveCountsIgnoredOps) {
    Graph g(8, false);
    g.addEdge(0, 1);
    StreamingGraph engine(g);

    EdgeBatch batch;
    batch.insert(0, 1); // duplicate
    batch.remove(4, 5); // missing
    batch.insert(2, 3); // effective
    const BatchResult result =
        engine.apply(batch, StreamApplyMode::Permissive);
    EXPECT_EQ(result.ignored, 2u);
    EXPECT_EQ(result.inserted, 1u);
    EXPECT_EQ(result.generation, 1u);
    EXPECT_EQ(result.touched, (std::vector<node>{2, 3}));
}

TEST(StreamEngine, SelfLoopAccounting) {
    Graph g(4, true);
    g.addEdge(0, 1, 1.0);
    StreamingGraph engine(g);
    const CsrGraph& base = engine.pin()->graph;
    const edgeweight baseVolume = base.volume(2);
    const edgeweight baseTotal = base.totalEdgeWeight();

    EdgeBatch batch;
    batch.insert(2, 2, 3.0);
    engine.apply(batch);
    const SnapshotPtr snap = engine.pin();
    const CsrGraph& next = snap->graph;
    EXPECT_EQ(next.numberOfSelfLoops(), 1u);
    EXPECT_EQ(next.degree(2), 1u); // stored once
    // Paper §III-B convention: a loop contributes 2w to its node's volume
    // and w to the total edge weight.
    EXPECT_DOUBLE_EQ(next.volume(2), baseVolume + 6.0);
    EXPECT_DOUBLE_EQ(next.totalEdgeWeight(), baseTotal + 3.0);
}

TEST(StreamEngine, ReweightViaRemoveInsertInOneBatch) {
    Graph g(4, true);
    g.addEdge(0, 1, 2.0);
    g.addEdge(1, 2, 1.0);
    StreamingGraph engine(g);
    const std::uint64_t checksum = csrChecksum(engine.pin()->graph);
    GraphLog log(engine);

    EdgeBatch batch;
    batch.remove(0, 1);
    batch.insert(0, 1, 7.0); // same edge, new weight: a reweight
    const BatchResult result = log.apply(batch);
    EXPECT_EQ(result.reweighted, 1u);
    EXPECT_EQ(result.inserted, 0u);
    EXPECT_EQ(result.removed, 0u);
    EXPECT_EQ(csrEdgeWeight(engine.pin()->graph, 0, 1),
              std::optional<edgeweight>(7.0));

    // The inverse (remove new, insert old at observed weight) must be
    // Strict-valid and restore the arrays bit for bit.
    log.undo();
    EXPECT_EQ(csrChecksum(engine.pin()->graph), checksum);
    EXPECT_EQ(csrEdgeWeight(engine.pin()->graph, 0, 1),
              std::optional<edgeweight>(2.0));
}

TEST(StreamEngine, InsertPastBoundGrowsGraph) {
    Graph g(4, false);
    g.addEdge(0, 1);
    StreamingGraph engine(g);

    EdgeBatch batch;
    batch.insert(2, 9);
    const BatchResult result = engine.apply(batch);
    EXPECT_EQ(result.touched, (std::vector<node>{2, 9}));

    const SnapshotPtr snap = engine.pin();
    EXPECT_EQ(snap->graph.upperNodeIdBound(), 10u);
    EXPECT_EQ(snap->graph.degree(9), 1u);
    EXPECT_EQ(snap->graph.getIthNeighbor(9, 0), 2u);
    for (node v = 4; v < 9; ++v) {
        EXPECT_EQ(snap->graph.degree(v), 0u); // holes stay empty rows
    }
}

// --- apply/undo and batch composition --------------------------------------

TEST(StreamEngine, CommitUndoRoundTripIsBitIdentical) {
    StreamingGraph engine(seedGraph(200, true));
    GraphLog log(engine);
    const std::uint64_t checksum = csrChecksum(engine.pin()->graph);

    StreamWorkloadConfig cfg;
    cfg.nodes = 200;
    cfg.opsPerBatch = 128;
    cfg.maxWeight = 4;
    cfg.seed = 701;
    const StreamWorkload workload(cfg);

    constexpr std::uint64_t kBatches = 12;
    for (std::uint64_t i = 0; i < kBatches; ++i) {
        const SnapshotPtr snap = engine.pin();
        log.apply(workload.batch(i, snap->graph),
                  StreamApplyMode::Permissive);
    }
    EXPECT_EQ(log.committedBatches(), kBatches);
    EXPECT_GT(engine.generation(), 0u);

    while (log.committedBatches() > 0) log.undo();
    // Unwinding the whole stream restores the generation-0 arrays exactly.
    expectCsrIdentical(engine.pin()->graph,
                       StreamingGraph(seedGraph(200, true)).pin()->graph);
    EXPECT_EQ(csrChecksum(engine.pin()->graph), checksum);
}

TEST(StreamEngine, OneBigBatchEqualsManySmallBatches) {
    const Graph base = seedGraph(150, false);
    StreamingGraph incremental(base);

    StreamWorkloadConfig cfg;
    cfg.nodes = 150; // stay inside the bound: growth is generation-shaped
    cfg.opsPerBatch = 96;
    cfg.seed = 702;
    const StreamWorkload workload(cfg);

    // Run batch by batch, recording the exact ops each batch contained
    // (removal sampling depends on the evolving state, so record, don't
    // regenerate).
    EdgeBatch concatenated;
    for (std::uint64_t i = 0; i < 10; ++i) {
        const EdgeBatch batch =
            workload.batch(i, incremental.pin()->graph);
        for (const EdgeOp& op : batch.ops()) {
            if (op.kind == EdgeOp::Kind::Insert) {
                concatenated.insert(op.u, op.v, op.w);
            } else {
                concatenated.remove(op.u, op.v);
            }
        }
        incremental.apply(batch, StreamApplyMode::Permissive);
    }

    // Replay the same ops as ONE batch: replay composes, so the final
    // arrays must be bit-identical even though the intermediate
    // generations never existed.
    StreamingGraph oneShot(base);
    oneShot.apply(concatenated, StreamApplyMode::Permissive);
    expectCsrIdentical(oneShot.pin()->graph, incremental.pin()->graph);
}

TEST(StreamEngine, MatchesOracleUnderRandomizedChurn) {
    const Graph base = seedGraph(300, true);
    StreamingGraph engine(base);
    OracleGraph oracle(base, true);

    StreamWorkloadConfig cfg;
    cfg.nodes = 330; // a few ids past the bound: exercises growth
    cfg.opsPerBatch = 200;
    cfg.insertFraction = 0.55;
    cfg.skew = 0.7;
    cfg.maxWeight = 3;
    cfg.seed = 703;
    const StreamWorkload workload(cfg);

    for (std::uint64_t i = 0; i < 15; ++i) {
        const EdgeBatch batch = workload.batch(i, engine.pin()->graph);
        engine.apply(batch, StreamApplyMode::Permissive);
        oracle.applyPermissive(batch);
        // Every generation agrees with the oracle bit for bit — not just
        // the final state.
        expectCsrIdentical(engine.pin()->graph, oracle.freeze());
    }
}

TEST(StreamEngine, ThreadCountInvariance) {
    const Graph base = seedGraph(256, true);
    const int saved = Parallel::maxThreads();

    StreamWorkloadConfig cfg;
    cfg.nodes = 256;
    cfg.opsPerBatch = 160;
    cfg.maxWeight = 4;
    cfg.seed = 704;
    const StreamWorkload workload(cfg);

    auto runAt = [&](int threads) {
        Parallel::setThreads(threads);
        StreamingGraph engine(base);
        std::vector<EdgeBatch> batches;
        for (std::uint64_t i = 0; i < 8; ++i) {
            batches.push_back(workload.batch(i, engine.pin()->graph));
            engine.apply(batches.back(), StreamApplyMode::Permissive);
        }
        return std::pair<SnapshotPtr, std::vector<EdgeBatch>>(
            engine.pin(), std::move(batches));
    };

    const auto [single, singleBatches] = runAt(1);
    const auto [parallel, parallelBatches] = runAt(std::max(4, saved));
    Parallel::setThreads(saved);

    // The workload generator is counter-based: identical op streams at
    // any thread count...
    ASSERT_EQ(singleBatches.size(), parallelBatches.size());
    for (std::size_t i = 0; i < singleBatches.size(); ++i) {
        const auto& a = singleBatches[i].ops();
        const auto& b = parallelBatches[i].ops();
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t j = 0; j < a.size(); ++j) {
            EXPECT_EQ(a[j].kind, b[j].kind);
            EXPECT_EQ(a[j].u, b[j].u);
            EXPECT_EQ(a[j].v, b[j].v);
            EXPECT_EQ(a[j].w, b[j].w);
        }
    }
    // ...and the delta-CSR assembly is deterministic, so the final arrays
    // are bit-identical between 1 thread and many.
    expectCsrIdentical(single->graph, parallel->graph);
}

// --- snapshot isolation ----------------------------------------------------

TEST(StreamEngine, PinnedSnapshotImmutableAcrossPublishes) {
    StreamingGraph engine(seedGraph(128, false));
    const SnapshotPtr pinned = engine.pin();
    const std::uint64_t checksum = csrChecksum(pinned->graph);
    const count baseEdges = pinned->graph.numberOfEdges();

    StreamWorkloadConfig cfg;
    cfg.nodes = 128;
    cfg.seed = 705;
    const StreamWorkload workload(cfg);
    for (std::uint64_t i = 0; i < 6; ++i) {
        engine.apply(workload.batch(i, engine.pin()->graph),
                     StreamApplyMode::Permissive);
    }

    EXPECT_GT(engine.generation(), 0u);
    EXPECT_EQ(pinned->generation, 0u);
    EXPECT_EQ(pinned->graph.numberOfEdges(), baseEdges);
    EXPECT_EQ(csrChecksum(pinned->graph), checksum);
}

TEST(StreamEngine, ConcurrentReadersSeeConsistentSnapshots) {
    // The randomized snapshot-isolation harness: one writer thread churns
    // through batches while reader threads pin generations and verify that
    // (a) a pinned snapshot is bit-stable (double checksum around a real
    // recompute), (b) observed generations are monotone per reader, and
    // (c) the final state equals a sequential oracle replay of the exact
    // batches the writer applied. gtest assertions are thread-safe on
    // Linux (GTEST_IS_THREADSAFE).
    const Graph base = seedGraph(256, true);
    StreamingGraph engine(base);

    StreamWorkloadConfig cfg;
    cfg.nodes = 280;
    cfg.opsPerBatch = 192;
    cfg.maxWeight = 4;
    cfg.skew = 0.5;
    cfg.seed = 706;
    const StreamWorkload workload(cfg);

    constexpr std::uint64_t kBatches = 40;
    std::atomic<bool> done{false};
    std::vector<EdgeBatch> applied(kBatches);

    std::thread writer([&] {
        for (std::uint64_t i = 0; i < kBatches; ++i) {
            const SnapshotPtr snap = engine.pin();
            applied[i] = workload.batch(i, snap->graph);
            engine.apply(applied[i], StreamApplyMode::Permissive);
        }
        done.store(true, std::memory_order_release);
    });

    std::vector<std::thread> readers;
    std::atomic<count> pinsChecked{0};
    for (int r = 0; r < 3; ++r) {
        readers.emplace_back([&] {
            std::uint64_t lastGeneration = 0;
            while (!done.load(std::memory_order_acquire)) {
                const SnapshotPtr snap = engine.pin();
                EXPECT_GE(snap->generation, lastGeneration)
                    << "generation went backwards";
                lastGeneration = snap->generation;
                const std::uint64_t first = csrChecksum(snap->graph);
                // Real work between the checksums so a mutating writer
                // would have time to corrupt a non-isolated reader.
                edgeweight sink = 0.0;
                const count bound = snap->graph.upperNodeIdBound();
                for (node v = 0; v < bound; ++v) {
                    sink += snap->graph.volume(v);
                }
                EXPECT_GE(sink, 0.0);
                EXPECT_EQ(csrChecksum(snap->graph), first)
                    << "pinned snapshot changed under a concurrent writer";
                pinsChecked.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    writer.join();
    for (std::thread& t : readers) t.join();
    EXPECT_GT(pinsChecked.load(), 0u);

    // Replay the recorded batches sequentially through the oracle.
    OracleGraph oracle(base, true);
    for (const EdgeBatch& batch : applied) oracle.applyPermissive(batch);
    expectCsrIdentical(engine.pin()->graph, oracle.freeze());
}

// --- incremental detection -------------------------------------------------

TEST(StreamingDetect, PlmSingleEdgeBatchStaysLocal) {
    Random::setSeed(710);
    PlantedPartitionGenerator gen(5000, 50, 0.3, 0.001);
    Graph g = gen.generate();
    StreamingGraph engine(g);

    StreamingPlm incremental;
    incremental.initialize(engine.pin()->graph);
    const double qBefore = Modularity().getQuality(
        incremental.communities(), engine.pin()->graph);

    // Insert one missing intra-block edge (blocks are contiguous in the
    // planted layout, so scan node 0's block for an absent partner).
    node partner = none;
    for (node v = 1; v < 100; ++v) {
        if (!csrEdgeWeight(engine.pin()->graph, 0, v).has_value()) {
            partner = v;
            break;
        }
    }
    ASSERT_NE(partner, none);
    EdgeBatch batch;
    batch.insert(0, partner);
    const BatchResult result = engine.apply(batch);

    const SnapshotPtr snap = engine.pin();
    incremental.applyBatch(snap->graph, result.touched);
    EXPECT_GT(incremental.lastReactivated(), 0u);
    // The acceptance metric: a perturbation this small must re-activate a
    // vanishing fraction of the graph, not trigger global re-detection.
    EXPECT_LT(incremental.lastReactivated(),
              snap->graph.upperNodeIdBound() / 10);
    EXPECT_TRUE(incremental.communities().isComplete());
    const double qAfter =
        Modularity().getQuality(incremental.communities(), snap->graph);
    EXPECT_GT(qAfter, qBefore - 0.02);
}

TEST(StreamingDetect, PlmTracksFromScratchQualityUnderChurn) {
    Random::setSeed(711);
    PlantedPartitionGenerator gen(2000, 20, 0.25, 0.003);
    Graph g = gen.generate();
    StreamingGraph engine(g);

    StreamingPlm incremental;
    incremental.initialize(engine.pin()->graph);

    StreamWorkloadConfig cfg;
    cfg.nodes = 2000;
    cfg.opsPerBatch = 200;
    cfg.seed = 712;
    const StreamWorkload workload(cfg);
    for (std::uint64_t i = 0; i < 5; ++i) {
        const EdgeBatch batch = workload.batch(i, engine.pin()->graph);
        const BatchResult result =
            engine.apply(batch, StreamApplyMode::Permissive);
        if (result.touched.empty()) continue;
        incremental.applyBatch(engine.pin()->graph, result.touched);
    }

    const SnapshotPtr final_ = engine.pin();
    Random::setSeed(713);
    const Partition fromScratch = Plm().runFrozen(final_->graph);
    const double qIncremental =
        Modularity().getQuality(incremental.communities(), final_->graph);
    const double qScratch =
        Modularity().getQuality(fromScratch, final_->graph);
    EXPECT_TRUE(incremental.communities().isComplete());
    EXPECT_GT(qIncremental, qScratch - 0.05);
}

TEST(StreamingDetect, PlmSingleThreadedRunsAreIdentical) {
    // With one thread the whole incremental pipeline is deterministic:
    // same seed, same batches, same partition — element for element.
    const int saved = Parallel::maxThreads();
    Parallel::setThreads(1);

    auto run = [] {
        Random::setSeed(714);
        PlantedPartitionGenerator gen(800, 8, 0.25, 0.004);
        Graph g = gen.generate();
        StreamingGraph engine(g);
        StreamingPlm incremental;
        Random::setSeed(715);
        incremental.initialize(engine.pin()->graph);

        StreamWorkloadConfig cfg;
        cfg.nodes = 800;
        cfg.opsPerBatch = 120;
        cfg.seed = 716;
        const StreamWorkload workload(cfg);
        for (std::uint64_t i = 0; i < 4; ++i) {
            const BatchResult result =
                engine.apply(workload.batch(i, engine.pin()->graph),
                             StreamApplyMode::Permissive);
            if (result.touched.empty()) continue;
            incremental.applyBatch(engine.pin()->graph, result.touched);
        }
        return incremental.communities().vector();
    };

    const std::vector<node> first = run();
    const std::vector<node> second = run();
    Parallel::setThreads(saved);
    EXPECT_EQ(first, second);
}

namespace {

/// StreamingPlm::applyBatch with a compaction before and after the sweep,
/// replayed through the public API: grow with fresh ids and compact,
/// reserve the split-off range [k, k + bound), run the seeded move phase
/// from the touched nodes that have a row, compact.
void twoCompactionReplay(Partition& zeta, const CsrGraph& g,
                         const std::vector<node>& touched,
                         const StreamingPlmConfig& config) {
    const count bound = g.upperNodeIdBound();
    const count oldSize = zeta.numberOfElements();
    if (bound > oldSize) {
        Partition grown(bound);
        node next = zeta.upperBound();
        for (node v = 0; v < oldSize; ++v) grown.set(v, zeta[v]);
        for (count v = oldSize; v < bound; ++v) {
            grown.set(static_cast<node>(v), next++);
        }
        grown.setUpperBound(next);
        zeta = std::move(grown);
    }
    const count k = zeta.compact();
    zeta.setUpperBound(static_cast<node>(k + bound));

    const std::vector<grapr::index>& offsets = g.offsets();
    std::vector<node> frontier;
    for (const node v : touched) {
        if (v < bound && offsets[v] != offsets[v + 1]) frontier.push_back(v);
    }
    std::sort(frontier.begin(), frontier.end());
    frontier.erase(std::unique(frontier.begin(), frontier.end()),
                   frontier.end());
    count evaluated = 0;
    Plm::movePhaseSeeded(g, zeta, config.gamma, config.maxSweeps, frontier,
                         static_cast<node>(k), &evaluated, config.minGain);
    zeta.compact();
}

} // namespace

TEST(StreamingDetect, PlmMatchesTwoCompactionReplaySingleThreaded) {
    // One compaction per batch is exact only because the partition stays
    // dense between batches; the replay pins that against the schedule
    // that also compacted before the sweep.
    const int saved = Parallel::maxThreads();
    Parallel::setThreads(1);

    Random::setSeed(740);
    const count n = 600;
    StreamingGraph engine(
        PlantedPartitionGenerator(n, 12, 0.2, 0.004).generate());
    StreamingPlm incremental;
    Random::setSeed(741);
    incremental.initialize(engine.pin()->graph);
    Partition replay = incremental.communities();

    StreamWorkloadConfig cfg;
    cfg.nodes = n + 20; // inserts past the bound grow the graph
    cfg.opsPerBatch = 80;
    cfg.insertFraction = 0.5;
    cfg.selfLoopFraction = 0.05;
    cfg.seed = 742;
    const StreamWorkload workload(cfg);
    count removed = 0;
    count selfLoops = 0;
    for (std::uint64_t i = 0; i < 10; ++i) {
        SCOPED_TRACE(i);
        const EdgeBatch batch = workload.batch(i, engine.pin()->graph);
        for (const EdgeOp& op : batch.ops()) {
            if (op.kind == EdgeOp::Kind::Insert && op.u == op.v) ++selfLoops;
        }
        const BatchResult result =
            engine.apply(batch, StreamApplyMode::Permissive);
        removed += result.removed;
        const SnapshotPtr snap = engine.pin();
        incremental.applyBatch(snap->graph, result.touched);
        twoCompactionReplay(replay, snap->graph, result.touched,
                            StreamingPlmConfig{});

        const Partition& zeta = incremental.communities();
        EXPECT_EQ(zeta.vector(), replay.vector());
        EXPECT_EQ(zeta.upperBound(), replay.upperBound());
        EXPECT_EQ(static_cast<count>(zeta.upperBound()),
                  zeta.numberOfSubsets());
        if (HasFailure()) break; // later batches only repeat the diff
    }
    Parallel::setThreads(saved);
    EXPECT_GT(engine.pin()->graph.upperNodeIdBound(), n);
    EXPECT_GT(removed, 0u);
    EXPECT_GT(selfLoops, 0u);
}

TEST(StreamingDetect, PlpUntouchedRegionsAreFixpoints) {
    Random::setSeed(720);
    Graph g = SimpleGraphs::cliqueChain(8, 8); // 8 cliques of 8 nodes
    StreamingGraph engine(g);

    StreamingPlp incremental;
    incremental.initialize(engine.pin()->graph);

    // Strengthen the bridge between cliques 0 and 1; cliques 4..7 are far
    // outside the propagation frontier and their grouping must not churn —
    // the sticky-label rule makes converged regions fixpoints. Community
    // IDS are renamed by the per-batch compaction, so assert structure,
    // not raw labels.
    EdgeBatch batch;
    batch.insert(0, 9);
    batch.insert(1, 10);
    const BatchResult result =
        engine.apply(batch, StreamApplyMode::Permissive);
    incremental.applyBatch(engine.pin()->graph, result.touched);

    EXPECT_GT(incremental.lastReactivated(), 0u);
    EXPECT_LT(incremental.lastReactivated(), 64u); // stayed local
    const std::vector<node>& after = incremental.labels().vector();
    for (node c = 4; c < 8; ++c) {
        const node anchor = c * 8;
        for (node v = anchor + 1; v < anchor + 8; ++v) {
            EXPECT_EQ(after[v], after[anchor])
                << "far clique " << c << " split at node " << v;
        }
        if (c > 4) {
            EXPECT_NE(after[anchor], after[32])
                << "far cliques " << c << " and 4 merged";
        }
    }
}

TEST(StreamingDetect, PlpTracksFromScratchQualityUnderChurn) {
    Random::setSeed(721);
    PlantedPartitionGenerator gen(1500, 15, 0.25, 0.004);
    Graph g = gen.generate();
    StreamingGraph engine(g);

    StreamingPlp incremental;
    incremental.initialize(engine.pin()->graph);

    StreamWorkloadConfig cfg;
    cfg.nodes = 1500;
    cfg.opsPerBatch = 150;
    cfg.seed = 722;
    const StreamWorkload workload(cfg);
    for (std::uint64_t i = 0; i < 5; ++i) {
        const BatchResult result =
            engine.apply(workload.batch(i, engine.pin()->graph),
                         StreamApplyMode::Permissive);
        if (result.touched.empty()) continue;
        incremental.applyBatch(engine.pin()->graph, result.touched);
    }

    const SnapshotPtr final_ = engine.pin();
    Random::setSeed(723);
    const Partition fromScratch = Plp().runFrozen(final_->graph);
    const double qIncremental =
        Modularity().getQuality(incremental.labels(), final_->graph);
    const double qScratch =
        Modularity().getQuality(fromScratch, final_->graph);
    EXPECT_TRUE(incremental.labels().isComplete());
    EXPECT_GT(qIncremental, qScratch - 0.05);
}

// --- batch-level behaviours of both incremental detectors ------------------

namespace {

/// Two 6-cliques (nodes 0-5 and 6-11) with no edge between them.
Graph twoCliques() {
    Graph g(12, false);
    for (node u = 0; u < 6; ++u) {
        for (node v = u + 1; v < 6; ++v) {
            g.addEdge(u, v);
            g.addEdge(u + 6, v + 6);
        }
    }
    return g;
}

/// Applies `batch` to `engine` and re-detects with both detectors.
void applyToBoth(StreamingGraph& engine, const EdgeBatch& batch,
                 StreamingPlm& plm, StreamingPlp& plp,
                 StreamApplyMode mode = StreamApplyMode::Strict) {
    const BatchResult result = engine.apply(batch, mode);
    ASSERT_FALSE(result.touched.empty());
    const SnapshotPtr snap = engine.pin();
    plm.applyBatch(snap->graph, result.touched);
    plp.applyBatch(snap->graph, result.touched);
}

} // namespace

TEST(StreamingDetect, ApplyBeforeInitializeThrows) {
    Graph g(4, false);
    g.addEdge(0, 1);
    const CsrGraph csr(g);
    const std::vector<node> touched{0, 1};
    StreamingPlm plm;
    EXPECT_THROW(plm.applyBatch(csr, touched), std::runtime_error);
    StreamingPlp plp;
    EXPECT_THROW(plp.applyBatch(csr, touched), std::runtime_error);
}

TEST(StreamingDetect, InsertionMergesTwoCliques) {
    Random::setSeed(161);
    StreamingGraph engine(twoCliques());
    StreamingPlm plm;
    StreamingPlp plp;
    plm.initialize(engine.pin()->graph);
    plp.initialize(engine.pin()->graph);
    ASSERT_NE(plm.communities()[0], plm.communities()[6]);
    ASSERT_NE(plp.labels()[0], plp.labels()[6]);

    // Wire the cliques into one 12-clique: one community is optimal.
    EdgeBatch batch;
    for (node u = 0; u < 6; ++u) {
        for (node v = 6; v < 12; ++v) batch.insert(u, v);
    }
    applyToBoth(engine, batch, plm, plp);
    EXPECT_EQ(plm.communities()[0], plm.communities()[6]);
    EXPECT_EQ(plp.labels()[0], plp.labels()[6]);
}

TEST(StreamingDetect, DeletingTheBridgeSplitsCliques) {
    for (const count size : {6u, 8u}) {
        SCOPED_TRACE(size);
        Random::setSeed(162 + size);
        StreamingGraph engine(SimpleGraphs::cliqueChain(2, size));
        StreamingPlm plm;
        StreamingPlp plp;
        plm.initialize(engine.pin()->graph);
        plp.initialize(engine.pin()->graph);

        const auto last = static_cast<node>(size - 1);
        const auto first = static_cast<node>(size);
        EdgeBatch bridge;
        bridge.remove(last, first);
        applyToBoth(engine, bridge, plm, plp);
        EXPECT_NE(plm.communities()[0], plm.communities()[first]);
        EXPECT_NE(plp.labels()[0], plp.labels()[first]);
        for (node v = 1; v < first; ++v) {
            EXPECT_EQ(plm.communities()[v], plm.communities()[0]);
            EXPECT_EQ(plp.labels()[v], plp.labels()[0]);
        }

        // Hollow out the second clique entirely (Permissive: the batch
        // need not know which edges remain). Its members keep valid
        // community ids instead of indexing past the reserved range.
        EdgeBatch hollow;
        for (node u = first; u < 2 * first; ++u) {
            for (node v = u + 1; v < 2 * first; ++v) hollow.remove(u, v);
        }
        const BatchResult result =
            engine.apply(hollow, StreamApplyMode::Permissive);
        const SnapshotPtr snap = engine.pin();
        plm.applyBatch(snap->graph, result.touched);
        EXPECT_TRUE(plm.communities().isComplete());
        EXPECT_GE(Modularity().getQuality(plm.communities(), snap->graph),
                  -0.5);
    }
}

TEST(StreamingDetect, NodeInsertedPastBoundJoinsItsClique) {
    Random::setSeed(166);
    StreamingGraph engine(SimpleGraphs::clique(6));
    StreamingPlm plm;
    StreamingPlp plp;
    plm.initialize(engine.pin()->graph);
    plp.initialize(engine.pin()->graph);

    // Node 6 does not exist yet: the batch grows the graph and attaches
    // it with two links into the clique.
    EdgeBatch batch;
    batch.insert(6, 0);
    batch.insert(6, 1);
    applyToBoth(engine, batch, plm, plp);
    ASSERT_EQ(plm.communities().numberOfElements(), 7u);
    ASSERT_EQ(plp.labels().numberOfElements(), 7u);
    EXPECT_EQ(plm.communities()[6], plm.communities()[0]);
    EXPECT_EQ(plp.labels()[6], plp.labels()[0]);
}

TEST(StreamingDetect, PlmReweightMergesWeightedGroups) {
    Graph g(4, true);
    g.addEdge(0, 1, 4.0);
    g.addEdge(2, 3, 4.0);
    g.addEdge(1, 2, 0.5);
    Random::setSeed(216);
    StreamingGraph engine(g);
    StreamingPlm plm;
    plm.initialize(engine.pin()->graph);
    ASSERT_NE(plm.communities()[0], plm.communities()[2]);

    // Strengthen the middle edge (remove + insert in one batch is a
    // reweight) until the two groups belong together.
    EdgeBatch batch;
    batch.remove(1, 2);
    batch.insert(1, 2, 20.5);
    const BatchResult result = engine.apply(batch);
    ASSERT_EQ(result.reweighted, 1u);
    plm.applyBatch(engine.pin()->graph, result.touched);
    EXPECT_EQ(plm.communities()[1], plm.communities()[2]);
}

TEST(StreamingDetect, PlmNodeSplitsOffIntoReservedCommunity) {
    // Two 8-cliques (0-7, 8-15); node 16 hangs off the first clique by
    // four links, so the cold run puts it there.
    Graph g(17, false);
    for (node u = 0; u < 8; ++u) {
        for (node v = u + 1; v < 8; ++v) {
            g.addEdge(u, v);
            g.addEdge(u + 8, v + 8);
        }
    }
    for (node v = 0; v < 4; ++v) g.addEdge(16, v);
    Random::setSeed(230);
    StreamingGraph engine(g);
    StreamingPlm plm;
    plm.initialize(engine.pin()->graph);
    ASSERT_EQ(plm.communities()[16], plm.communities()[0]);

    // Leave node 16 one link into each clique plus a self-loop: neither
    // clique is worth joining any more, and the only move that gains is
    // into the empty community reserved for it.
    EdgeBatch batch;
    batch.remove(16, 1);
    batch.remove(16, 2);
    batch.remove(16, 3);
    batch.insert(16, 8);
    batch.insert(16, 16);
    const BatchResult result = engine.apply(batch);
    const SnapshotPtr snap = engine.pin();
    plm.applyBatch(snap->graph, result.touched);
    const Partition& zeta = plm.communities();
    EXPECT_NE(zeta[16], zeta[0]);
    EXPECT_NE(zeta[16], zeta[8]);
    EXPECT_NE(zeta[0], zeta[8]);

    // A cold run on the same snapshot agrees.
    Random::setSeed(231);
    const Partition cold = Plm().runFrozen(snap->graph);
    EXPECT_NE(cold[16], cold[0]);
    EXPECT_NE(cold[16], cold[8]);
}

TEST(StreamingDetect, PlpSolutionStaysValidUnderChurn) {
    for (const std::uint64_t seed : {71u, 72u, 73u}) {
        SCOPED_TRACE(seed);
        Random::setSeed(seed);
        StreamingGraph engine(
            PlantedPartitionGenerator(400, 8, 0.25, 0.005).generate());
        StreamingPlp plp;
        plp.initialize(engine.pin()->graph);

        // Four batches of 25 random pair toggles: remove the edge if the
        // snapshot has it, insert it otherwise.
        for (int batchIndex = 0; batchIndex < 4; ++batchIndex) {
            const SnapshotPtr before = engine.pin();
            EdgeBatch batch;
            for (int step = 0; step < 25; ++step) {
                const auto u = static_cast<node>(Random::integer(400));
                const auto v = static_cast<node>(Random::integer(400));
                if (u == v) continue;
                if (csrEdgeWeight(before->graph, u, v).has_value()) {
                    batch.remove(u, v);
                } else {
                    batch.insert(u, v);
                }
            }
            const BatchResult result =
                engine.apply(batch, StreamApplyMode::Permissive);
            if (result.touched.empty()) continue;
            plp.applyBatch(engine.pin()->graph, result.touched);
        }

        const SnapshotPtr final_ = engine.pin();
        EXPECT_TRUE(plp.labels().isComplete());
        const double q = Modularity().getQuality(plp.labels(), final_->graph);
        EXPECT_LE(q, 1.0);
        EXPECT_GT(q, 0.3); // structure survives mild churn
    }
}
