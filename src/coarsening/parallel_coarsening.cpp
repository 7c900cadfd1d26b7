#include "coarsening/parallel_coarsening.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>

#include "support/parallel.hpp"

namespace grapr {

namespace {

/// Deterministic compaction: coarse ids ordered by ascending community id.
std::pair<std::vector<node>, count> compactMap(const CsrGraph& g,
                                               const Partition& zeta) {
    const count idBound = zeta.upperBound();
    require(idBound > 0, "coarsening: partition upper bound is zero");
    std::vector<std::uint8_t> used(idBound, 0);
    g.forNodes([&](node v) {
        const node c = zeta[v];
        require(c != none && c < idBound, "coarsening: node unassigned");
        used[c] = 1;
    });
    std::vector<node> remap(idBound, none);
    node next = 0;
    for (count c = 0; c < idBound; ++c) {
        if (used[c]) remap[c] = next++;
    }
    std::vector<node> fineToCoarse(g.upperNodeIdBound(), none);
    g.parallelForNodes([&](node v) { fineToCoarse[v] = remap[zeta[v]]; });
    return {std::move(fineToCoarse), next};
}

/// Parallel strategy. Bucket the fine nodes by coarse id, aggregate each
/// bucket's rows in a per-thread scratch accumulator, and write the sorted
/// coarse rows straight into CSR arrays laid out by a prefix sum.
CsrGraph aggregateParallel(const CsrGraph& g,
                           const std::vector<node>& fineToCoarse,
                           count coarseNodes) {
    // Bucket the fine nodes by coarse id: counting sort with a prefix sum
    // over the community sizes, then a parallel scatter. Buckets are
    // sorted ascending afterwards so the aggregation order below — and
    // with it the coarse graph — is independent of the thread count.
    std::vector<count> rowStart(coarseNodes, 0);
    g.parallelForNodes([&](node v) {
#pragma omp atomic
        ++rowStart[fineToCoarse[v]];
    });
    const count memberCount = Parallel::prefixSum(rowStart);
    std::vector<node> members(memberCount);
    {
        std::vector<std::atomic<count>> cursor(coarseNodes);
        for (count c = 0; c < coarseNodes; ++c) {
            cursor[c].store(rowStart[c], std::memory_order_relaxed);
        }
        g.parallelForNodes([&](node v) {
            const count slot = cursor[fineToCoarse[v]].fetch_add(
                1, std::memory_order_relaxed);
            members[slot] = v;
        });
    }
    auto bucketEnd = [&](count c) {
        return c + 1 < coarseNodes ? rowStart[c + 1] : memberCount;
    };
    const auto scn = static_cast<std::int64_t>(coarseNodes);
#pragma omp parallel for default(none)                                       \
    shared(members, rowStart, bucketEnd, scn) schedule(guided)
    for (std::int64_t c = 0; c < scn; ++c) {
        const auto cc = static_cast<count>(c);
        std::sort(members.begin() + static_cast<std::ptrdiff_t>(rowStart[cc]),
                  members.begin() + static_cast<std::ptrdiff_t>(bucketEnd(cc)));
    }

    // One aggregation per coarse node: scan the members' fine rows into a
    // scratch accumulator keyed by coarse neighbor id. Intra-community
    // edges land on the coarse self-loop; the `v < u` guard counts each
    // one from a single endpoint (fine self-loops pass, stored once).
    ScratchPool scratch(coarseNodes);
    auto aggregate = [&](count c, SparseAccumulator& acc) {
        acc.clear();
        const count end = bucketEnd(c);
        for (count i = rowStart[c]; i < end; ++i) {
            const node u = members[i];
            g.forNeighborsOf(u, [&](node v, edgeweight w) {
                const node cv = fineToCoarse[v];
                if (cv == c && v < u) return;
                acc.add(cv, w);
            });
        }
    };

    // Pass 1: coarse row lengths -> prefix sum -> CSR offsets.
    std::vector<count> rowLength(coarseNodes, 0);
#pragma omp parallel for default(none)                                       \
    shared(scratch, aggregate, rowLength, scn) schedule(guided)
    for (std::int64_t c = 0; c < scn; ++c) {
        SparseAccumulator& acc = scratch.local();
        aggregate(static_cast<count>(c), acc);
        rowLength[static_cast<count>(c)] =
            static_cast<count>(acc.touched().size());
    }
    const count entries = Parallel::prefixSum(rowLength);
    std::vector<index> offsets(coarseNodes + 1);
    for (count c = 0; c < coarseNodes; ++c) {
        offsets[c] = static_cast<index>(rowLength[c]);
    }
    offsets[coarseNodes] = static_cast<index>(entries);

    // Pass 2: re-aggregate and write each row, sorted by coarse neighbor
    // id, directly into its CSR slice.
    std::vector<node> neighbors(entries);
    std::vector<edgeweight> weights(entries);
#pragma omp parallel for default(none)                                       \
    shared(scratch, aggregate, offsets, neighbors, weights, scn)             \
    schedule(guided)
    for (std::int64_t c = 0; c < scn; ++c) {
        const auto cc = static_cast<count>(c);
        SparseAccumulator& acc = scratch.local();
        aggregate(cc, acc);
        std::vector<index> row(acc.touched());
        std::sort(row.begin(), row.end());
        index slot = offsets[cc];
        for (index key : row) {
            neighbors[slot] = static_cast<node>(key);
            weights[slot] = acc[key];
            ++slot;
        }
    }
    return CsrGraph(std::move(offsets), std::move(neighbors),
                    std::move(weights), /*weighted=*/true);
}

/// Sequential strategy: one hash-aggregation sweep over the fine edges,
/// keyed by the packed (lower, higher) coarse id pair in an open-addressing
/// table sized so every fine edge could be its own coarse edge at half
/// load. The distinct coarse edges are then scattered into both endpoint
/// rows in key order, which visits row r's lower neighbors (keys (y, r),
/// y < r) before its own keys (r, x), each ascending: rows come out sorted.
CsrGraph aggregateSequential(const CsrGraph& g,
                             const std::vector<node>& fineToCoarse,
                             count coarseNodes) {
    constexpr std::uint64_t kEmpty = ~std::uint64_t{0}; // coarse ids < none
    int bits = 1;
    while ((std::size_t{1} << bits) < 2 * g.numberOfEdges() + 2) ++bits;
    std::vector<std::uint64_t> keys(std::size_t{1} << bits, kEmpty);
    std::vector<edgeweight> sums(keys.size(), 0.0);
    g.forEdges([&](node u, node v, edgeweight w) {
        const node cu = std::min(fineToCoarse[u], fineToCoarse[v]);
        const node cv = std::max(fineToCoarse[u], fineToCoarse[v]);
        const std::uint64_t key = (static_cast<std::uint64_t>(cu) << 32) | cv;
        auto slot = static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >>
                                             (64 - bits));
        while (keys[slot] != kEmpty && keys[slot] != key) {
            slot = (slot + 1) & (keys.size() - 1);
        }
        keys[slot] = key;
        sums[slot] += w;
    });
    std::vector<std::pair<std::uint64_t, edgeweight>> entries;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (keys[i] != kEmpty) entries.emplace_back(keys[i], sums[i]);
    }
    std::sort(entries.begin(), entries.end());

    auto unpack = [](std::uint64_t key) {
        return std::pair<node, node>(static_cast<node>(key >> 32),
                                     static_cast<node>(key & 0xffffffffULL));
    };
    std::vector<index> offsets(coarseNodes + 1, 0);
    for (const auto& entry : entries) {
        const auto [cu, cv] = unpack(entry.first);
        ++offsets[cu + 1];
        if (cu != cv) ++offsets[cv + 1];
    }
    for (count c = 0; c < coarseNodes; ++c) offsets[c + 1] += offsets[c];
    std::vector<node> neighbors(offsets[coarseNodes]);
    std::vector<edgeweight> weights(offsets[coarseNodes]);
    std::vector<index> cursor(offsets.begin(), offsets.end() - 1);
    auto append = [&](node row, node neighbor, edgeweight w) {
        neighbors[cursor[row]] = neighbor;
        weights[cursor[row]++] = w;
    };
    for (const auto& [key, w] : entries) {
        const auto [cu, cv] = unpack(key);
        append(cu, cv, w);
        if (cu != cv) append(cv, cu, w);
    }
    return CsrGraph(std::move(offsets), std::move(neighbors),
                    std::move(weights), /*weighted=*/true);
}

} // namespace

CsrCoarseningResult ParallelPartitionCoarsening::run(
    const CsrGraph& g, const Partition& zeta) const {
    auto [fineToCoarse, coarseNodes] = compactMap(g, zeta);
    CsrGraph coarse =
        parallel_ ? aggregateParallel(g, fineToCoarse, coarseNodes)
                  : aggregateSequential(g, fineToCoarse, coarseNodes);
    return {std::move(coarse), std::move(fineToCoarse)};
}

} // namespace grapr
