// Unit tests for Partition and UnionFind.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "structures/partition.hpp"
#include "structures/union_find.hpp"

using namespace grapr;

TEST(Partition, SingletonsAndAllToOne) {
    Partition p(5);
    p.allToSingletons();
    EXPECT_EQ(p.upperBound(), 5u);
    EXPECT_EQ(p.numberOfSubsets(), 5u);
    for (node v = 0; v < 5; ++v) EXPECT_EQ(p[v], v);
    p.allToOne();
    EXPECT_EQ(p.numberOfSubsets(), 1u);
    EXPECT_EQ(p.upperBound(), 1u);
}

TEST(Partition, UnassignedByDefault) {
    Partition p(3);
    EXPECT_EQ(p[0], none);
    EXPECT_FALSE(p.isComplete());
    p.set(0, 1);
    p.set(1, 1);
    p.set(2, 0);
    EXPECT_TRUE(p.isComplete());
}

TEST(Partition, MergeSubsets) {
    Partition p(4);
    p.allToSingletons();
    const node survivor = p.mergeSubsets(1, 3);
    EXPECT_EQ(survivor, 1u);
    EXPECT_TRUE(p.inSameSubset(1, 3));
    EXPECT_FALSE(p.inSameSubset(0, 1));
    EXPECT_EQ(p.numberOfSubsets(), 3u);
    EXPECT_EQ(p.mergeSubsets(2, 2), 2u); // self-merge is a no-op
}

TEST(Partition, CompactAscendingOrder) {
    Partition p(4);
    p.set(0, 100);
    p.set(1, 7);
    p.set(2, 100);
    p.set(3, 42);
    p.setUpperBound(101);
    EXPECT_EQ(p.compact(), 3u);
    EXPECT_EQ(p.upperBound(), 3u);
    EXPECT_EQ(p[1], 0u);  // old 7 -> 0
    EXPECT_EQ(p[3], 1u);  // old 42 -> 1
    EXPECT_EQ(p[0], 2u);  // old 100 -> 2
    EXPECT_EQ(p[2], 2u);
}

TEST(Partition, CompactPreservesNone) {
    Partition p(3);
    p.set(0, 9);
    p.set(2, 9);
    p.setUpperBound(10);
    p.compact();
    EXPECT_EQ(p[1], none);
    EXPECT_EQ(p.upperBound(), 1u);
}

namespace {

/// Reference compaction by sorting: collect the distinct ids, sort them,
/// and map each label to its rank.
std::vector<node> sortedRankCompaction(const std::vector<node>& labels) {
    std::vector<node> ids;
    for (const node c : labels) {
        if (c != none) ids.push_back(c);
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    std::vector<node> out = labels;
    for (node& c : out) {
        if (c == none) continue;
        c = static_cast<node>(
            std::lower_bound(ids.begin(), ids.end(), c) - ids.begin());
    }
    return out;
}

/// Compacts `p` and checks it against the reference: identical labels,
/// k == upperBound(), and numberOfSubsets() == k before and after.
void expectCompactionMatchesReference(Partition p) {
    const std::vector<node> expected = sortedRankCompaction(p.vector());
    const count before = p.numberOfSubsets();
    const count k = p.compact();
    EXPECT_EQ(p.vector(), expected);
    EXPECT_EQ(k, static_cast<count>(p.upperBound()));
    EXPECT_EQ(p.numberOfSubsets(), k);
    EXPECT_EQ(before, k);
}

} // namespace

TEST(Partition, CompactMatchesSortedReference) {
    expectCompactionMatchesReference(Partition());
    expectCompactionMatchesReference(Partition(17)); // all none
    Partition dense(6); // already compact: must come back unchanged
    for (node v = 0; v < 6; ++v) dense.set(v, v / 2);
    dense.setUpperBound(3);
    expectCompactionMatchesReference(dense);

    std::mt19937_64 rng(7331);
    for (int trial = 0; trial < 200; ++trial) {
        SCOPED_TRACE(trial);
        const count n = 1 + rng() % 300;
        // Id spaces from dense (a few ids) to sparse (ids up to 50n).
        const node idSpace = static_cast<node>(1 + rng() % (50 * n));
        const auto bound = static_cast<node>(rng() % (idSpace + 1));
        Partition p(n);
        for (node v = 0; v < n; ++v) {
            if (rng() % 8 == 0) continue; // stays none
            p.set(v, static_cast<node>(rng() % idSpace));
        }
        // Ids >= upperBound() are accepted, not only those below it.
        p.setUpperBound(bound);
        expectCompactionMatchesReference(p);
    }
}

TEST(Partition, SubsetSizesAndSubsets) {
    Partition p(5);
    p.set(0, 1);
    p.set(1, 0);
    p.set(2, 1);
    p.set(3, 1);
    p.set(4, 0);
    p.setUpperBound(2);
    const auto sizes = p.subsetSizes();
    ASSERT_EQ(sizes.size(), 2u);
    EXPECT_EQ(sizes[0], 2u);
    EXPECT_EQ(sizes[1], 3u);
    const auto subsets = p.subsets();
    EXPECT_EQ(subsets.at(1), (std::vector<node>{0, 2, 3}));
}

TEST(Partition, SubsetSizesRejectsIdOverflow) {
    Partition p(2);
    p.set(0, 5);
    p.setUpperBound(2);
    EXPECT_THROW(p.subsetSizes(), std::runtime_error);
}

TEST(Partition, EqualityOperator) {
    Partition a(3), b(3);
    a.allToSingletons();
    b.allToSingletons();
    EXPECT_EQ(a, b);
    b.set(2, 0);
    EXPECT_NE(a, b);
}

TEST(UnionFind, BasicUnions) {
    UnionFind uf(6);
    EXPECT_EQ(uf.numberOfSets(), 6u);
    uf.unite(0, 1);
    uf.unite(2, 3);
    EXPECT_EQ(uf.numberOfSets(), 4u);
    EXPECT_TRUE(uf.connected(0, 1));
    EXPECT_FALSE(uf.connected(1, 2));
    uf.unite(1, 3);
    EXPECT_TRUE(uf.connected(0, 2));
    EXPECT_EQ(uf.numberOfSets(), 3u);
}

TEST(UnionFind, UniteIdempotent) {
    UnionFind uf(3);
    uf.unite(0, 1);
    const count sets = uf.numberOfSets();
    uf.unite(1, 0);
    EXPECT_EQ(uf.numberOfSets(), sets);
}

TEST(UnionFind, ToVectorGivesRepresentatives) {
    UnionFind uf(5);
    uf.unite(0, 4);
    uf.unite(1, 2);
    const auto reps = uf.toVector();
    EXPECT_EQ(reps[0], reps[4]);
    EXPECT_EQ(reps[1], reps[2]);
    EXPECT_NE(reps[0], reps[1]);
    EXPECT_EQ(reps[3], 3u);
}

TEST(UnionFind, LongChainPathCompression) {
    const count n = 10000;
    UnionFind uf(n);
    for (node v = 0; v + 1 < n; ++v) uf.unite(v, v + 1);
    EXPECT_EQ(uf.numberOfSets(), 1u);
    EXPECT_TRUE(uf.connected(0, n - 1));
}
