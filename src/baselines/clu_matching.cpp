#include "baselines/clu_matching.hpp"

#include <vector>

#include "coarsening/parallel_coarsening.hpp"
#include "coarsening/projector.hpp"
#include "structures/union_find.hpp"
#include "support/random.hpp"

namespace grapr {

Partition MatchingAgglomeration::runFrozen(const CsrGraph& g) {
    // The hierarchy of contractions: maps[i] is the fine-to-coarse map of
    // round i. The final solution is the identity on the coarsest graph
    // projected back through the stack.
    std::vector<std::vector<node>> hierarchy;
    CsrGraph current = g; // unweighted rows read as weight 1.0

    for (count round = 0; round < maxRounds_; ++round) {
        const count bound = current.upperNodeIdBound();
        const double omegaE = current.totalEdgeWeight();
        if (omegaE <= 0.0) break;

        std::vector<double> volume(bound, 0.0);
        current.parallelForNodes(
            [&](node v) { volume[v] = current.volume(v); });

        // Phase 1: every node points to the neighbor whose contraction
        // yields the highest positive modularity gain; ties are broken
        // uniformly at random — deterministic ties starve the matching on
        // regular structures like street meshes, where every node would
        // point at its smallest-id neighbor. Each tied neighbor v gets a
        // key hashed from v and a salt drawn from the stream of (round, u);
        // the smallest key wins. Neither the scoring thread nor the
        // neighbor order enters, so the matching is the same for every
        // thread count.
        std::vector<node> candidate(bound, none);
        current.balancedParallelForNodes([&](node u) {
            const std::uint64_t salt = Random::forStream((round << 32) | u)();
            node best = none;
            double bestGain = 0.0;
            std::uint64_t bestKey = 0;
            current.forNeighborsOf(u, [&](node v, edgeweight w) {
                if (v == u) return;
                const double gain =
                    w / omegaE -
                    gamma_ * (volume[u] * volume[v]) /
                        (2.0 * omegaE * omegaE);
                if (gain <= 0.0 || gain < bestGain) return;
                const std::uint64_t key = SplitMix64(salt ^ v)();
                if (gain > bestGain || key < bestKey) {
                    bestGain = gain;
                    best = v;
                    bestKey = key;
                }
            });
            candidate[u] = best;
        });

        // Phase 2: grouping via union-find (chains and candidate cycles
        // collapse safely). Mutual candidates form matched pairs (handshake
        // matching — the CEL behaviour). With star adaptation, satellites
        // whose chosen hub did not reciprocate are matched pairwise with
        // each other — the CLU_TBB remedy for star-like structures where
        // plain matchings leave almost every satellite unmatched.
        UnionFind groupSets(bound);
        std::vector<node> pendingSatellite(bound, none);
        count merges = 0;
        current.forNodes([&](node u) {
            const node v = candidate[u];
            if (v == none) return;
            if (candidate[v] == u) {
                if (u < v) {
                    groupSets.unite(u, v);
                    ++merges;
                }
            } else if (starAdaptation_) {
                if (pendingSatellite[v] == none) {
                    pendingSatellite[v] = u;
                } else {
                    groupSets.unite(u, pendingSatellite[v]);
                    pendingSatellite[v] = none;
                    ++merges;
                }
            }
        });

        // Stop when the matching starves: a round that merges less than
        // 0.1% of the nodes signals the long tail where further rounds buy
        // nothing but full-graph sweeps (mutual-only matching hits this
        // early on hub-heavy graphs — the CEL weakness the star adaptation
        // addresses).
        if (merges == 0 || merges * 1000 < current.numberOfNodes()) break;

        Partition groups(bound);
        groups.allToSingletons();
        current.forNodes([&](node u) { groups.set(u, groupSets.find(u)); });

        ParallelPartitionCoarsening coarsener(true);
        CsrCoarseningResult coarse = coarsener.run(current, groups);
        if (coarse.coarseGraph.numberOfNodes() >= current.numberOfNodes()) {
            break;
        }
        hierarchy.push_back(std::move(coarse.fineToCoarse));
        current = std::move(coarse.coarseGraph);
    }

    // Identity on the coarsest level, projected back to g.
    Partition coarsest(current.upperNodeIdBound());
    coarsest.allToSingletons();
    Partition zeta =
        ClusteringProjector::projectThroughHierarchy(coarsest, hierarchy);
    if (zeta.numberOfElements() < g.upperNodeIdBound()) {
        // No contraction ever happened; fall back to singletons on g.
        zeta = Partition(g.upperNodeIdBound());
        zeta.allToSingletons();
    }
    zeta.setUpperBound(static_cast<node>(g.upperNodeIdBound()));
    zeta.compact();
    return zeta;
}

} // namespace grapr
