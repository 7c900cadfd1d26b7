// Ablation (§III-B implementation notes) — the PLM engineering choices:
//  * the parallel CSR coarsener vs the sequential hash aggregation it
//    replaced ("a major sequential bottleneck"), both on the frozen
//    layout PLM runs on,
//  * the resolution parameter gamma's effect on community count, the
//    paper's remedy for the resolution limit.
//
// The paper's cached-neighbor-map strategy (a std::map + lock per node,
// found slower and dropped) is represented by its replacement: the
// recompute-with-scratch strategy is the shipped one; this bench times the
// coarsening half of that engineering story.

#include <cstdio>

#include "bench_common.hpp"
#include "coarsening/parallel_coarsening.hpp"
#include "community/plm.hpp"
#include "quality/modularity.hpp"
#include "support/random.hpp"
#include "support/timer.hpp"

using namespace grapr;
using namespace grapr::bench;

int main() {
    printPlatformBanner("Ablation: PLM coarsening strategy and gamma");
    const int repetitions = quickMode() ? 1 : 3;

    const std::vector<std::string> subset = {"coPapersDBLP",
                                             "soc-LiveJournal", "uk-2002"};
    std::printf("--- coarsening strategy (full PLM run) ---\n");
    std::printf("%-22s %-12s %12s %12s\n", "network", "coarsening",
                "time[s]", "modularity");
    for (const auto& spec : replicaSuite()) {
        if (std::find(subset.begin(), subset.end(), spec.name) ==
            subset.end()) {
            continue;
        }
        const Graph g = loadReplica(spec);
        for (bool parallelCoarsening : {true, false}) {
            double totalSeconds = 0.0;
            double totalQuality = 0.0;
            for (int r = 0; r < repetitions; ++r) {
                Random::setSeed(60 + static_cast<std::uint64_t>(r));
                Plm plm(PlmConfig{.parallelCoarsening = parallelCoarsening});
                Timer timer;
                const Partition zeta = plm.run(g);
                totalSeconds += timer.elapsed();
                totalQuality += Modularity().getQuality(zeta, g);
            }
            std::printf("%-22s %-12s %12.4f %12.4f\n", spec.name.c_str(),
                        parallelCoarsening ? "parallel" : "sequential",
                        totalSeconds / repetitions,
                        totalQuality / repetitions);
            std::fflush(stdout);
        }
    }

    std::printf("--- raw coarsening phase only ---\n");
    std::printf("%-22s %-12s %12s\n", "network", "strategy", "time[s]");
    for (const auto& spec : replicaSuite()) {
        if (std::find(subset.begin(), subset.end(), spec.name) ==
            subset.end()) {
            continue;
        }
        const CsrGraph g(loadReplica(spec));
        // A realistic PLM level-one partition to coarsen by.
        Random::setSeed(61);
        Partition zeta(g.upperNodeIdBound());
        zeta.allToSingletons();
        Plm::movePhase(g, zeta, 1.0, 8, nullptr);

        for (bool parallel : {true, false}) {
            Timer timer;
            const CsrCoarseningResult result =
                ParallelPartitionCoarsening(parallel).run(g, zeta);
            std::printf("%-22s %-12s %12.4f\n", spec.name.c_str(),
                        parallel ? "parallel" : "sequential",
                        timer.elapsed());
            std::fflush(stdout);
        }
    }

    std::printf("--- neighbor-community weight strategy (full PLM run) ---\n");
    std::printf("%-22s %-12s %12s %12s\n", "network", "strategy", "time[s]",
                "modularity");
    for (const auto& spec : replicaSuite()) {
        if (std::find(subset.begin(), subset.end(), spec.name) ==
            subset.end()) {
            continue;
        }
        const Graph g = loadReplica(spec);
        for (PlmWeightStrategy strategy :
             {PlmWeightStrategy::Recompute, PlmWeightStrategy::CachedMaps}) {
            double totalSeconds = 0.0;
            double totalQuality = 0.0;
            for (int r = 0; r < repetitions; ++r) {
                Random::setSeed(63 + static_cast<std::uint64_t>(r));
                Plm plm(PlmConfig{.strategy = strategy});
                Timer timer;
                const Partition zeta = plm.run(g);
                totalSeconds += timer.elapsed();
                totalQuality += Modularity().getQuality(zeta, g);
            }
            std::printf("%-22s %-12s %12.4f %12.4f\n", spec.name.c_str(),
                        strategy == PlmWeightStrategy::Recompute
                            ? "recompute"
                            : "maps+locks",
                        totalSeconds / repetitions,
                        totalQuality / repetitions);
            std::fflush(stdout);
        }
    }

    std::printf("--- gamma resolution sweep (PLM on PGP replica) ---\n");
    std::printf("%-8s %14s %12s\n", "gamma", "#communities", "modularity");
    const auto suite = replicaSuite();
    for (const auto& spec : suite) {
        if (spec.name != "PGPgiantcompo") continue;
        const Graph g = loadReplica(spec);
        for (double gamma : {0.1, 0.5, 1.0, 2.0, 5.0}) {
            Random::setSeed(62);
            Plm plm(PlmConfig{.gamma = gamma});
            const Partition zeta = plm.run(g);
            std::printf("%-8.1f %14llu %12.4f\n", gamma,
                        static_cast<unsigned long long>(
                            zeta.numberOfSubsets()),
                        Modularity().getQuality(zeta, g));
            std::fflush(stdout);
        }
    }
    return 0;
}
