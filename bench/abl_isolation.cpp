/**
 * @file
 * Extension — cache/memory-bandwidth partitioning (Sec. 4.3).
 *
 * "Cache partitioning and memory bandwidth partitioning can also be
 * integrated in HiveMind for performance and security isolation."
 * This bench measures the latency-variability effect of enabling the
 * isolation model under increasing cluster occupancy.
 */

#include <memory>

#include "bench_util.hpp"

using namespace hivemind;
using namespace hivemind::bench;

namespace {

sim::Summary
run_occupied(double occupancy, bool isolated)
{
    sim::Simulator simulator;
    sim::Rng rng(23);
    cloud::Cluster cluster(4, 40, platform::kServerMemoryMb);
    int pre = static_cast<int>(occupancy * 40.0);
    for (std::size_t s = 0; s < cluster.size(); ++s) {
        for (int c = 0; c < pre; ++c)
            cluster.server(s).acquire_core();
    }
    cloud::DataStore store(simulator, rng, cloud::DataStoreConfig{});
    cloud::FaasConfig cfg;
    cfg.straggler_prob = 0.0;
    cfg.performance_isolation = isolated;
    cloud::FaasRuntime rt(simulator, rng, cluster, store, cfg);
    const cloud::AppId app_id = rt.intern("S1");
    sim::Summary exec;
    cloud::InvokeRequest req;
    req.app = app_id;
    req.work_core_ms = 350.0;
    for (int i = 0; i < 120; ++i) {
        rt.invoke(req, [&](const cloud::InvocationTrace& t) {
            exec.add(t.exec_s());
        });
        simulator.run();
    }
    return exec;
}

}  // namespace

int
main()
{
    print_header("Ablation: performance isolation",
                 "Execution-time spread (p99/p50) of S1 vs neighbour "
                 "occupancy, with and without partitioning");
    std::printf("%-12s %16s %16s\n", "occupancy", "shared p99/p50",
                "isolated p99/p50");
    for (double occ : {0.1, 0.5, 0.9}) {
        sim::Summary shared = run_occupied(occ, false);
        sim::Summary isolated = run_occupied(occ, true);
        char ol[16];
        std::snprintf(ol, sizeof(ol), "%.0f%%", occ * 100.0);
        std::printf("%-12s %16.2f %16.2f\n", ol,
                    shared.p99() / shared.median(),
                    isolated.p99() / isolated.median());
    }
    std::printf("\n(Without partitioning, co-located containers inflate "
                "the tail as the host fills; with it, spread stays flat — "
                "the integration hook Sec. 4.3 anticipates.)\n");
    return 0;
}
