/**
 * @file
 * Swarm scaling study (Sec. 5.6): how far does centralized
 * coordination stretch, and why does HiveMind keep going?
 *
 * Runs the detailed DES at a few sizes, then sweeps to 8192 devices
 * with the analytic queueing-network model, printing the bottleneck
 * station utilization that explains each regime.
 *
 * Usage: swarm_scale [max_des_devices]
 */

#include <cstdio>
#include <cstdlib>

#include "analytic/model.hpp"
#include "platform/pipeline_spec.hpp"
#include "platform/scenario.hpp"

using namespace hivemind;

int
main(int argc, char** argv)
{
    std::size_t max_des = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 128;

    std::printf("Detailed DES, Scenario A, infrastructure scaled with the "
                "swarm:\n");
    std::printf("%-8s %-20s %12s %10s %12s\n", "drones", "platform",
                "completion", "found", "bandwidth");
    for (std::size_t n = 16; n <= max_des; n *= 2) {
        for (auto opt : {platform::PlatformOptions::centralized_faas(),
                         platform::PlatformOptions::hivemind()}) {
            platform::ScenarioConfig sc;
            sc.kind = platform::ScenarioKind::StationaryItems;
            sc.field_size_m = 96.0 * std::sqrt(static_cast<double>(n) / 16.0);
            sc.targets = 15 * n / 16;
            sc.time_cap = 900 * sim::kSecond;
            platform::DeploymentConfig dep;
            dep.devices = n;
            dep.scale_infra = true;
            dep.seed = 42;
            platform::RunMetrics m = platform::run_scenario(sc, opt, dep);
            std::printf("%-8zu %-20s %11.1fs %9.0f%% %9.1fMBs%s\n", n,
                        opt.label.c_str(), m.completion_s,
                        100.0 * m.goal_fraction, m.bandwidth_MBps.mean(),
                        m.completed ? "" : " [cap]");
        }
    }

    std::printf("\nAnalytic queueing model to 8192 devices (validated "
                "against the DES, see bench/fig18):\n");
    std::printf("%-8s %14s %14s %16s %16s\n", "drones", "centr p99(s)",
                "hive p99(s)", "centr bottleneck", "hive bottleneck");
    for (std::size_t n : {16u, 64u, 256u, 1024u, 4096u, 8192u}) {
        const platform::PipelineSpec pipe =
            platform::pipeline_for(platform::ScenarioKind::StationaryItems);
        analytic::AnalyticInput in;
        in.devices = n;
        in.scale_infra = true;
        in.app.input_bytes = pipe.frame_bytes;
        in.app.output_bytes = pipe.result_bytes;
        in.app.work_core_ms = pipe.rec_work_ms + pipe.dedup_work_ms;
        in.app.parallelism = pipe.parallelism;
        // The twin's stage hand-off, not the engine's 128 KiB.
        in.app.inter_bytes = 256u << 10;
        analytic::AnalyticInput centr = in;
        centr.platform = platform::PlatformOptions::centralized_faas();
        analytic::AnalyticInput hive = in;
        hive.platform = platform::PlatformOptions::hivemind();
        auto c = analytic::evaluate(centr);
        auto h = analytic::evaluate(hive);
        std::printf("%-8zu %14.2f %14.2f %15.0f%% %15.0f%%\n", n,
                    c.tail_latency_s, h.tail_latency_s,
                    100.0 * c.max_utilization, 100.0 * h.max_utilization);
    }
    std::printf("\nThe centralized stack pins its single controller and "
                "the full-stream wireless links; HiveMind's pre-filtered "
                "uplink and replicated schedulers stay below saturation — "
                "\"centralized platforms can be both scalable and "
                "performant\" (Sec. 1).\n");
    return 0;
}
