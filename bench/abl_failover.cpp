/**
 * @file
 * Ablation — heartbeat timeout and failure recovery (Sec. 4.6,
 * Fig. 10).
 *
 * Devices beat once per second; the controller declares a device dead
 * after 3 s of silence and splits its region among the neighbours.
 * This bench injects a device failure mid-scenario and sweeps the
 * timeout, reporting detection latency and the impact on scenario
 * completion; it also contrasts HiveMind (repartitions) with the
 * centralized baseline (loses the region).
 */

#include <vector>

#include "bench_util.hpp"
#include "core/heartbeat.hpp"

using namespace hivemind;
using namespace hivemind::bench;

int
main()
{
    print_header("Ablation: failure detection & recovery",
                 "Heartbeat timeout sweep (detection latency) and "
                 "failure-recovery impact on Scenario A");

    // --- Detection latency vs timeout (pure detector) ---
    // Each timeout point builds its own Simulator + detector, so the
    // sweep fans out over the run_sweep() pool.
    const std::vector<double> timeouts = {1.0, 3.0, 5.0, 10.0};
    std::vector<double> detection_s =
        run_sweep(timeouts, [](const double& timeout_s) {
            sim::Simulator simulator;
            core::FailureDetector fd(simulator, 8, sim::kSecond,
                                     sim::from_seconds(timeout_s));
            sim::Summary detect;
            fd.set_on_failure([&](std::size_t) {
                detect.add(sim::to_seconds(simulator.now()) - 30.0);
            });
            fd.start();
            // All devices beat; device 3 dies at t=30 s.
            for (int t = 1; t <= 60; ++t) {
                simulator.schedule_at(
                    t * sim::kSecond - 1, [&fd, t]() {
                        for (std::size_t d = 0; d < 8; ++d) {
                            if (d != 3 || t <= 30)
                                fd.beat(d);
                        }
                    });
            }
            simulator.run_until(60 * sim::kSecond);
            fd.stop();
            simulator.run();
            return detect.empty() ? -1.0 : detect.mean();
        });
    Json timeout_series = Json::array();
    std::printf("%-12s %22s\n", "timeout", "detection latency (s)");
    for (std::size_t i = 0; i < timeouts.size(); ++i) {
        std::printf("%9.0f s  %21.1f\n", timeouts[i], detection_s[i]);
        timeout_series.push(Json::object()
                                .kv("timeout_s", timeouts[i])
                                .kv("detection_s", detection_s[i]));
    }

    // --- Scenario impact: one drone's battery is nearly empty ---
    const std::vector<platform::PlatformOptions> platforms = {
        platform::PlatformOptions::hivemind(),
        platform::PlatformOptions::centralized_faas()};
    std::vector<platform::RunMetrics> impacts = run_sweep(
        platforms, [](const platform::PlatformOptions& opt) {
            platform::ScenarioConfig sc = scenario_a();
            sc.faults.device_crash(10 * sim::kSecond, 5);
            // The controller detects the silence in ~3-4 s on either
            // platform. HiveMind then repartitions the strip (Fig. 10);
            // the baseline keeps sweeping around the hole and relies
            // on footprint overlap.
            return platform::run_scenario(sc, opt, paper_deployment(42));
        });
    Json impact = Json::array();
    std::printf("\nScenario A with a drone failure injected at t=10 s:\n"
                "%-20s %12s %10s %10s\n", "Platform", "completion",
                "found%", "completed");
    for (std::size_t i = 0; i < platforms.size(); ++i) {
        const platform::RunMetrics& m = impacts[i];
        std::printf("%-20s %11.1fs %9.1f%% %10s\n",
                    platforms[i].label.c_str(), m.completion_s,
                    100.0 * m.goal_fraction, m.completed ? "yes" : "no");
        impact.push(Json::object()
                        .kv("platform", platforms[i].label)
                        .kv("completion_s", m.completion_s)
                        .kv("goal_fraction", m.goal_fraction)
                        .kv("completed", m.completed)
                        .kv("device_mttd_s", m.recovery.mttd_s.empty()
                                ? -1.0
                                : m.recovery.mttd_s.mean()));
    }
    std::printf("\n(Sec. 4.6: a 3 s timeout detects failures in ~3-4 s; "
                "shorter timeouts risk false positives on congested "
                "wireless, longer ones delay repartitioning.)\n");
    write_bench_json("abl_failover",
                     Json::object()
                         .kv("bench", "abl_failover")
                         .kv("timeout_sweep", timeout_series)
                         .kv("scenario_impact", impact));
    return 0;
}
