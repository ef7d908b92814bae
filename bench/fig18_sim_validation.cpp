/**
 * @file
 * Fig. 18 — Validation of the fast (analytic queueing-network) model
 * against the detailed discrete-event simulator: deviation in tail
 * latency across S1-S10 for the three platforms at 16 drones.
 *
 * In the paper the validated artifact is the event-driven simulator
 * and the reference is the physical testbed; in this reproduction the
 * detailed DES plays the testbed's role and the analytic model plays
 * the simulator's (DESIGN.md, substitution table). The paper reports
 * deviations below 5% everywhere.
 */

#include <cmath>

#include "analytic/model.hpp"
#include "bench_util.hpp"

using namespace hivemind;
using namespace hivemind::bench;

int
main()
{
    print_header("Figure 18",
                 "Tail-latency deviation (%) of the analytic model vs the "
                 "detailed DES, 16 drones");
    std::printf("%-5s %14s %14s %14s\n", "Job", "Centralized",
                "Distributed", "HiveMind");
    const platform::PlatformOptions opts[] = {
        platform::PlatformOptions::centralized_faas(),
        platform::PlatformOptions::distributed_edge(),
        platform::PlatformOptions::hivemind(),
    };
    sim::Summary abs_dev;
    for (const apps::AppSpec& app : apps::all_apps()) {
        std::printf("%-5s", app.id.c_str());
        for (const auto& opt : opts) {
            platform::RunMetrics des =
                run_job_repeated(app, opt, paper_job(), 3);
            analytic::AnalyticInput in;
            in.app = app;
            in.platform = opt;
            analytic::AnalyticOutput model = analytic::evaluate(in);
            double des_tail = des.task_latency_s.p99();
            double dev = des_tail > 0.0
                ? 100.0 * (model.tail_latency_s - des_tail) / des_tail
                : 0.0;
            abs_dev.add(std::abs(dev));
            std::printf(" %13.1f%%", dev);
        }
        std::printf("\n");
    }
    std::printf("\nMean |deviation| %.1f%%, max %.1f%% (paper: <5%% "
                "everywhere; see EXPERIMENTS.md for discussion)\n",
                abs_dev.mean(), abs_dev.max());
    return 0;
}
