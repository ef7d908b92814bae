/**
 * @file
 * Measurement-backed placement exploration (Sec. 4.2, Fig. 8).
 *
 * The paper's synthesis engine "profiles the application on the
 * target swarm" for each meaningful execution model and presents the
 * performance/power results for selection. This example does exactly
 * that: it takes the Listing 3 task graph, profiles every candidate
 * placement with a short simulation of the real platform (the generic
 * task-graph runner), and prints the measured table next to the
 * analytic cost model's predictions.
 *
 * Usage: placement_profiler [activations_per_device_hz]
 */

#include <cstdio>
#include <cstdlib>

#include "dsl/scenarios.hpp"
#include "platform/graph_runner.hpp"

using namespace hivemind;

int
main(int argc, char** argv)
{
    double rate = argc > 1 ? std::atof(argv[1]) : 0.2;

    dsl::TaskGraph graph = dsl::scenario_b_graph();
    std::printf("Profiling all placements of '%s' on the simulated swarm "
                "(%.2f activations/device/s)...\n\n",
                graph.name().c_str(), rate);

    platform::DeploymentConfig dep;
    dep.devices = 8;
    dep.servers = 6;
    dep.cores_per_server = 20;
    dep.seed = 42;
    platform::JobConfig job;
    job.duration = 30 * sim::kSecond;
    job.drain = 60 * sim::kSecond;

    synth::PlacementExplorer measured(graph);
    measured.set_profiler(platform::make_simulation_profiler(
        platform::PlatformOptions::hivemind(), dep, job, rate));
    synth::PlacementExplorer predicted(graph);

    auto measured_all = measured.explore_all();
    auto predicted_all = predicted.explore_all();

    std::printf("%-58s %12s %12s\n", "placement", "measured", "predicted");
    std::printf("%-58s %12s %12s\n", "", "lat (ms)", "lat (ms)");
    for (std::size_t i = 0; i < measured_all.size(); ++i) {
        std::printf("%-58s %12.0f %12.0f\n",
                    synth::describe(measured_all[i].placement).c_str(),
                    1000.0 * measured_all[i].estimate.latency_s,
                    1000.0 * predicted_all[i].estimate.latency_s);
    }

    auto best = measured.best(synth::Objective{});
    std::printf("\nSelected (measured, latency objective): %s\n",
                synth::describe(best.placement).c_str());
    std::printf("  latency %.0f ms | energy %.2f J/activation\n",
                1000.0 * best.estimate.latency_s,
                best.estimate.edge_energy_j);
    std::printf("\nThe analytic model ranks the same placements without "
                "running anything; HiveMind uses it to prune, then "
                "profiles the survivors (Sec. 4.2).\n");
    return 0;
}
