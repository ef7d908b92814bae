/**
 * @file
 * Quickstart: the 60-second tour of the HiveMind library.
 *
 * 1. Declare a two-tier task graph in the DSL (sense at the edge,
 *    recognize wherever it is cheapest).
 * 2. Let program synthesis enumerate the meaningful placements and
 *    pick one under a latency objective (Sec. 4.2).
 * 3. Run a face-recognition workload on a simulated 8-drone swarm
 *    under the full HiveMind platform and print what happened.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>

#include "apps/appspec.hpp"
#include "dsl/graph.hpp"
#include "platform/single_phase.hpp"
#include "synth/api_synth.hpp"
#include "synth/explorer.hpp"

using namespace hivemind;

int
main()
{
    // --- 1. Declare the application as a task graph ---
    dsl::TaskGraph graph("quickstart");
    dsl::TaskDef collect;
    collect.name = "collectImage";
    collect.data_out = "frames";
    collect.sensor_source = true;  // Must run on the drone.
    collect.work_core_ms = 5.0;
    collect.output_bytes = 2u << 20;
    graph.add_task(collect);

    dsl::TaskDef recognize;
    recognize.name = "recognize";
    recognize.data_in = "frames";
    recognize.data_out = "detections";
    recognize.work_core_ms = 350.0;
    recognize.parallelism = 8;
    recognize.input_bytes = 2u << 20;
    recognize.output_bytes = 20u << 10;
    graph.add_task(recognize);
    graph.add_edge("collectImage", "recognize");
    graph.persist("recognize");

    auto errors = graph.validate();
    if (!errors.empty()) {
        std::fprintf(stderr, "graph invalid: %s\n", errors[0].c_str());
        return 1;
    }
    std::printf("Task graph '%s': %zu tasks, valid.\n",
                graph.name().c_str(), graph.size());

    // --- 2. Explore placements ---
    synth::PlacementExplorer explorer(graph);
    auto best = explorer.best(synth::Objective{});
    std::printf("Placement search picked: %s  (est. latency %.0f ms, "
                "device energy %.1f J/task)\n",
                synth::describe(best.placement).c_str(),
                1000.0 * best.estimate.latency_s,
                best.estimate.edge_energy_j);
    auto stubs = synth::synthesize_apis(graph, best.placement, true);
    std::printf("Synthesized %zu cross-task API(s); first: %s (%s)\n",
                stubs.size(), stubs[0].name.c_str(),
                synth::to_string(stubs[0].kind));

    // --- 3. Run it on the simulated swarm ---
    platform::DeploymentConfig dep;
    dep.devices = 8;
    dep.servers = 6;
    dep.cores_per_server = 20;
    dep.seed = 1;
    platform::JobConfig job;
    job.duration = 30 * sim::kSecond;
    platform::RunMetrics m = platform::run_single_phase(
        apps::app_by_id("S1"), platform::PlatformOptions::hivemind(), dep,
        job);
    std::printf("\nRan S1 (%s) for 30 s on 8 drones under HiveMind:\n",
                apps::app_by_id("S1").name.c_str());
    std::printf("  tasks completed : %llu\n",
                static_cast<unsigned long long>(m.tasks_completed));
    std::printf("  latency p50/p99 : %.0f / %.0f ms\n",
                1000.0 * m.task_latency_s.median(),
                1000.0 * m.task_latency_s.p99());
    std::printf("  air bandwidth   : %.1f MB/s\n",
                m.bandwidth_MBps.mean());
    std::printf("  battery consumed: %.2f %% per drone (compute+radio)\n",
                m.battery_pct.mean());
    std::printf("  cold/warm starts: %llu / %llu\n",
                static_cast<unsigned long long>(m.cold_starts),
                static_cast<unsigned long long>(m.warm_starts));
    return 0;
}
