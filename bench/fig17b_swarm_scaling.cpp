/**
 * @file
 * Fig. 17b — HiveMind's bandwidth and tail latency as the swarm grows
 * from 16 to 8192 drones (network links scaled proportionally),
 * evaluated with the analytic queueing-network model (the counterpart
 * of the paper's validated simulator; see fig18 for its validation).
 *
 * Paper anchor: bandwidth grows much more slowly than the device
 * count (sub-linear), versus a linear increase for the centralized
 * system; latency stays flat for HiveMind.
 *
 * The sweep points are independent, so they run on the run_sweep()
 * thread pool; set HIVEMIND_SWEEP_THREADS=1 for a serial reference
 * run (the table and the BENCH json are identical either way).
 *
 * A second table runs Scenario A itself on the sharded scenario
 * engine at {512, 1024, 2048} drones x {1, 2, 4} shard kernels and
 * writes BENCH_shard_scaling.json. The exit code is that table's
 * checksum gate alone: every shard count must reproduce the one-shard
 * digest of its swarm size.
 */

#include <chrono>
#include <thread>

#include "analytic/model.hpp"
#include "bench_util.hpp"
#include "platform/pipeline_spec.hpp"
#include "platform/sharded_scenario.hpp"

using namespace hivemind;
using namespace hivemind::bench;

namespace {

analytic::AnalyticInput
scenario_input(bool scenario_b, std::size_t devices,
               const platform::PlatformOptions& opt)
{
    const platform::PipelineSpec pipe = platform::pipeline_for(
        scenario_b ? platform::ScenarioKind::MovingPeople
                   : platform::ScenarioKind::StationaryItems);
    analytic::AnalyticInput in;
    in.devices = devices;
    in.scale_infra = true;
    // One task per second on the full 8 fps x 2 MB stream.
    in.app.input_bytes = pipe.frame_bytes;
    in.app.output_bytes = pipe.result_bytes;
    in.app.work_core_ms = pipe.rec_work_ms + pipe.dedup_work_ms;
    in.app.parallelism = pipe.parallelism;
    // The twin's stage hand-off, not the engine's 128 KiB.
    in.app.inter_bytes = 256u << 10;
    in.platform = opt;
    return in;
}

struct Row
{
    std::size_t drones = 0;
    analytic::AnalyticOutput hive_a, centr_a, hive_b, centr_b;
};

/** Scenario A for the shard axis: a fixed 10 s window of load. */
platform::ScenarioConfig
shard_scenario()
{
    platform::ScenarioConfig sc = scenario_a();
    sc.targets = 30;
    sc.field_size_m = 512.0;
    sc.time_cap = 10 * sim::kSecond;
    return sc;
}

Row
evaluate_point(std::size_t n)
{
    Row row;
    row.drones = n;
    row.hive_a = analytic::evaluate(
        scenario_input(false, n, platform::PlatformOptions::hivemind()));
    row.centr_a = analytic::evaluate(scenario_input(
        false, n, platform::PlatformOptions::centralized_faas()));
    row.hive_b = analytic::evaluate(
        scenario_input(true, n, platform::PlatformOptions::hivemind()));
    row.centr_b = analytic::evaluate(scenario_input(
        true, n, platform::PlatformOptions::centralized_faas()));
    return row;
}

}  // namespace

int
main()
{
    print_header("Figure 17b",
                 "Bandwidth (MB/s) and p99 latency (s) vs swarm size, "
                 "analytic model, links scaled with the swarm");
    std::printf("%-8s %32s %32s\n", "", "Scenario A", "Scenario B");
    std::printf("%-8s %10s %10s %10s %10s %10s %10s\n", "drones",
                "HM bw", "HM p99", "Centr bw", "HM bw", "HM p99",
                "Centr bw");

    const std::vector<std::size_t> sizes = {16,  32,   64,   128,  256,
                                            512, 1024, 2048, 4096, 8192};
    auto t0 = std::chrono::steady_clock::now();
    std::vector<Row> rows = run_sweep(sizes, evaluate_point);
    double wall_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();

    for (const Row& r : rows) {
        std::printf("%-8zu %10.0f %10.2f %10.0f %10.0f %10.2f %10.0f\n",
                    r.drones, r.hive_a.bandwidth_MBps,
                    r.hive_a.tail_latency_s, r.centr_a.bandwidth_MBps,
                    r.hive_b.bandwidth_MBps, r.hive_b.tail_latency_s,
                    r.centr_b.bandwidth_MBps);
    }
    std::printf("\n(Paper: HiveMind's bandwidth grows far more slowly than "
                "the device count; the centralized system's grows "
                "linearly. HiveMind latency stays flat.)\n");
    std::printf("[sweep] %zu points on %u thread(s): %.3f s wall\n",
                sizes.size(), sweep_threads(), wall_s);

    // Machine-readable output: deterministic fields only, so serial
    // and parallel runs produce byte-identical json.
    Json series = Json::array();
    for (const Row& r : rows) {
        series.push(Json::object()
                        .kv("drones", static_cast<std::uint64_t>(r.drones))
                        .kv("hivemind_a_bw_MBps", r.hive_a.bandwidth_MBps)
                        .kv("hivemind_a_p99_s", r.hive_a.tail_latency_s)
                        .kv("centralized_a_bw_MBps",
                            r.centr_a.bandwidth_MBps)
                        .kv("hivemind_b_bw_MBps", r.hive_b.bandwidth_MBps)
                        .kv("hivemind_b_p99_s", r.hive_b.tail_latency_s)
                        .kv("centralized_b_bw_MBps",
                            r.centr_b.bandwidth_MBps));
    }
    write_bench_json("fig17b_swarm_scaling",
                     Json::object()
                         .kv("bench", "fig17b_swarm_scaling")
                         .kv("rows", series));

    // --- Shard-count axis: the same swarm on 1/2/4 shard kernels ---
    // Discrete-event counterpart of the analytic sweep above: the
    // sharded scenario engine partitions the swarm across threads
    // while the conservative sync keeps the run byte-identical, so the
    // speedup column is pure wall-clock and the checksum column is the
    // proof nothing else moved. Single-core hosts (CI) still verify
    // the checksums; the speedup needs real cores to show.
    print_header("Fig. 17b (sharded runtime)",
                 "Scenario A, 10 s mission, infrastructure scaled: "
                 "wall-clock per shard count, same-seed checksum "
                 "verified across counts");
    const unsigned hw_threads = std::thread::hardware_concurrency();
    std::printf("host hardware threads: %u\n\n", hw_threads);
    std::printf("%-8s %-7s %10s %12s %10s %9s  %s\n", "devices",
                "shards", "tasks", "epochs", "wall(s)", "speedup",
                "checksum");

    Json shard_rows = Json::array();
    const std::size_t device_counts[] = {512, 1024, 2048};
    const int shard_counts[] = {1, 2, 4};
    const platform::ScenarioConfig sc = shard_scenario();
    const platform::PlatformOptions opt =
        platform::PlatformOptions::hivemind();
    bool checksums_ok = true;
    for (std::size_t devices : device_counts) {
        platform::DeploymentConfig dep = paper_deployment(42);
        dep.devices = devices;
        dep.scale_infra = true;
        std::uint64_t reference = 0;
        double wall_one = 0.0;
        for (int shards : shard_counts) {
            platform::ShardedScenarioResult r =
                platform::run_scenario_sharded(sc, opt, dep, shards);
            if (shards == 1) {
                reference = r.checksum;
                wall_one = r.wall_s;
            } else if (r.checksum != reference) {
                checksums_ok = false;
            }
            const double speedup =
                r.wall_s > 0.0 ? wall_one / r.wall_s : 0.0;
            // On a host with fewer cores than shards the threads
            // serialize and the speedup number is meaningless — say
            // so loudly rather than print a bogus slowdown.
            char speedup_col[24];
            if (hw_threads < static_cast<unsigned>(shards))
                std::snprintf(speedup_col, sizeof speedup_col, "%9s",
                              "SKIPPED");
            else
                std::snprintf(speedup_col, sizeof speedup_col, "%8.2fx",
                              speedup);
            std::printf("%-8zu %-7d %10llu %12llu %10.3f %s  %016llx\n",
                        devices, shards,
                        static_cast<unsigned long long>(
                            r.metrics.tasks_completed),
                        static_cast<unsigned long long>(r.epochs),
                        r.wall_s, speedup_col,
                        static_cast<unsigned long long>(r.checksum));
            shard_rows.push(
                Json::object()
                    .kv("devices", static_cast<std::uint64_t>(devices))
                    .kv("shards", static_cast<std::uint64_t>(shards))
                    .kv("tasks_completed", r.metrics.tasks_completed)
                    .kv("epochs", r.epochs)
                    .kv("forwarded", r.forwarded)
                    .kv("wall_s", r.wall_s)
                    .kv("speedup_vs_1shard", speedup)
                    .kv("checksum_matches_1shard",
                        static_cast<std::uint64_t>(
                            r.checksum == reference ? 1 : 0)));
        }
    }
    std::printf("\nchecksums across shard counts: %s\n",
                checksums_ok ? "all identical" : "MISMATCH");
    if (hw_threads < 4)
        std::printf("speedup columns SKIPPED (hw_threads < shards) on "
                    "this %u-thread host; checksums above are still the "
                    "full correctness check.\n",
                    hw_threads);
    write_bench_json(
        "shard_scaling",
        Json::object()
            .kv("bench", "shard_scaling")
            .kv("hw_threads", static_cast<std::uint64_t>(hw_threads))
            .kv("checksums_identical",
                static_cast<std::uint64_t>(checksums_ok ? 1 : 0))
            .kv("rows", shard_rows));
    return checksums_ok ? 0 : 1;
}
