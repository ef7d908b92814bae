/**
 * @file
 * Extension — chaos sweep: fault rate x recovery policy x shards.
 *
 * Runs Scenario A under increasingly hostile FaultPlans (device churn,
 * a server crash, bursty links, plus a matching function fault_prob)
 * crossed with the three Restore policies, and reports the recovery
 * ledger per cell: MTTD/MTTR, completion time and its overhead versus
 * the same policy's fault-free baseline, lost/re-executed work and
 * dropped frames. The same chaos plans then run at shard counts
 * {1, 2, 4}; the per-device Gilbert-Elliott loss chains and every
 * recovery counter must be invariant in the shard count (asserted via
 * the engine checksum). Output goes to stdout and to
 * BENCH_abl_chaos.json for plotting scripts and CI baselines.
 */

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "platform/options.hpp"
#include "platform/scenario.hpp"
#include "platform/sharded_scenario.hpp"

using namespace hivemind;
using namespace hivemind::bench;

namespace {

const char*
policy_name(cloud::FaultRecovery p)
{
    switch (p) {
      case cloud::FaultRecovery::None:
        return "None";
      case cloud::FaultRecovery::Respawn:
        return "Respawn";
      case cloud::FaultRecovery::Checkpoint:
        return "Checkpoint";
    }
    return "?";
}

platform::ScenarioConfig
cell_scenario(double rate, cloud::FaultRecovery policy, std::uint64_t seed)
{
    platform::ScenarioConfig sc;
    sc.kind = platform::ScenarioKind::StationaryItems;
    sc.field_size_m = 48.0;
    sc.targets = 6;
    sc.time_cap = 600 * sim::kSecond;
    sc.recovery = policy;
    if (rate > 0.0) {
        // Device churn whose intensity scales with the rate, one
        // backend crash, and a bursty-loss window that widens with it.
        sc.faults = fault::FaultPlan::poisson_device_churn(
            101 + seed, 8, 60 * sim::kSecond,
            static_cast<sim::Time>(4.0 / rate) * sim::kSecond,
            8 * sim::kSecond);
        sc.faults.server_crash(8 * sim::kSecond, 0, 2 * sim::kSecond);
        sc.faults.link_burst(
            5 * sim::kSecond,
            static_cast<sim::Time>(rate * 30.0 * sim::kSecond), 0.9);
    }
    return sc;
}

platform::DeploymentConfig
cell_deployment(double rate, std::uint64_t seed)
{
    platform::DeploymentConfig cfg;
    cfg.devices = 8;
    cfg.servers = 6;
    cfg.cores_per_server = 20;
    cfg.seed = seed;
    cfg.faas.fault_prob = rate * 0.1;  // Function self-faults too.
    return cfg;
}

platform::RunMetrics
run_cell(double rate, cloud::FaultRecovery policy, std::uint64_t seed)
{
    return platform::run_scenario(cell_scenario(rate, policy, seed),
                                  platform::PlatformOptions::hivemind(),
                                  cell_deployment(rate, seed));
}

/** One independent simulation of the sweep: a (policy, rate, seed). */
struct CellPoint
{
    double rate = 0.0;
    cloud::FaultRecovery policy = cloud::FaultRecovery::None;
    std::uint64_t seed = 0;
};

/** One shards-axis run: the same chaos at a given shard count. */
struct ShardPoint
{
    double rate = 0.0;
    std::uint64_t seed = 0;
    int shards = 1;
};

platform::ShardedScenarioResult
run_shard_cell(const ShardPoint& p)
{
    // The policy axis above already covers the Restore knob; the
    // shards leg holds it at Checkpoint.
    return platform::run_scenario_sharded(
        cell_scenario(p.rate, cloud::FaultRecovery::Checkpoint, p.seed),
        platform::PlatformOptions::hivemind(),
        cell_deployment(p.rate, p.seed), p.shards);
}

}  // namespace

int
main()
{
    const std::vector<double> rates = {0.0, 0.1, 0.3};
    const std::vector<cloud::FaultRecovery> policies = {
        cloud::FaultRecovery::None, cloud::FaultRecovery::Respawn,
        cloud::FaultRecovery::Checkpoint};
    const std::vector<std::uint64_t> seeds = {1, 2, 3};
    const std::vector<int> shard_counts = {1, 2, 4};

    // Every (policy, rate, seed) run is independent: parcel them all
    // out to the run_sweep() pool, then reduce per cell in a fixed
    // order so the emitted JSON is identical to a serial run.
    std::vector<CellPoint> points;
    for (cloud::FaultRecovery policy : policies)
        for (double rate : rates)
            for (std::uint64_t seed : seeds)
                points.push_back({rate, policy, seed});
    auto t0 = std::chrono::steady_clock::now();
    std::vector<platform::RunMetrics> runs =
        run_sweep(points, [](const CellPoint& p) {
            return run_cell(p.rate, p.policy, p.seed);
        });

    // The shards axis: same chaos on {1, 2, 4} kernels.
    // Each sharded run spins its own worker threads, so this leg runs
    // on the caller's thread one point at a time.
    std::vector<ShardPoint> shard_points;
    for (double rate : rates)
        for (std::uint64_t seed : seeds)
            for (int n : shard_counts)
                shard_points.push_back({rate, seed, n});
    std::vector<platform::ShardedScenarioResult> shard_runs =
        run_sweep(shard_points, run_shard_cell, 1);
    double wall_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    std::fprintf(stderr, "[sweep] %zu runs on %u thread(s): %.2f s wall\n",
                 points.size() + shard_points.size(),
                 bench::sweep_threads(), wall_s);

    Json cells = Json::array();
    std::size_t point_index = 0;
    for (cloud::FaultRecovery policy : policies) {
        double baseline_completion = 0.0;
        for (double rate : rates) {
            platform::RunMetrics sum;
            bool merged = false;
            for (std::size_t s = 0; s < seeds.size(); ++s) {
                const platform::RunMetrics& m = runs[point_index++];
                if (!merged) {
                    sum = m;
                    merged = true;
                } else {
                    sum.merge(m);
                }
            }
            double n = static_cast<double>(seeds.size());
            double completion = sum.completion_s / n;
            if (rate == 0.0)
                baseline_completion = completion;
            double overhead_pct = baseline_completion > 0.0
                ? 100.0 * (completion - baseline_completion) /
                    baseline_completion
                : 0.0;
            const fault::RecoveryMetrics& r = sum.recovery;
            cells.push(
                Json::object()
                    .kv("fault_rate", rate)
                    .kv("policy", policy_name(policy))
                    .kv("completion_s", completion)
                    .kv("overhead_pct", overhead_pct)
                    .kv("completed_runs", sum.completed)
                    .kv("mttd_s", r.mttd_s.empty() ? 0.0 : r.mttd_s.mean())
                    .kv("mttr_s", r.mttr_s.empty() ? 0.0 : r.mttr_s.mean())
                    .kv("mttd_samples",
                        static_cast<std::uint64_t>(r.mttd_s.count()))
                    .kv("mttr_samples",
                        static_cast<std::uint64_t>(r.mttr_s.count()))
                    .kv("work_lost_core_ms", r.work_lost_core_ms)
                    .kv("reexecuted_core_ms", r.reexecuted_core_ms)
                    .kv("frames_dropped", r.frames_dropped)
                    .kv("killed_invocations", r.killed_invocations)
                    .kv("device_crashes", r.device_crashes)
                    .kv("device_rejoins", r.device_rejoins)
                    .kv("offload_retries", r.offload_retries)
                    .kv("offloads_abandoned", r.offloads_abandoned));
        }
    }

    // Reduce the shards axis: per (rate, seed), every shard count must
    // reproduce the shards=1 checksum and recovery counters exactly.
    bool shard_invariant = true;
    Json shard_cells = Json::array();
    std::size_t si = 0;
    for (double rate : rates) {
        for (std::uint64_t seed : seeds) {
            const platform::ShardedScenarioResult& ref = shard_runs[si];
            for (int n : shard_counts) {
                const platform::ShardedScenarioResult& r = shard_runs[si++];
                if (r.checksum != ref.checksum)
                    shard_invariant = false;
                const fault::RecoveryMetrics& rec = r.metrics.recovery;
                shard_cells.push(
                    Json::object()
                        .kv("fault_rate", rate)
                        .kv("seed", seed)
                        .kv("shards", n)
                        .kv("checksum_matches_one_shard",
                            r.checksum == ref.checksum)
                        .kv("completion_s", r.metrics.completion_s)
                        .kv("wireless_retransmissions",
                            rec.wireless_retransmissions)
                        .kv("frames_dropped", rec.frames_dropped)
                        .kv("link_burst_windows", rec.link_burst_windows)
                        .kv("device_crashes", rec.device_crashes)
                        .kv("device_rejoins", rec.device_rejoins)
                        .kv("offload_retries", rec.offload_retries));
            }
        }
    }
    std::printf("Sharded chaos invariant across shard counts {1, 2, 4}: "
                "%s\n", shard_invariant ? "yes" : "NO (unexpected)");

    Json doc = Json::object()
                   .kv("bench", "abl_chaos")
                   .kv("hw_threads", static_cast<std::uint64_t>(
                                         std::thread::hardware_concurrency()))
                   .kv("scenario",
                       "StationaryItems 48m / 6 targets / 8 drones")
                   .kv("cells", cells)
                   .kv("sharded_invariant", shard_invariant)
                   .kv("sharded_cells", shard_cells);
    std::printf("%s\n", doc.str().c_str());
    write_bench_json("abl_chaos", doc);
    return shard_invariant ? 0 : 1;
}
