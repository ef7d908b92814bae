/**
 * @file
 * Ablation — controller high availability (Secs. 4.6-4.7).
 *
 * The swarm controller "runs as a centralized process with two hot
 * standbys" and "periodically checkpoints its state". This bench
 * kills the primary mid-scenario and sweeps the checkpoint interval:
 * a fresher checkpoint means less post-checkpoint drift to replay, so
 * recovery time (MTTR) shrinks monotonically as checkpoints get more
 * frequent — at the cost of more checkpoint traffic. The sweep runs at
 * shard counts {1, 2, 4}: the HA stack rides dedicated checkpoint
 * ShardLinks, and the ledger must be invariant in the shard count with
 * the same monotone shape. It also shows a controller partition (no
 * failover, degraded-mode autonomy only) and emits
 * BENCH_abl_controller_ha.json.
 */

#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "platform/sharded_scenario.hpp"

using namespace hivemind;
using namespace hivemind::bench;

namespace {

constexpr double kCrashAtS = 15.7;
constexpr int kSeeds = 3;

/** Shard counts of the sweep; the first is the headline. */
const std::vector<int> kShardCounts = {1, 2, 4};

platform::ScenarioConfig
crash_scenario()
{
    platform::ScenarioConfig sc = scenario_a();
    sc.targets = 50;  // Unreachable: the cap ends every run alike.
    sc.time_cap = 60 * sim::kSecond;
    sc.faults.controller_crash(sim::from_seconds(kCrashAtS));
    return sc;
}

struct SweepPoint
{
    double interval_s = 0.0;
    double mttd_s = 0.0;
    double mttr_s = 0.0;
    double ckpt_age_s = 0.0;
    double outage_s = 0.0;
    double ckpts_per_run = 0.0;
    double ckpt_kb_per_run = 0.0;
    double redriven_per_run = 0.0;
    double buffered_per_run = 0.0;
    double drained_per_run = 0.0;
    double outage_goodput = 0.0;
};

/** One independent crash-failover run: (interval, seed, shards). */
struct RunPoint
{
    sim::Time interval = 0;
    std::uint64_t seed = 0;
    int shards = 1;
};

platform::RunMetrics
run_point(const RunPoint& p)
{
    platform::ScenarioConfig sc = crash_scenario();
    sc.checkpoint_interval = p.interval;
    return platform::run_scenario_sharded(
               sc, platform::PlatformOptions::hivemind(),
               paper_deployment(p.seed), p.shards)
        .metrics;
}

SweepPoint
reduce_interval(sim::Time interval,
                const platform::RunMetrics* runs)
{
    SweepPoint p;
    p.interval_s = sim::to_seconds(interval);
    platform::RunMetrics merged;
    for (int r = 0; r < kSeeds; ++r)
        merged.merge(runs[r]);
    const fault::RecoveryMetrics& rec = merged.recovery;
    p.mttd_s = rec.controller_mttd_s.mean();
    p.mttr_s = rec.controller_mttr_s.mean();
    p.ckpt_age_s = rec.checkpoint_age_s.mean();
    p.outage_s = rec.controller_outage_s / kSeeds;
    p.ckpts_per_run =
        static_cast<double>(rec.checkpoints_taken) / kSeeds;
    p.ckpt_kb_per_run =
        static_cast<double>(rec.checkpoint_bytes) / kSeeds / 1024.0;
    p.redriven_per_run =
        static_cast<double>(rec.tasks_redriven_on_failover) / kSeeds;
    p.buffered_per_run =
        static_cast<double>(rec.frames_buffered_degraded) / kSeeds;
    p.drained_per_run =
        static_cast<double>(rec.buffered_frames_drained) / kSeeds;
    p.outage_goodput =
        static_cast<double>(rec.outage_tasks_completed) / kSeeds;
    return p;
}

bool
mttr_monotone(const std::vector<SweepPoint>& sweep)
{
    for (std::size_t i = 1; i < sweep.size(); ++i) {
        if (sweep[i].mttr_s < sweep[i - 1].mttr_s - 1e-9)
            return false;
    }
    return true;
}

void
print_sweep(const std::vector<SweepPoint>& sweep)
{
    std::printf("%-10s %8s %8s %9s %9s %7s %9s %9s\n", "interval",
                "MTTD(s)", "MTTR(s)", "ckpt age", "outage s", "ckpts",
                "ckpt KB", "redriven");
    for (const SweepPoint& p : sweep) {
        std::printf("%7.0f s  %8.2f %8.2f %9.2f %9.2f %7.1f %9.1f %9.1f\n",
                    p.interval_s, p.mttd_s, p.mttr_s, p.ckpt_age_s,
                    p.outage_s, p.ckpts_per_run, p.ckpt_kb_per_run,
                    p.redriven_per_run);
    }
}

Json
sweep_json(const std::vector<SweepPoint>& sweep)
{
    Json series = Json::array();
    for (const SweepPoint& p : sweep) {
        series.push(Json::object()
                        .kv("checkpoint_interval_s", p.interval_s)
                        .kv("controller_mttd_s", p.mttd_s)
                        .kv("controller_mttr_s", p.mttr_s)
                        .kv("checkpoint_age_s", p.ckpt_age_s)
                        .kv("outage_s", p.outage_s)
                        .kv("checkpoints_per_run", p.ckpts_per_run)
                        .kv("checkpoint_kb_per_run", p.ckpt_kb_per_run)
                        .kv("tasks_redriven_per_run", p.redriven_per_run)
                        .kv("frames_buffered_per_run", p.buffered_per_run)
                        .kv("frames_drained_per_run", p.drained_per_run)
                        .kv("outage_goodput_tasks", p.outage_goodput));
    }
    return series;
}

}  // namespace

int
main()
{
    print_header("Ablation: controller HA",
                 "Hot-standby failover vs checkpoint interval "
                 "(primary killed at t=15.7 s, Scenario A)");

    // All (shards, interval, seed) runs are independent: fan them out
    // on the run_sweep() pool and reduce per interval in deterministic
    // order, one sweep per shard count.
    const std::vector<double> intervals_s = {1.0, 2.0, 4.0, 8.0, 16.0};
    std::vector<RunPoint> points;
    for (int shards : kShardCounts)
        for (double interval_s : intervals_s)
            for (int r = 0; r < kSeeds; ++r)
                points.push_back({sim::from_seconds(interval_s),
                                  42 + static_cast<std::uint64_t>(r),
                                  shards});
    std::vector<platform::RunMetrics> runs = run_sweep(points, run_point);

    // Reduce: shard counts x intervals, kSeeds runs per cell.
    std::size_t cursor = 0;
    std::vector<std::vector<SweepPoint>> sweeps;
    for (std::size_t e = 0; e < kShardCounts.size(); ++e) {
        std::vector<SweepPoint> sweep;
        for (double interval_s : intervals_s) {
            sweep.push_back(reduce_interval(sim::from_seconds(interval_s),
                                            &runs[cursor]));
            cursor += static_cast<std::size_t>(kSeeds);
        }
        sweeps.push_back(std::move(sweep));
    }
    const std::vector<SweepPoint>& headline = sweeps[0];

    std::printf("shards=%d:\n", kShardCounts[0]);
    print_sweep(headline);

    // The headline claim: fresher checkpoints -> faster recovery, at
    // every shard count.
    bool all_monotone = true;
    std::vector<bool> monotone;
    for (const std::vector<SweepPoint>& sweep : sweeps) {
        monotone.push_back(mttr_monotone(sweep));
        all_monotone = all_monotone && monotone.back();
    }
    std::printf("\nRecovery time decreases monotonically with checkpoint "
                "frequency: %s\n", monotone[0] ? "yes" : "NO (unexpected)");
    std::printf("(Detection is the election timeout and does not depend on "
                "the interval; the\n spread above is the drift-replay term "
                "growing with checkpoint age.)\n");

    // The ledger must not depend on the shard count: compare each
    // shard count's sweep against the headline exactly.
    bool shard_invariant = true;
    for (std::size_t e = 1; e < sweeps.size(); ++e) {
        for (std::size_t i = 0; i < sweeps[e].size(); ++i) {
            if (sweeps[e][i].mttr_s != headline[i].mttr_s ||
                sweeps[e][i].ckpts_per_run != headline[i].ckpts_per_run ||
                sweeps[e][i].drained_per_run != headline[i].drained_per_run)
                shard_invariant = false;
        }
    }
    std::printf("\nLedger invariant across shards {1, 2, 4}: %s\n",
                shard_invariant ? "yes" : "NO");
    for (std::size_t e = 0; e < sweeps.size(); ++e) {
        std::printf("MTTR monotone at shards=%d: %s\n", kShardCounts[e],
                    monotone[e] ? "yes" : "NO (unexpected)");
    }

    // --- Degraded-mode autonomy during the outage window ---
    std::printf("\nDegraded-mode edge autonomy while no controller was "
                "reachable (shards=%d, per run):\n%-10s %10s %10s %10s\n",
                kShardCounts[0], "interval", "buffered", "drained",
                "goodput");
    for (const SweepPoint& p : headline) {
        std::printf("%7.0f s  %10.1f %10.1f %10.1f\n", p.interval_s,
                    p.buffered_per_run, p.drained_per_run,
                    p.outage_goodput);
    }

    // --- Partition: unreachable primary, no standby consumed ---
    platform::ScenarioConfig part = crash_scenario();
    part.faults = fault::FaultPlan{};
    part.faults.controller_partition(sim::from_seconds(kCrashAtS),
                                     6 * sim::kSecond);
    platform::RunMetrics pm = platform::run_scenario(
        part, platform::PlatformOptions::hivemind(), paper_deployment(42));
    std::printf("\nController partition (6 s) for contrast: outage %.1f s, "
                "frames buffered %llu\nand drained %llu by local "
                "autonomy.\n",
                pm.recovery.controller_outage_s,
                static_cast<unsigned long long>(
                    pm.recovery.frames_buffered_degraded),
                static_cast<unsigned long long>(
                    pm.recovery.buffered_frames_drained));
    const bool drained_ok = pm.recovery.buffered_frames_drained > 0;

    // --- Machine-readable output ---
    Json shard_series = Json::array();
    for (std::size_t e = 0; e < sweeps.size(); ++e) {
        shard_series.push(Json::object()
                              .kv("shards", kShardCounts[e])
                              .kv("mttr_monotone_in_checkpoint_freq",
                                  static_cast<bool>(monotone[e]))
                              .kv("sweep", sweep_json(sweeps[e])));
    }
    Json doc =
        Json::object()
            .kv("bench", "abl_controller_ha")
            .kv("hw_threads", static_cast<std::uint64_t>(
                                  std::thread::hardware_concurrency()))
            .kv("scenario", "A")
            .kv("crash_at_s", kCrashAtS)
            .kv("seeds", kSeeds)
            .kv("mttr_monotone_in_checkpoint_freq", all_monotone)
            .kv("sweep", sweep_json(headline))
            .kv("ledger_shard_invariant", shard_invariant)
            .kv("sharded_sweeps", shard_series)
            .kv("partition",
                Json::object()
                    .kv("duration_s", 6.0)
                    .kv("outage_s", pm.recovery.controller_outage_s)
                    .kv("frames_buffered",
                        pm.recovery.frames_buffered_degraded)
                    .kv("frames_drained",
                        pm.recovery.buffered_frames_drained));
    write_bench_json("abl_controller_ha", doc);
    return (all_monotone && shard_invariant && drained_ok) ? 0 : 1;
}
