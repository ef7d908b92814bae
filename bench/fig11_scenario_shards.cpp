/**
 * @file
 * Scenario A at Fig. 17 scale (8k devices) on the sharded runtime —
 * wall-clock scaling, epoch-overhead accounting, and the invariance
 * check in one table.
 *
 * Two engine configurations run at equal devices:
 *  - baseline: global-lookahead epochs (the pre-optimization window
 *    policy, kept selectable via ScenarioConfig::adaptive_lookahead),
 *    and
 *  - optimized: per-pair adaptive lookahead with direct same-shard
 *    delivery, at 1, 2 and 4 shard kernels (plus HIVEMIND_SHARDS if it
 *    names another count).
 *
 * Every row must report the same checksum — optimization legs
 * included — or the sharding is broken, not just slow.
 *
 * Exit-code gates:
 *  - checksum invariance across every row (always),
 *  - epoch count at shards=1 reduced >= 3x vs the baseline leg
 *    (always; the adaptive runtime needs no conservative epochs on a
 *    single shard, so this is typically >100x),
 *  - speedup > 1.0 at shards=4 — only enforced when the host has
 *    hw_threads >= 4; otherwise the bench prints a loud
 *    `SKIPPED (hw_threads < shards)` marker instead of emitting a
 *    bogus speedup verdict.
 *
 * Every row also reports the CPU-seconds the hypervisor stole from
 * the host while its leg ran (the aggregate steal column of
 * /proc/stat; n/a, and null in the json, where that file is
 * unreadable): on a shared VM the shards=4 wall follows it, so read
 * the speedup verdict beside it.
 *
 * Writes BENCH_scenario_shards.json (hw_threads included) for
 * scripts/bench_diff.py to diff and for EXPERIMENTS.md's multi-core
 * section.
 */

#include <unistd.h>

#include <optional>
#include <thread>

#include "bench_util.hpp"
#include "edge/device.hpp"
#include "platform/sharded_scenario.hpp"

using namespace hivemind;
using namespace hivemind::bench;

namespace {

/** Scenario A lifted to the paper's Fig. 17 swarm scale. */
platform::ScenarioConfig
shard_scenario()
{
    platform::ScenarioConfig sc = scenario_a();
    sc.targets = 30;
    sc.field_size_m = 512.0;
    // A fixed mission window: at this swarm size the bench measures
    // sustained load, not time-to-goal. 20 s keeps the four legs
    // under ~2 min of host time on one core; HIVEMIND_MISSION_S
    // lifts it for a full Fig. 17 measurement (see EXPERIMENTS.md).
    const long mission_s = platform::env::mission_s().value_or(20);
    sc.time_cap = mission_s * sim::kSecond;
    return sc;
}

platform::DeploymentConfig
shard_deployment()
{
    platform::DeploymentConfig cfg = paper_deployment(42);
    cfg.devices = 8192;  // Fig. 17 scale: 512x the paper swarm.
    // Scale shared infrastructure with the swarm, as Fig. 17b does,
    // so the cloud saturates from the workload and not the config.
    cfg.scale_infra = true;
    return cfg;
}

std::vector<int>
shard_counts()
{
    std::vector<int> counts = {1, 2, 4};
    if (auto extra = platform::env::shards()) {
        if (std::find(counts.begin(), counts.end(), *extra) ==
            counts.end())
            counts.push_back(*extra);
    }
    return counts;
}

/** CPU-seconds stolen from all of the host's CPUs since boot: the
 *  steal field of /proc/stat's aggregate `cpu` line, in USER_HZ
 *  ticks. Empty when the file cannot be read. */
std::optional<double>
host_steal_cpu_s()
{
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr)
        return std::nullopt;
    unsigned long long t[8] = {};
    const int fields = std::fscanf(
        f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &t[0], &t[1],
        &t[2], &t[3], &t[4], &t[5], &t[6], &t[7]);
    std::fclose(f);
    const long hz = sysconf(_SC_CLK_TCK);
    if (fields != 8 || hz <= 0)
        return std::nullopt;
    return static_cast<double>(t[7]) / static_cast<double>(hz);
}

/** One leg's result and the CPU-seconds stolen while it ran. */
struct Leg
{
    platform::ShardedScenarioResult r;
    std::optional<double> steal_cpu_s;
};

Leg
run_leg(const platform::ScenarioConfig& sc,
        const platform::PlatformOptions& opt,
        const platform::DeploymentConfig& dep, int shards)
{
    const std::optional<double> before = host_steal_cpu_s();
    Leg leg{platform::run_scenario_sharded(sc, opt, dep, shards),
            std::nullopt};
    const std::optional<double> after = host_steal_cpu_s();
    if (before && after)
        leg.steal_cpu_s = *after - *before;
    return leg;
}

void
print_row(const char* label, const Leg& leg, double speedup,
          const char* digest)
{
    const platform::ShardedScenarioResult& r = leg.r;
    char steal[16];
    if (leg.steal_cpu_s)
        std::snprintf(steal, sizeof steal, "%.2f", *leg.steal_cpu_s);
    else
        std::snprintf(steal, sizeof steal, "n/a");
    std::printf("%-10s %-7d %10.2f %9s %9.2fx %10llu %12llu %12.1f  %s\n",
                label, r.shards, r.wall_s, steal, speedup,
                static_cast<unsigned long long>(r.epochs),
                static_cast<unsigned long long>(r.forwarded),
                r.metrics.completion_s, digest);
}

}  // namespace

int
main()
{
    const unsigned hw = std::thread::hardware_concurrency();
    print_header("Scenario shards",
                 "Scenario A (8192 drones) on the sharded runtime: "
                 "wall-clock vs shard count, checksum-verified");
    std::printf("host hardware threads: %u\n\n", hw);
    std::printf("%-10s %-7s %10s %9s %10s %10s %12s %12s  %s\n", "config",
                "shards", "wall(s)", "steal(s)", "speedup", "epochs",
                "forwarded", "sim-compl(s)", "checksum");

    platform::DeploymentConfig dep = shard_deployment();
    platform::PlatformOptions opt = platform::PlatformOptions::hivemind();

    // Baseline leg: the engine every optimization is measured against
    // and must stay byte-identical to.
    platform::ScenarioConfig base_sc = shard_scenario();
    base_sc.adaptive_lookahead = false;
    const Leg base_leg = run_leg(base_sc, opt, dep, 1);
    const platform::ShardedScenarioResult& baseline = base_leg.r;
    char base_digest[32];
    std::snprintf(base_digest, sizeof base_digest, "%016llx",
                  static_cast<unsigned long long>(baseline.checksum));
    print_row("baseline", base_leg, 1.0, base_digest);

    // Optimized legs, sequential on purpose: each run owns all its
    // shard threads, so timing them concurrently would only contend.
    platform::ScenarioConfig sc = shard_scenario();
    std::vector<Leg> legs;
    for (int n : shard_counts())
        legs.push_back(run_leg(sc, opt, dep, n));

    bool invariant = true;
    Json rows = Json::array();
    const double base_wall = legs.front().r.wall_s;
    double wall_at_4 = 0.0;
    std::uint64_t epochs_at_1 = 0;
    for (const Leg& leg : legs) {
        const platform::ShardedScenarioResult& r = leg.r;
        if (r.checksum != baseline.checksum)
            invariant = false;
        if (r.shards == 1)
            epochs_at_1 = r.epochs;
        if (r.shards == 4)
            wall_at_4 = r.wall_s;
        const double speedup = r.wall_s > 0.0 ? base_wall / r.wall_s : 0.0;
        char digest[32];
        std::snprintf(digest, sizeof digest, "%016llx",
                      static_cast<unsigned long long>(r.checksum));
        print_row("optimized", leg, speedup, digest);
        rows.push(Json::object()
                      .kv("shards", r.shards)
                      .kv("wall_s", r.wall_s)
                      .kv("steal_cpu_s", leg.steal_cpu_s)
                      .kv("speedup", speedup)
                      .kv("epochs", r.epochs)
                      .kv("forwarded", r.forwarded)
                      .kv("completion_s", r.metrics.completion_s)
                      .kv("tasks_completed", r.metrics.tasks_completed)
                      .kv("checksum", std::string(digest)));
    }

    // --- Rover row: the ported rover kinds ride the same engine and
    // must hold the same invariance contract at swarm scale. The
    // course outlasts the mission window, so this leg measures
    // sustained rover-actor load, checksum-gated like the rest. ---
    platform::ScenarioConfig rover_sc = shard_scenario();
    rover_sc.kind = platform::ScenarioKind::TreasureHunt;
    rover_sc.course_legs = 64;
    platform::DeploymentConfig rover_dep = dep;
    rover_dep.device_spec = edge::DeviceSpec::rover();
    bool rover_invariant = true;
    Json rover_rows = Json::array();
    std::uint64_t rover_ref = 0;
    double rover_base_wall = 0.0;
    for (int n : shard_counts()) {
        const Leg leg = run_leg(rover_sc, opt, rover_dep, n);
        const platform::ShardedScenarioResult& r = leg.r;
        if (rover_base_wall == 0.0) {
            rover_ref = r.checksum;
            rover_base_wall = r.wall_s;
        } else if (r.checksum != rover_ref) {
            rover_invariant = false;
        }
        const double speedup =
            r.wall_s > 0.0 ? rover_base_wall / r.wall_s : 0.0;
        char digest[32];
        std::snprintf(digest, sizeof digest, "%016llx",
                      static_cast<unsigned long long>(r.checksum));
        print_row("rover", leg, speedup, digest);
        rover_rows.push(Json::object()
                            .kv("shards", r.shards)
                            .kv("wall_s", r.wall_s)
                            .kv("steal_cpu_s", leg.steal_cpu_s)
                            .kv("speedup", speedup)
                            .kv("epochs", r.epochs)
                            .kv("forwarded", r.forwarded)
                            .kv("completion_s", r.metrics.completion_s)
                            .kv("tasks_completed",
                                r.metrics.tasks_completed)
                            .kv("checksum", std::string(digest)));
    }

    // --- Gates ---
    const double epoch_reduction =
        epochs_at_1 > 0 ? static_cast<double>(baseline.epochs) /
                              static_cast<double>(epochs_at_1)
                        : 0.0;
    const bool epochs_ok = epoch_reduction >= 3.0;
    const double speedup_at_4 =
        wall_at_4 > 0.0 ? base_wall / wall_at_4 : 0.0;
    const bool speedup_enforced = hw >= 4;
    const bool speedup_ok = !speedup_enforced || speedup_at_4 > 1.0;

    std::printf("\nchecksum invariant across all rows: %s\n",
                invariant ? "yes" : "NO — BUG");
    std::printf("rover checksum invariant across shard counts: %s\n",
                rover_invariant ? "yes" : "NO — BUG");
    std::printf("epoch reduction at shards=1 (baseline %llu -> %llu): "
                "%.1fx %s\n",
                static_cast<unsigned long long>(baseline.epochs),
                static_cast<unsigned long long>(epochs_at_1),
                epoch_reduction, epochs_ok ? "(>= 3x: PASS)" : "(< 3x: FAIL)");
    if (speedup_enforced) {
        std::printf("speedup at shards=4: %.2fx %s\n", speedup_at_4,
                    speedup_ok ? "(> 1.0: PASS)" : "(<= 1.0: FAIL)");
    } else {
        std::printf("speedup at shards=4: SKIPPED (hw_threads < shards) — "
                    "%u thread(s); shard threads serialize, so the wall "
                    "column only shows barrier overhead here. Re-run on a "
                    "multi-core host for the scaling gate (see "
                    "EXPERIMENTS.md).\n",
                    hw);
    }

    write_bench_json(
        "scenario_shards",
        Json::object()
            .kv("bench", "fig11_scenario_shards")
            .kv("hw_threads", static_cast<std::uint64_t>(hw))
            .kv("devices",
                static_cast<std::uint64_t>(shard_deployment().devices))
            .kv("checksum_invariant", invariant)
            .kv("rover_checksum_invariant", rover_invariant)
            .kv("baseline", Json::object()
                                .kv("wall_s", baseline.wall_s)
                                .kv("steal_cpu_s", base_leg.steal_cpu_s)
                                .kv("epochs", baseline.epochs)
                                .kv("forwarded", baseline.forwarded)
                                .kv("checksum", std::string(base_digest)))
            .kv("epoch_reduction", epoch_reduction)
            .kv("speedup_at_4", speedup_at_4)
            .kv("speedup_gate",
                std::string(speedup_enforced
                                ? (speedup_ok ? "pass" : "fail")
                                : "skipped (hw_threads < shards)"))
            .kv("rows", rows)
            .kv("rover_rows", rover_rows));
    std::printf("(The speedup column is the point of the sharded runtime; "
                "the checksum column is its correctness contract.)\n");
    return (invariant && rover_invariant && epochs_ok && speedup_ok) ? 0
                                                                     : 1;
}
