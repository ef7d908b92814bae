/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload swarm8k|swarm8k_s4|fleet --seed N --seconds S
 *             --trace 0|1 [--state-dir DIR] [--out-dir DIR]
 *
 * Workloads (closed loops: one mission at a time; the fleet is a fixed
 * job list drained by nproc workers):
 *  - swarm8k:    Scenario A at Fig. 17 scale (8192 drones, 6144
 *                servers), HiveMind preset, shards = 1, 5 s missions
 *                cycling three worlds derived from the seed.
 *  - swarm8k_s4: the same inputs at shards = 4; its checksum must
 *                equal a shards = 1 run of the same world. Refused when
 *                nproc < 4.
 *  - fleet:      60 small swarms over four scenario kinds and three
 *                presets, one chaos tenant, through platform::Fleet
 *                with records streamed through MetricsPipeline.
 *
 * perfbench/predictions.json records why each workload exists, which
 * end-to-end metric each per-layer metric should move, and the
 * development and held-out seeds.
 *
 * --trace 0 reports the end-to-end metrics (tracing off). --trace 1
 * repeats the untraced runs for the platform metrics, then times one
 * traced call and the layer replays (replays.cpp) under the span
 * recorder, writes a Chrome trace into --out-dir and reports the
 * per-layer metrics. Every run checks its outputs: checksums repeat
 * within the run, shard counts agree, fleet swarms match solo runs,
 * and with --state-dir the fingerprint of a (workload, seed) must
 * match the one an earlier run of the same sources recorded.
 *
 * The last stdout line is one JSON object with the keys correct,
 * attempted, failed and metrics; the exit code is 0 only when correct.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "platform/fnv.hpp"
#include "platform/profile.hpp"
#include "util/json.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace hivemind;
using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string state_dir;
    std::string out_dir = ".";
};

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "swarm8k|swarm8k_s4|fleet --seed N --seconds S --trace 0|1 "
                 "[--state-dir DIR] [--out-dir DIR]\n",
                 why);
    std::exit(2);
}

Args
parse_args(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value");
            return argv[++i];
        };
        const std::string flag = argv[i];
        if (flag == "--workload")
            a.workload = value();
        else if (flag == "--seed")
            a.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (flag == "--seconds")
            a.seconds = std::strtod(value().c_str(), nullptr);
        else if (flag == "--trace")
            a.trace = std::atoi(value().c_str());
        else if (flag == "--state-dir")
            a.state_dir = value();
        else if (flag == "--out-dir")
            a.out_dir = value();
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (a.workload != "swarm8k" && a.workload != "swarm8k_s4" &&
        a.workload != "fleet")
        usage("unknown workload");
    if (!(a.seconds > 0.0) || (a.trace != 0 && a.trace != 1))
        usage("--seconds must be > 0 and --trace 0 or 1");
    return a;
}

/** Named metrics in report order. */
struct Report
{
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics;

    void add(const std::string& name, double value, const char* unit)
    {
        metrics.push_back({name, value, unit});
    }
};

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** 48 high bits of a digest: exact as a JSON number. */
double
digest48(std::uint64_t v)
{
    return static_cast<double>(v >> 16);
}

/**
 * Cross-run fingerprint check: the first run of a (key, seed) for the
 * current sources records the fingerprint, later runs must match it.
 */
void
check_fingerprint(const Args& a, const std::string& key, std::uint64_t seed,
                  const std::string& fingerprint, Ledger& ledger)
{
    std::printf("fingerprint %s %llu: %s\n", key.c_str(),
                static_cast<unsigned long long>(seed), fingerprint.c_str());
    if (a.state_dir.empty())
        return;
    const std::string path =
        a.state_dir + "/" + key + "_" + std::to_string(seed) + ".txt";
    std::ifstream in(path);
    std::string recorded;
    if (in && std::getline(in, recorded)) {
        if (recorded != fingerprint)
            ledger.fail("fingerprint of " + key + " changed within one "
                        "build: recorded '" + recorded + "', now '" +
                        fingerprint + "'");
        return;
    }
    std::ofstream out(path);
    out << fingerprint << "\n";
}

/** Fold layer replays into the per-layer report (shared by workloads). */
struct Replays
{
    CloudReplay cloud;
    NetReplay net;
    RuntimeReplay runtime;
    double kernel_ns = 0.0;
    double pending = 0.0;

    void finish(int shards, double envelopes_per_sim_s, int sim_seconds,
                std::uint64_t seed)
    {
        runtime = replay_runtime(shards, envelopes_per_sim_s, sim_seconds,
                                 seed);
        auto mean = [](double sum, std::uint64_t n) {
            return n ? sum / static_cast<double>(n) : 0.0;
        };
        pending = mean(cloud.pending_sum, cloud.pending_samples) +
            mean(net.pending_sum, net.pending_samples);
        kernel_ns = replay_kernel(static_cast<std::size_t>(pending), seed);
    }

    double cloud_s_per_sim_s() const
    {
        return (cloud.advance_s + cloud.invoke_s) / cloud.sim_s;
    }
    double net_s_per_sim_s() const
    {
        return (net.advance_s + net.send_s) / net.sim_s;
    }
    double runtime_s_per_sim_s() const { return runtime.wall_s / runtime.sim_s; }

    void report(Report& r) const
    {
        auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
        r.add("cloud.invoke_us", 1e6 * ratio(cloud.invoke_s, cloud.invokes),
              "us");
        r.add("cloud.advance_s_per_sim_s", cloud.advance_s / cloud.sim_s,
              "s/s");
        r.add("cloud.s_per_sim_s", cloud_s_per_sim_s(), "s/s");
        r.add("cloud.events_per_sim_s",
              static_cast<double>(cloud.events) / cloud.sim_s, "1/s");
        r.add("cloud.ns_per_event",
              1e9 * ratio(cloud.advance_s, static_cast<double>(cloud.events)),
              "ns");
        r.add("cloud.least_loaded_us",
              1e6 * ratio(cloud.least_loaded_s,
                          static_cast<double>(cloud.least_loaded_calls)),
              "us");
        r.add("cloud.warm_hit_ratio",
              ratio(static_cast<double>(cloud.warm),
                    static_cast<double>(cloud.cold + cloud.warm)),
              "ratio");
        r.add("cloud.cold_starts", static_cast<double>(cloud.cold), "count");
        r.add("cloud.warm_starts", static_cast<double>(cloud.warm), "count");
        r.add("core.respawns", static_cast<double>(cloud.respawns), "count");
        r.add("net.send_us", 1e6 * ratio(net.send_s, net.sends), "us");
        r.add("net.s_per_sim_s", net_s_per_sim_s(), "s/s");
        r.add("net.flows_high_water", static_cast<double>(net.flows_high_water),
              "count");
        r.add("sim.epochs_per_sim_s",
              static_cast<double>(runtime.epochs) / runtime.sim_s, "1/s");
        r.add("sim.us_per_epoch",
              1e6 * ratio(runtime.wall_s, static_cast<double>(runtime.epochs)),
              "us");
        r.add("sim.envelopes_per_epoch",
              ratio(static_cast<double>(runtime.forwarded),
                    static_cast<double>(runtime.epochs)),
              "count");
        r.add("sim.runtime_s_per_sim_s", runtime_s_per_sim_s(), "s/s");
        r.add("sim.kernel_ns_per_event", kernel_ns, "ns");
        r.add("sim.pending_depth", pending, "count");
    }
};

/** Recovery ledger fields the fleet's chaos tenant exercises. */
void
report_recovery(const fault::RecoveryMetrics& rec, Report& r)
{
    r.add("cloud.killed_invocations",
          static_cast<double>(rec.killed_invocations), "count");
    r.add("core.checkpoints_taken", static_cast<double>(rec.checkpoints_taken),
          "count");
    r.add("core.controller_failovers",
          static_cast<double>(rec.controller_failovers), "count");
    r.add("fault.offload_retries", static_cast<double>(rec.offload_retries),
          "count");
    r.add("fault.frames_dropped", static_cast<double>(rec.frames_dropped),
          "count");
    r.add("fault.reexecuted_core_ms", rec.reexecuted_core_ms, "core_ms");
}

/** Write the Chrome trace and the per-layer self-time summary. */
void
write_trace(const Args& a, Ledger& ledger)
{
    const std::string base = a.out_dir + "/trace_" + a.workload;
    if (!spans().write_chrome(base + ".json"))
        ledger.fail("cannot write " + base + ".json");
    util::Json self = util::Json::object();
    std::printf("trace: %zu spans -> %s.json; self time by layer (s):",
                spans().spans().size(), base.c_str());
    for (const auto& [layer, seconds] : spans().self_time_by_layer()) {
        std::printf(" %s=%.4f", layer.c_str(), seconds);
        self.kv(layer, seconds);
    }
    std::printf("\n");
    std::ofstream out(base + "_self_s.json");
    out << self.str() << "\n";
    if (!out)
        ledger.fail("cannot write " + base + "_self_s.json");
}

// --- Missions ----------------------------------------------------------

void
run_missions(const Args& a, Ledger& ledger, Report& report)
{
    const int shards = a.workload == "swarm8k_s4" ? 4 : 1;
    std::vector<MissionSpec> specs;
    for (int i = 0; i < kMissionWorlds; ++i)
        specs.push_back(mission_spec(mission_seed(a.seed, i), shards));
    const MissionSpec& spec = specs.front();

    // Set-up: each world's call with the mission capped at one simulated
    // second (actor, topology and cloud wiring plus one engine slice).
    auto one_second = [](MissionSpec s) {
        s.scenario.time_cap = sim::kSecond;
        return s;
    };
    std::vector<double> setup;
    std::optional<std::uint64_t> world0_second;
    for (const MissionSpec& s : specs) {
        const MissionRun r = run_mission(one_second(s), ledger);
        if (!r.ok)
            continue;
        setup.push_back(r.call_s);
        if (&s == &spec)
            world0_second = r.result.checksum;
    }

    // Shard-count invariance: world 0's one-second mission must match
    // at shards = 1. Full windows are checked against swarm8k through
    // the fingerprint store, which both mission workloads share.
    if (shards > 1 && world0_second) {
        const MissionRun ref = run_mission(
            one_second(mission_spec(spec.deployment.seed, 1)), ledger);
        if (ref.ok && ref.result.checksum != *world0_second)
            ledger.fail("shards=" + std::to_string(shards) + " checksum " +
                        hex(*world0_second) + " != shards=1 checksum " +
                        hex(ref.result.checksum));
    }

    // Measured closed loop: the worlds in turn, back to back, for
    // --seconds and at least once each. Each world's first result is
    // kept whole; its repeats must match it.
    struct World
    {
        std::optional<platform::ShardedScenarioResult> first;
        std::vector<double> host_per_sim, tasks_rate, call, engine;
    };
    std::vector<World> worlds(specs.size());
    std::vector<double> engine_wall;
    const double cpu0 = cpu_s();
    const double w0 = now_s();
    std::size_t n = 0;
    do {
        const std::size_t i = n++ % specs.size();
        World& w = worlds[i];
        MissionRun r = run_mission(specs[i], ledger);
        if (!r.ok)
            continue;
        const platform::RunMetrics& m = r.result.metrics;
        if (!(m.completion_s > 0.0) || m.tasks_completed == 0) {
            ledger.fail("mission simulated no work");
            continue;
        }
        if (w.first && r.result.checksum != w.first->checksum)
            ledger.fail("mission checksum differs between repeats: " +
                        hex(r.result.checksum) + " vs " +
                        hex(w.first->checksum));
        w.host_per_sim.push_back(r.call_s / m.completion_s);
        w.tasks_rate.push_back(static_cast<double>(m.tasks_completed) /
                               r.call_s);
        w.call.push_back(r.call_s);
        w.engine.push_back(r.result.wall_s);
        engine_wall.push_back(r.result.wall_s);
        if (!w.first) {
            check_fingerprint(a, "mission", specs[i].deployment.seed,
                              hex(r.result.checksum) + " tasks=" +
                                  std::to_string(m.tasks_completed) +
                                  " p50=" +
                                  util::format_double(m.task_latency_s.median()) +
                                  " p99=" +
                                  util::format_double(m.task_latency_s.p99()),
                              ledger);
            w.first = std::move(r.result);
        }
    } while (now_s() - w0 < a.seconds || n < specs.size());
    const double loop_wall = now_s() - w0;
    const double loop_cpu = cpu_s() - cpu0;
    const double rss = peak_rss_mb();  // Before the traced call and replays.
    if (!worlds.front().first)
        return;

    // Per-world medians, averaged over the worlds.
    auto across = [&](std::vector<double> World::*field, bool invert) {
        double sum = 0.0;
        int k = 0;
        for (const World& w : worlds)
            if (!(w.*field).empty()) {
                const double v = median(w.*field);
                sum += invert ? 1.0 / v : v;
                ++k;
            }
        return k ? sum / k : 0.0;
    };
    for (std::size_t i = 0; i < worlds.size(); ++i) {
        if (!worlds[i].first)
            continue;
        std::printf("mission world %zu (seed %llu, shards=%d): checksum %s, "
                    "epochs %llu, forwarded %llu, call walls (s):",
                    i,
                    static_cast<unsigned long long>(specs[i].deployment.seed),
                    shards, hex(worlds[i].first->checksum).c_str(),
                    static_cast<unsigned long long>(worlds[i].first->epochs),
                    static_cast<unsigned long long>(
                        worlds[i].first->forwarded));
        for (double w : worlds[i].call)
            std::printf(" %.3f", w);
        std::printf("\n");
    }

    if (a.trace == 0) {
        report.add("host_s_per_sim_s", across(&World::host_per_sim, false),
                   "s/s");
        report.add("sim_tasks_per_host_s", across(&World::tasks_rate, false),
                   "1/s");
        report.add("swarms_per_s", across(&World::call, true), "1/s");
        report.add("setup_s", median(setup), "s");
        return;
    }

    // Traced: the first world's call once more under the recorder, then
    // the layer replays of that world's traffic.
    const platform::ShardedScenarioResult& first = *worlds.front().first;
    const platform::RunMetrics& m = first.metrics;
    const double sim_s = m.completion_s;
    spans().enable(true);
    spans().set_run(1);
    const MissionRun traced = run_mission(spec, ledger);
    if (traced.ok && traced.result.checksum != first.checksum)
        ledger.fail("traced mission checksum differs from untraced");

    Traffic traffic;
    traffic.scenario = spec.scenario;
    traffic.deployment = spec.deployment;
    traffic.preset = kMissionPreset;
    traffic.sim_seconds = static_cast<int>(std::ceil(sim_s));
    traffic.tasks_per_sim_s = static_cast<double>(m.tasks_completed) / sim_s;
    Replays rp;
    spans().set_run(2);
    replay_cloud(traffic, rp.cloud);
    replay_net(traffic, rp.net);
    rp.finish(shards, static_cast<double>(first.forwarded) / sim_s,
              traffic.sim_seconds, a.seed);
    spans().enable(false);

    const double untraced = median(worlds.front().engine);
    const double untraced_call = median(worlds.front().call);
    const double mission_host = median(worlds.front().host_per_sim);
    report.add("platform.epochs_per_sim_s",
               static_cast<double>(first.epochs) / sim_s, "1/s");
    report.add("platform.forwarded_per_sim_s",
               static_cast<double>(first.forwarded) / sim_s, "1/s");
    report.add("platform.cpu_per_wall", loop_cpu / loop_wall, "ratio");
    report.add("platform.swarm_wall_p50_s", percentile(engine_wall, 50.0),
               "s");
    report.add("platform.swarm_wall_p90_s", percentile(engine_wall, 90.0),
               "s");
    report.add("platform.pipeline_high_water", 0.0, "count");
    report.add("platform.peak_rss_mb", rss, "MB");
    report.add("platform.sim_task_p50_ms", 1e3 * m.task_latency_s.median(),
               "sim_ms");
    report.add("platform.sim_task_p99_ms", 1e3 * m.task_latency_s.p99(),
               "sim_ms");
    report.add("platform.sim_tasks_completed",
               static_cast<double>(m.tasks_completed), "count");
    report.add("platform.checksum", digest48(first.checksum), "digest");
    report.add("platform.residual_s_per_sim_s",
               untraced / sim_s - rp.cloud_s_per_sim_s() -
                   rp.net_s_per_sim_s() - rp.runtime_s_per_sim_s(),
               "s/s");
    rp.report(report);
    report_recovery(m.recovery, report);
    report.add("trace.overhead_s", traced.call_s - untraced_call, "s");
    std::printf("cloud share: host_s_per_sim_s %.4f vs cloud replay "
                "advance %.4f s/s + invoke %.3f us x %.0f/s = %.4f s/s "
                "(%.0f%%)\n",
                mission_host, rp.cloud.advance_s / rp.cloud.sim_s,
                1e6 * rp.cloud.invoke_s / static_cast<double>(rp.cloud.invokes),
                static_cast<double>(rp.cloud.invokes) / rp.cloud.sim_s,
                rp.cloud_s_per_sim_s(),
                100.0 * rp.cloud_s_per_sim_s() / mission_host);
    write_trace(a, ledger);
}

// --- Fleet -------------------------------------------------------------

void
run_fleet(const Args& a, Ledger& ledger, Report& report)
{
    const platform::FleetProfile profile = fleet_profile(a.seed);
    const std::string profile_json = platform::fleet_to_json(profile);
    const int workers = nproc();

    auto solo = [&](const platform::FleetTenant& t, int replica)
        -> std::optional<platform::RunResult> {
        ++ledger.attempted;
        try {
            return platform::run(t.scenario,
                                 platform::platform_from_name(t.platform),
                                 platform::Fleet::deployment_of(t, replica));
        } catch (const std::exception& e) {
            ledger.fail("solo " + t.name + " threw: " + e.what());
            return std::nullopt;
        }
    };

    // Set-up: profile parse + Fleet construction + one solo run per
    // tenant.
    std::vector<double> setup;
    if (a.trace == 0) {
        for (int i = 0; i < 5; ++i) {
            const double t0 = now_s();
            const platform::FleetProfile parsed =
                platform::fleet_from_json(profile_json);
            const platform::Fleet fleet{parsed};
            for (const platform::FleetTenant& t : fleet.profile().tenants)
                solo(t, 0);
            setup.push_back(now_s() - t0);
            if (!(parsed == profile))
                ledger.fail("fleet profile does not round-trip");
        }
    }

    // Solo references for every job, in the fleet's job order.
    std::vector<std::uint64_t> reference;
    for (const platform::FleetTenant& t : profile.tenants)
        for (int r = 0; r < t.replicas; ++r) {
            const auto res = solo(t, r);
            reference.push_back(res ? res->checksum : 0);
        }

    const platform::Fleet fleet{profile};
    std::optional<platform::FleetResult> kept;
    std::vector<double> pass_wall;
    std::vector<double> rate, host_per_sim, tasks_rate, swarm_wall;
    std::size_t high_water = 0;
    auto run_once = [&]() -> std::optional<platform::FleetResult> {
        std::ostringstream sink;
        platform::FleetRunOptions opt;
        opt.workers = workers;
        opt.metrics = &sink;
        platform::FleetResult res = fleet.run(opt);
        ledger.attempted += res.records.size();
        const std::string jsonl = sink.str();
        const auto lines = static_cast<std::size_t>(
            std::count(jsonl.begin(), jsonl.end(), '\n'));
        if (lines != res.records.size())
            ledger.fail("metrics pipeline wrote " + std::to_string(lines) +
                        " lines for " + std::to_string(res.records.size()) +
                        " records");
        if (res.records.size() != reference.size()) {
            ledger.fail("fleet returned the wrong number of records");
            return std::nullopt;
        }
        for (std::size_t i = 0; i < res.records.size(); ++i) {
            const platform::SwarmRecord& rec = res.records[i];
            if (!rec.ok)
                ledger.fail("swarm " + rec.tenant + "/" +
                            std::to_string(rec.replica) + " failed: " +
                            rec.error);
            else if (rec.result.checksum != reference[i])
                ledger.fail("swarm " + rec.tenant + "/" +
                            std::to_string(rec.replica) + " checksum " +
                            hex(rec.result.checksum) + " != solo " +
                            hex(reference[i]));
        }
        return res;
    };

    const double cpu0 = cpu_s();
    const double w0 = now_s();
    do {
        std::optional<platform::FleetResult> res = run_once();
        if (!res)
            continue;
        double sim_s = 0.0, tasks = 0.0;
        for (const platform::SwarmRecord& rec : res->records) {
            sim_s += rec.result.metrics.completion_s;
            tasks += static_cast<double>(rec.result.metrics.tasks_completed);
            swarm_wall.push_back(rec.result.wall_s);
        }
        rate.push_back(static_cast<double>(res->records.size()) / res->wall_s);
        host_per_sim.push_back(res->wall_s / sim_s);
        tasks_rate.push_back(tasks / res->wall_s);
        high_water = std::max(high_water, res->queue_high_water);
        pass_wall.push_back(res->wall_s);
        if (!kept)
            kept = std::move(res);
    } while (now_s() - w0 < a.seconds);
    const double loop_wall = now_s() - w0;
    const double loop_cpu = cpu_s() - cpu0;
    const double rss = peak_rss_mb();  // Before the traced pass and replays.
    if (!kept)
        return;

    // Fingerprint and simulated totals of one (deterministic) pass.
    const platform::FleetResult& first = *kept;
    std::uint64_t digest = platform::fnv::kBasis;
    platform::RunMetrics merged;
    std::uint64_t epochs = 0;
    double sim_s = 0.0, engine_s = 0.0;
    for (const platform::SwarmRecord& rec : first.records) {
        platform::fnv::mix(digest, rec.result.checksum);
        merged.merge(rec.result.metrics);
        epochs += rec.result.epochs;
        sim_s += rec.result.metrics.completion_s;
        engine_s += rec.result.wall_s;
    }
    check_fingerprint(a, "fleet", a.seed,
                      hex(digest) + " tasks=" +
                          std::to_string(merged.tasks_completed) + " p50=" +
                          util::format_double(merged.task_latency_s.median()) +
                          " p99=" +
                          util::format_double(merged.task_latency_s.p99()),
                      ledger);
    std::printf("fleet: %zu passes of %zu swarms on %d workers, digest %s\n",
                pass_wall.size(), first.records.size(), workers,
                hex(digest).c_str());
    for (const platform::FleetTenant& t : profile.tenants) {
        double t_sim = 0.0, t_wall = 0.0;
        std::uint64_t t_tasks = 0;
        for (const platform::SwarmRecord& rec : first.records)
            if (rec.tenant == t.name) {
                t_sim += rec.result.metrics.completion_s;
                t_wall += rec.result.wall_s;
                t_tasks += rec.result.metrics.tasks_completed;
            }
        std::printf("  tenant %-14s x%d: sim %.1f s, engine wall %.4f s, "
                    "tasks %llu (totals)\n",
                    t.name.c_str(), t.replicas, t_sim, t_wall,
                    static_cast<unsigned long long>(t_tasks));
    }

    if (a.trace == 0) {
        report.add("host_s_per_sim_s", median(host_per_sim), "s/s");
        report.add("sim_tasks_per_host_s", median(tasks_rate), "1/s");
        report.add("swarms_per_s", median(rate), "1/s");
        report.add("setup_s", median(setup), "s");
        return;
    }

    spans().enable(true);
    spans().set_run(1);
    double traced_wall = 0.0;
    {
        SpanRecorder::Scope span(spans(), "platform.fleet_run");
        const double t0 = now_s();
        run_once();
        traced_wall = now_s() - t0;
    }

    // Replays: each tenant's configuration at its own measured rate.
    spans().set_run(2);
    Replays rp;
    int sim_seconds = 0;
    for (const platform::FleetTenant& t : profile.tenants) {
        double t_sim = 0.0, t_tasks = 0.0;
        int n = 0;
        for (const platform::SwarmRecord& rec : first.records)
            if (rec.tenant == t.name) {
                t_sim += rec.result.metrics.completion_s;
                t_tasks +=
                    static_cast<double>(rec.result.metrics.tasks_completed);
                ++n;
            }
        Traffic traffic;
        traffic.scenario = t.scenario;
        traffic.deployment = platform::Fleet::deployment_of(t, 0);
        traffic.preset = t.platform;
        traffic.sim_seconds =
            std::max(1, static_cast<int>(std::ceil(t_sim / std::max(n, 1))));
        traffic.tasks_per_sim_s = t_sim > 0.0 ? t_tasks / t_sim : 0.0;
        replay_cloud(traffic, rp.cloud);
        replay_net(traffic, rp.net);
        sim_seconds += traffic.sim_seconds;
    }
    // Every tenant runs at shards = 1, where the runtime delivers
    // same-shard posts directly: no cross-shard envelopes to replay.
    rp.finish(1, 0.0, sim_seconds, a.seed);
    spans().enable(false);

    report.add("platform.epochs_per_sim_s", static_cast<double>(epochs) / sim_s,
               "1/s");
    report.add("platform.forwarded_per_sim_s", 0.0, "1/s");
    report.add("platform.cpu_per_wall", loop_cpu / loop_wall, "ratio");
    report.add("platform.swarm_wall_p50_s", percentile(swarm_wall, 50.0), "s");
    report.add("platform.swarm_wall_p90_s", percentile(swarm_wall, 90.0), "s");
    report.add("platform.pipeline_high_water", static_cast<double>(high_water),
               "count");
    report.add("platform.peak_rss_mb", rss, "MB");
    report.add("platform.sim_task_p50_ms",
               1e3 * merged.task_latency_s.median(), "sim_ms");
    report.add("platform.sim_task_p99_ms", 1e3 * merged.task_latency_s.p99(),
               "sim_ms");
    report.add("platform.sim_tasks_completed",
               static_cast<double>(merged.tasks_completed), "count");
    report.add("platform.checksum", digest48(digest), "digest");
    report.add("platform.residual_s_per_sim_s",
               engine_s / sim_s - rp.cloud_s_per_sim_s() -
                   rp.net_s_per_sim_s() - rp.runtime_s_per_sim_s(),
               "s/s");
    rp.report(report);
    report_recovery(merged.recovery, report);
    report.add("trace.overhead_s", traced_wall - median(pass_wall), "s");
    write_trace(a, ledger);
}

}  // namespace

int
main(int argc, char** argv)
{
    const Args a = parse_args(argc, argv);
    const int cpus = nproc();
    if (a.workload == "swarm8k_s4" && cpus < 4) {
        std::printf("REFUSED: swarm8k_s4 runs 4 shard threads and needs "
                    "nproc >= 4; this host has %d. An oversubscribed "
                    "number would be meaningless.\n",
                    cpus);
        std::fprintf(stderr, "perfbench: REFUSED (nproc %d < 4)\n", cpus);
        return 3;
    }

    const double wall0 = now_s();
    Ledger ledger;
    Report report;
    try {
        if (a.workload == "fleet")
            run_fleet(a, ledger, report);
        else
            run_missions(a, ledger, report);
    } catch (const std::exception& e) {
        ledger.fail(std::string("benchmark threw: ") + e.what());
    }
    if (ledger.attempted == 0)
        ledger.fail("no operation ran");

    const double wall = now_s() - wall0;
    const double cpu = cpu_s();
    if (a.trace == 1) {
        report.add("host.nproc", cpus, "count");
        report.add("host.cpu_s", cpu, "s");
        report.add("host.wall_s", wall, "s");
    }
    for (const Report::Metric& m : report.metrics) {
        std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        if (!std::isfinite(m.value))
            ledger.fail("metric " + m.name + " is not finite");
    }
    const bool correct = ledger.failed == 0;
    std::printf("%s\n",
                util::Json::object()
                    .kv("host",
                        util::Json::object()
                            .kv("workload", a.workload)
                            .kv("seed", a.seed)
                            .kv("trace", a.trace)
                            .kv("nproc", cpus)
                            .kv("hardware_concurrency",
                                std::thread::hardware_concurrency())
                            .kv("build_type", PERFBENCH_BUILD_TYPE)
                            .kv("cpu_s", cpu)
                            .kv("wall_s", wall))
                    .str()
                    .c_str());

    util::Json metrics = util::Json::object();
    for (const Report::Metric& m : report.metrics)
        metrics.kv(m.name, util::Json::object()
                               .kv("value", std::isfinite(m.value) ? m.value
                                                                   : 0.0)
                               .kv("unit", m.unit));
    std::printf("%s\n", util::Json::object()
                            .kv("correct", correct)
                            .kv("attempted", ledger.attempted)
                            .kv("failed", ledger.failed)
                            .kv("metrics", metrics)
                            .str()
                            .c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
