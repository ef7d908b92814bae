/**
 * @file
 * Fleet service-mode capacity bench (BENCH_fleet.json).
 *
 * Runs a mixed-tenant fleet profile (built in, or --profile FILE)
 * through platform::Fleet at a ladder of worker counts and reports:
 *
 *  - capacity: swarms-per-host-second vs worker count, with the
 *    process CPU seconds each row burned beside its wall time (CPU
 *    well above workers x wall, or superlinear scaling, shows up at a
 *    glance);
 *  - interference: per-tenant mean in-engine wall time at full
 *    contention vs solo (the cross-tenant slowdown curve);
 *  - correctness gates, enforced with a nonzero exit:
 *      every per-swarm checksum at EVERY worker count must equal the
 *      checksum of a solo platform::run() of the same tenant config
 *      and seed, every record must be ok, and every line the metrics
 *      pipeline streams must parse as JSON.
 *
 * The default profile is 4 tenants x 16 replicas = 64 swarms, drone
 * and rover kinds alike, mixing platforms (hivemind /
 * distributed_edge / centralized_faas) and one chaos tenant with a
 * fault plan.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "platform/fleet.hpp"

using namespace hivemind;

namespace {

platform::ScenarioConfig
small_scenario(platform::ScenarioKind kind)
{
    platform::ScenarioConfig sc;
    sc.kind = kind;
    sc.field_size_m = 64.0;
    sc.targets = 8;
    sc.time_cap = 120 * sim::kSecond;
    sc.course_legs = 3;
    sc.maze_side = 7;
    return sc;
}

/** 4 tenants x 16 replicas = 64 swarms, mixed kinds + platforms. */
platform::FleetProfile
default_profile()
{
    platform::FleetProfile fleet;
    fleet.name = "capacity64";

    platform::FleetTenant items;
    items.name = "items_hive";
    items.replicas = 16;
    items.seed0 = 1000;
    items.platform = "hivemind";
    items.devices = 8;
    items.servers = 4;
    items.scenario =
        small_scenario(platform::ScenarioKind::StationaryItems);
    items.scenario.shards = 2;
    fleet.tenants.push_back(items);

    platform::FleetTenant people;
    people.name = "people_edge";
    people.replicas = 16;
    people.seed0 = 2000;
    people.platform = "distributed_edge";
    people.devices = 6;
    people.servers = 4;
    people.scenario =
        small_scenario(platform::ScenarioKind::MovingPeople);
    people.scenario.targets = 6;
    fleet.tenants.push_back(people);

    platform::FleetTenant rovers;
    rovers.name = "treasure_faas";
    rovers.replicas = 16;
    rovers.seed0 = 3000;
    rovers.platform = "centralized_faas";
    rovers.devices = 4;
    rovers.servers = 4;
    rovers.scenario =
        small_scenario(platform::ScenarioKind::TreasureHunt);
    fleet.tenants.push_back(rovers);

    platform::FleetTenant chaos;
    chaos.name = "chaos_hive";
    chaos.replicas = 16;
    chaos.seed0 = 4000;
    chaos.platform = "hivemind";
    chaos.devices = 8;
    chaos.servers = 4;
    chaos.scenario =
        small_scenario(platform::ScenarioKind::StationaryItems);
    chaos.scenario.shards = 2;
    chaos.scenario.faults.device_crash(10 * sim::kSecond, 1,
                                       20 * sim::kSecond)
        .link_burst(30 * sim::kSecond, 10 * sim::kSecond);
    fleet.tenants.push_back(chaos);
    return fleet;
}

platform::FleetProfile
load_profile(const std::string& path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "fleet_capacity: cannot open %s\n",
                     path.c_str());
        std::exit(2);
    }
    std::ostringstream text;
    text << in.rdbuf();
    return platform::fleet_from_json(text.str());
}

/** User + system CPU seconds this process has used so far. */
double
process_cpu_s()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
            static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/** Every line must be one complete JSON value. */
std::size_t
validate_jsonl(const std::string& jsonl)
{
    std::size_t lines = 0;
    std::istringstream in(jsonl);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        util::JsonCursor cur(line, "fleet JSONL");
        cur.skip_value();
        if (!cur.done())
            cur.fail("trailing content on JSONL line");
        ++lines;
    }
    return lines;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string profile_path;
    int extra_workers = 0;
    std::string jsonl_path;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--profile") && i + 1 < argc)
            profile_path = argv[++i];
        else if (!std::strcmp(argv[i], "--workers") && i + 1 < argc)
            extra_workers = std::atoi(argv[++i]);
        else if (!std::strcmp(argv[i], "--jsonl") && i + 1 < argc)
            jsonl_path = argv[++i];
        else {
            std::fprintf(stderr,
                         "usage: fleet_capacity [--profile FILE] "
                         "[--workers N] [--jsonl FILE]\n");
            return 2;
        }
    }

    const platform::FleetProfile profile =
        profile_path.empty() ? default_profile()
                             : load_profile(profile_path);
    platform::Fleet fleet{profile};
    const std::size_t swarms = profile.swarms();

    // Solo references: each job run directly through platform::run(),
    // outside the fleet driver. run_sweep parallelism is irrelevant to
    // the results — every run is an independent deterministic sim.
    struct JobKey
    {
        const platform::FleetTenant* tenant;
        int replica;
    };
    std::vector<JobKey> jobs;
    for (const platform::FleetTenant& t : profile.tenants)
        for (int r = 0; r < t.replicas; ++r)
            jobs.push_back({&t, r});
    std::vector<platform::RunResult> solo =
        bench::run_sweep(jobs, [](const JobKey& j) {
            return platform::run(
                j.tenant->scenario,
                platform::platform_from_name(j.tenant->platform),
                platform::Fleet::deployment_of(*j.tenant, j.replica));
        });

    bench::print_header(
        "fleet_capacity",
        "swarms/host vs workers, cross-tenant interference");
    std::printf("%zu swarms, %zu tenants\n\n", swarms,
                profile.tenants.size());
    std::printf("%-8s %10s %10s %12s %10s %8s\n", "workers", "wall_s",
                "cpu_s", "swarms/s", "queue_hw", "gates");

    // A fixed ladder, not capped at the core count: workers are
    // threads, and the checksum gate must hold under oversubscription
    // too (that is where scheduling interleavings get adversarial).
    std::vector<int> counts = {1, 2, 4, 8};
    const unsigned hw = bench::sweep_threads();
    if (hw > 8)
        counts.push_back(static_cast<int>(hw));
    if (extra_workers >= 1 &&
        std::find(counts.begin(), counts.end(), extra_workers) ==
            counts.end())
        counts.push_back(extra_workers);

    bool all_ok = true;
    bench::Json capacity = bench::Json::array();
    // Per-tenant mean engine wall at workers=1 and at the max count.
    std::map<std::string, double> solo_wall, contended_wall;
    std::map<std::string, int> tenant_swarms;
    for (std::size_t w_i = 0; w_i < counts.size(); ++w_i) {
        const int w = counts[w_i];
        std::ostringstream jsonl;
        platform::FleetRunOptions opt;
        opt.workers = w;
        opt.metrics = &jsonl;
        const double cpu0 = process_cpu_s();
        platform::FleetResult res = fleet.run(opt);
        const double cpu_s = process_cpu_s() - cpu0;

        bool gates_ok = res.failed == 0;
        for (std::size_t i = 0; i < res.records.size(); ++i) {
            const platform::SwarmRecord& rec = res.records[i];
            if (!rec.ok) {
                std::fprintf(stderr, "  FAIL %s/%d: %s\n",
                             rec.tenant.c_str(), rec.replica,
                             rec.error.c_str());
                gates_ok = false;
                continue;
            }
            if (rec.result.checksum != solo[i].checksum) {
                std::fprintf(
                    stderr,
                    "  CHECKSUM MISMATCH %s/%d at workers=%d: "
                    "fleet %016llx vs solo %016llx\n",
                    rec.tenant.c_str(), rec.replica, w,
                    static_cast<unsigned long long>(
                        rec.result.checksum),
                    static_cast<unsigned long long>(
                        solo[i].checksum));
                gates_ok = false;
            }
        }
        std::size_t jsonl_lines = 0;
        try {
            jsonl_lines = validate_jsonl(jsonl.str());
        } catch (const std::exception& e) {
            std::fprintf(stderr, "  BAD JSONL: %s\n", e.what());
            gates_ok = false;
        }
        if (jsonl_lines != res.records.size()) {
            std::fprintf(stderr,
                         "  JSONL line count %zu != %zu records\n",
                         jsonl_lines, res.records.size());
            gates_ok = false;
        }

        const bool is_min = w_i == 0;
        const bool is_max = w_i + 1 == counts.size();
        for (const platform::SwarmRecord& rec : res.records) {
            if (!rec.ok)
                continue;
            if (is_min) {
                solo_wall[rec.tenant] += rec.result.wall_s;
                ++tenant_swarms[rec.tenant];
            }
            if (is_max)
                contended_wall[rec.tenant] += rec.result.wall_s;
        }
        if (is_max && !jsonl_path.empty()) {
            std::ofstream out(jsonl_path);
            out << jsonl.str();
        }

        const double rate =
            res.wall_s > 0.0 ? static_cast<double>(swarms) / res.wall_s
                             : 0.0;
        std::printf("%-8d %10.3f %10.3f %12.1f %10zu %8s\n", w,
                    res.wall_s, cpu_s, rate, res.queue_high_water,
                    gates_ok ? "ok" : "FAIL");
        capacity.push(bench::Json::object()
                          .kv("workers", w)
                          .kv("wall_s", res.wall_s)
                          .kv("cpu_s", cpu_s)
                          .kv("swarms_per_s", rate)
                          .kv("queue_high_water",
                              static_cast<std::uint64_t>(
                                  res.queue_high_water))
                          .kv("checksum_ok", gates_ok));
        all_ok = all_ok && gates_ok;
    }

    std::printf("\n%-16s %12s %14s %10s\n", "tenant", "solo_wall_s",
                "contended_s", "slowdown");
    bench::Json interference = bench::Json::array();
    for (const auto& [tenant, wall] : solo_wall) {
        const int n = tenant_swarms[tenant];
        const double s = wall / n;
        const double c = contended_wall[tenant] / n;
        const double slow = s > 0.0 ? c / s : 0.0;
        std::printf("%-16s %12.4f %14.4f %9.2fx\n", tenant.c_str(), s,
                    c, slow);
        interference.push(bench::Json::object()
                              .kv("tenant", tenant)
                              .kv("solo_wall_s", s)
                              .kv("contended_wall_s", c)
                              .kv("slowdown", slow));
    }

    bench::Json doc =
        bench::Json::object()
            .kv("bench", "fleet")
            .kv("hw_threads", static_cast<std::uint64_t>(
                                  std::thread::hardware_concurrency()))
            .kv("profile", profile.name)
            .kv("swarms", static_cast<std::uint64_t>(swarms))
            .kv("tenants",
                static_cast<std::uint64_t>(profile.tenants.size()))
            .kv("capacity", capacity)
            .kv("interference", interference)
            .kv("all_checksums_match_solo", all_ok);
    bench::write_bench_json("fleet", doc);

    if (!all_ok) {
        std::fprintf(stderr, "\nfleet_capacity: GATES FAILED\n");
        return 1;
    }
    std::printf("\nall %zu swarm checksums match solo runs at every "
                "worker count\n",
                swarms);
    return 0;
}
