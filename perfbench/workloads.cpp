#include <exception>

#include "bench.hpp"

namespace perfbench {

using namespace hivemind;

std::uint64_t
mission_seed(std::uint64_t seed, int i)
{
    if (i == 0)
        return seed;
    // splitmix64 of (seed, i), kept below 2^53 like every seed here.
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(i);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e9b5ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return (z ^ (z >> 31)) >> 11;
}

MissionSpec
mission_spec(std::uint64_t seed, int shards)
{
    // Scenario A (Stationary Items) lifted to the paper's Fig. 17
    // scale: 8192 drones, 30 items in a 512 m field, infrastructure
    // scaled with the swarm (12 x 8192/16 = 6144 servers), HiveMind
    // preset, over a fixed mission window.
    MissionSpec m;
    m.scenario.kind = platform::ScenarioKind::StationaryItems;
    m.scenario.targets = 30;
    m.scenario.field_size_m = 512.0;
    m.scenario.time_cap = kMissionSeconds * sim::kSecond;
    m.scenario.shards = shards;
    m.deployment.devices = 8192;
    m.deployment.servers = 12;
    m.deployment.cores_per_server = 40;
    m.deployment.scale_infra = true;
    m.deployment.seed = seed;
    m.shards = shards;
    return m;
}

namespace {

platform::ScenarioConfig
small_scenario(platform::ScenarioKind kind)
{
    platform::ScenarioConfig sc;
    sc.kind = kind;
    sc.field_size_m = 128.0;
    sc.targets = 8;
    // A fixed window: swarms that reach their goal early stop there,
    // the rest stop at the cap, so no seed grows one swarm into a
    // straggler that alone sets a fleet pass's makespan.
    sc.time_cap = 30 * sim::kSecond;
    sc.course_legs = 3;
    sc.maze_side = 7;
    sc.shards = 1;
    return sc;
}

platform::FleetTenant
tenant(const char* name, const char* preset, platform::ScenarioKind kind,
       std::size_t devices, std::size_t servers)
{
    platform::FleetTenant t;
    t.name = name;
    t.platform = preset;
    t.devices = devices;
    t.servers = servers;
    t.replicas = 12;
    t.scenario = small_scenario(kind);
    return t;
}

}  // namespace

platform::FleetProfile
fleet_profile(std::uint64_t seed)
{
    using K = platform::ScenarioKind;
    platform::FleetProfile fleet;
    fleet.name = "perfbench_fleet";
    // Heaviest tenants first: Fleet drains jobs in tenant order, so the
    // cheap swarms fill the workers' tails.
    fleet.tenants = {
        tenant("chaos_hive", "hivemind", K::StationaryItems, 64, 12),
        tenant("items_hive", "hivemind", K::StationaryItems, 64, 12),
        tenant("maze_hive", "hivemind", K::RoverMaze, 32, 48),
        tenant("people_faas", "centralized_faas", K::MovingPeople, 48, 24),
        tenant("treasure_edge", "distributed_edge", K::TreasureHunt, 32, 12),
    };
    fleet.tenants[3].scenario.targets = 6;
    // The chaos tenant exercises every recovery path the fleet can
    // reach: device crash + rejoin, a cloud server crash, a bursty-loss
    // window and a swarm-controller crash (HA failover).
    fault::FaultPlan& plan = fleet.tenants[0].scenario.faults;
    plan.device_crash(3 * sim::kSecond, 1, 6 * sim::kSecond)
        .server_crash(4 * sim::kSecond, 2, 5 * sim::kSecond)
        .link_burst(5 * sim::kSecond, 5 * sim::kSecond)
        .controller_crash(8 * sim::kSecond);
    // Seeds stay below 2^53 so the JSON profile round-trips exactly.
    const std::uint64_t base = (seed % 1000000ull) * 1000ull;
    for (std::size_t i = 0; i < fleet.tenants.size(); ++i)
        fleet.tenants[i].seed0 = base + 100ull * (i + 1);
    return fleet;
}

MissionRun
run_mission(const MissionSpec& spec, Ledger& ledger)
{
    MissionRun run;
    ++ledger.attempted;
    try {
        SpanRecorder::Scope span(spans(), "platform.run");
        const double t0 = now_s();
        run.result = platform::run_scenario_sharded(
            spec.scenario, platform::platform_from_name(kMissionPreset),
            spec.deployment, spec.shards);
        run.call_s = now_s() - t0;
        run.ok = true;
    } catch (const std::exception& e) {
        ledger.fail(std::string("mission threw: ") + e.what());
    }
    return run;
}

}  // namespace perfbench
