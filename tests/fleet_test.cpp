/**
 * @file
 * Fleet service-mode tests: profile round-trips (randomized configs,
 * fuzzer-generated fault plans, strict unknown-key / version
 * rejection), the platform::run() facade's shard dispatch and plan
 * checks, fleet determinism (per-swarm checksums equal solo runs and
 * invariant to worker count), and the JSONL stream (record order and
 * bytes invariant to worker count, abnormal swarm exits,
 * well-formedness).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fault/fuzz.hpp"
#include "platform/fleet.hpp"
#include "platform/profile.hpp"
#include "platform/sharded_scenario.hpp"
#include "sim/rng.hpp"

namespace {

using namespace hivemind;

// --- Scenario profile round-trip --------------------------------------

platform::ScenarioConfig
small_scenario(platform::ScenarioKind kind)
{
    platform::ScenarioConfig sc;
    sc.kind = kind;
    sc.field_size_m = 48.0;
    sc.targets = 4;
    sc.time_cap = 60 * sim::kSecond;
    sc.course_legs = 2;
    sc.maze_side = 5;
    return sc;
}

/** A config with every field moved off its default. */
platform::ScenarioConfig
exotic_scenario()
{
    platform::ScenarioConfig sc;
    sc.kind = platform::ScenarioKind::MovingPeople;
    sc.field_size_m = 123.456789012345;
    sc.targets = 77;
    sc.frame_task_rate_hz = 2.5;
    sc.obstacle_rate_hz = 0.125;
    sc.retrain = apps::RetrainMode::Self;
    sc.detection.base_correct = 0.71;
    sc.detection.max_correct = 0.9991;
    sc.detection.tau_samples = 42.42;
    sc.detection.fn_share = 0.333;
    sc.retrain_interval = 7 * sim::kSecond + 3;
    sc.time_cap = 999 * sim::kSecond + 1;
    sc.max_passes = 13;
    sc.course_legs = 9;
    sc.maze_side = 11;
    sc.frame_bytes_override = 123456789;
    sc.faults.device_crash(2 * sim::kSecond, 1, 10 * sim::kSecond)
        .link_burst(20 * sim::kSecond, 5 * sim::kSecond)
        .controller_crash(30 * sim::kSecond)
        .device_crash(5 * sim::kSecond, 3);
    sc.recovery = cloud::FaultRecovery::Checkpoint;
    sc.retry.max_attempts = 9;
    sc.retry.base_backoff = 250 * sim::kMillisecond;
    sc.retry.multiplier = 1.75;
    sc.retry.jitter = 0.4;
    sc.retry.breaker_threshold = 5;
    sc.retry.breaker_cooldown = 11 * sim::kSecond;
    sc.ha.checkpoint_interval = 3 * sim::kSecond;
    sc.ha.primary_beat_interval = 400 * sim::kMillisecond;
    sc.ha.election_timeout = 1300 * sim::kMillisecond;
    sc.ha.standbys = 3;
    sc.ha.replay_Bps = 48e6;
    sc.ha.reconcile_per_device = 15 * sim::kMillisecond;
    sc.ha.redrive_per_offload = 7 * sim::kMillisecond;
    sc.ha.drift_replay_frac = 0.27;
    sc.shards = 4;
    sc.adaptive_lookahead = false;
    return sc;
}

TEST(ScenarioProfileTest, DefaultConfigRoundTrips)
{
    platform::ScenarioConfig sc;
    EXPECT_EQ(platform::scenario_from_json(platform::scenario_to_json(sc)),
              sc);
}

TEST(ScenarioProfileTest, EveryFieldRoundTripsExactly)
{
    platform::ScenarioConfig sc = exotic_scenario();
    EXPECT_EQ(platform::scenario_from_json(platform::scenario_to_json(sc)),
              sc);
}

TEST(ScenarioProfileTest, RandomizedConfigsRoundTrip)
{
    // Property test: random knob soup (including fuzzer-generated
    // fault plans) must survive serialize -> parse bit-exactly.
    fault::FuzzConfig fz;
    fz.devices = 8;
    fz.servers = 3;
    fz.horizon = 90 * sim::kSecond;
    const fault::PlanFuzzer fuzzer(fz);
    sim::Rng rng(20260808);
    const platform::ScenarioKind kinds[] = {
        platform::ScenarioKind::StationaryItems,
        platform::ScenarioKind::MovingPeople,
        platform::ScenarioKind::TreasureHunt,
        platform::ScenarioKind::RoverMaze,
    };
    const apps::RetrainMode retrains[] = {
        apps::RetrainMode::None,
        apps::RetrainMode::Self,
        apps::RetrainMode::Swarm,
    };
    const cloud::FaultRecovery recoveries[] = {
        cloud::FaultRecovery::None,
        cloud::FaultRecovery::Respawn,
        cloud::FaultRecovery::Checkpoint,
    };
    for (int trial = 0; trial < 200; ++trial) {
        platform::ScenarioConfig sc;
        sc.kind = kinds[rng.uniform_int(0, 3)];
        sc.field_size_m = rng.uniform(1.0, 4096.0);
        sc.targets = static_cast<std::size_t>(rng.uniform_int(1, 500));
        sc.frame_task_rate_hz = rng.uniform(0.01, 30.0);
        sc.obstacle_rate_hz = rng.uniform(0.01, 10.0);
        sc.retrain = retrains[rng.uniform_int(0, 2)];
        sc.detection.base_correct = rng.uniform(0.0, 1.0);
        sc.detection.max_correct = rng.uniform(0.0, 1.0);
        sc.detection.tau_samples = rng.uniform(1.0, 1e4);
        sc.detection.fn_share = rng.uniform(0.0, 1.0);
        sc.retrain_interval = rng.uniform_int(1, 100) * sim::kSecond +
                              rng.uniform_int(0, 999);
        sc.time_cap = rng.uniform_int(1, 5000) * sim::kSecond;
        sc.max_passes = rng.uniform_int(1, 1000000);
        sc.course_legs = rng.uniform_int(1, 20);
        sc.maze_side = rng.uniform_int(3, 31);
        sc.frame_bytes_override =
            static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
        sc.recovery = recoveries[rng.uniform_int(0, 2)];
        sc.retry.max_attempts = rng.uniform_int(1, 16);
        sc.retry.multiplier = rng.uniform(1.0, 4.0);
        sc.retry.jitter = rng.uniform(0.0, 1.0);
        sc.ha.replay_Bps = rng.uniform(1e6, 1e9);
        sc.ha.drift_replay_frac = rng.uniform(0.0, 1.0);
        sc.shards = rng.uniform_int(1, 16);
        sc.adaptive_lookahead = rng.chance(0.5);
        sc.faults = fuzzer.generate(
            static_cast<std::uint64_t>(trial) * 7919 + 17);
        const std::string json = platform::scenario_to_json(sc);
        EXPECT_EQ(platform::scenario_from_json(json), sc)
            << "trial " << trial << ": " << json;
    }
}

TEST(ScenarioProfileTest, MissingKeysKeepDefaults)
{
    platform::ScenarioConfig sc = platform::scenario_from_json(
        "{\"version\":4,\"kind\":\"rover_maze\",\"maze_side\":13}");
    EXPECT_EQ(sc.kind, platform::ScenarioKind::RoverMaze);
    EXPECT_EQ(sc.maze_side, 13);
    EXPECT_EQ(sc.targets, platform::ScenarioConfig{}.targets);
    EXPECT_EQ(sc.shards, platform::ScenarioConfig{}.shards);
}

TEST(ScenarioProfileTest, RejectsUnknownAndMalformed)
{
    // Unknown top-level keys, v2's engine switch and v3's
    // inject_failure_* shim included.
    EXPECT_THROW(platform::scenario_from_json(
                     "{\"version\":4,\"sharts\":2}"),
                 std::invalid_argument);
    EXPECT_THROW(platform::scenario_from_json(
                     "{\"version\":4,\"engine\":\"auto\"}"),
                 std::invalid_argument);
    EXPECT_THROW(platform::scenario_from_json(
                     "{\"version\":4,\"inject_failure_at\":5}"),
                 std::invalid_argument);
    EXPECT_THROW(platform::scenario_from_json(
                     "{\"version\":4,\"inject_failure_device\":1}"),
                 std::invalid_argument);
    // Unknown nested keys.
    EXPECT_THROW(platform::scenario_from_json(
                     "{\"version\":4,\"detection\":{\"bias\":1}}"),
                 std::invalid_argument);
    EXPECT_THROW(platform::scenario_from_json(
                     "{\"version\":4,\"retry\":{\"attempts\":4}}"),
                 std::invalid_argument);
    EXPECT_THROW(platform::scenario_from_json(
                     "{\"version\":4,\"ha\":{\"quorum\":3}}"),
                 std::invalid_argument);
    // v3's ha.enabled restated the plan: the HA stack wires iff the
    // plan holds a controller fault.
    EXPECT_THROW(platform::scenario_from_json(
                     "{\"version\":4,\"ha\":{\"enabled\":true}}"),
                 std::invalid_argument);
    // Bad enum values.
    EXPECT_THROW(platform::scenario_from_json(
                     "{\"version\":4,\"kind\":\"balloon_race\"}"),
                 std::invalid_argument);
    // Version handling: missing, superseded (v1, v2, v3), unknown,
    // trailing garbage.
    EXPECT_THROW(platform::scenario_from_json("{\"kind\":\"rover_maze\"}"),
                 std::invalid_argument);
    EXPECT_THROW(platform::scenario_from_json("{\"version\":1}"),
                 std::invalid_argument);
    EXPECT_THROW(platform::scenario_from_json("{\"version\":2}"),
                 std::invalid_argument);
    EXPECT_THROW(platform::scenario_from_json("{\"version\":3}"),
                 std::invalid_argument);
    EXPECT_THROW(platform::scenario_from_json("{\"version\":5}"),
                 std::invalid_argument);
    EXPECT_THROW(platform::scenario_from_json("{\"version\":4} extra"),
                 std::invalid_argument);
    // A v2 plan nested in a v4 profile is rejected too.
    EXPECT_THROW(platform::scenario_from_json(
                     "{\"version\":4,\"faults\":{\"version\":2,"
                     "\"events\":[]}}"),
                 std::invalid_argument);
}

// --- Fleet profile round-trip -----------------------------------------

platform::FleetProfile
small_fleet()
{
    platform::FleetProfile fleet;
    fleet.name = "test_fleet";

    platform::FleetTenant drone;
    drone.name = "drone_hive";
    drone.replicas = 3;
    drone.seed0 = 500;
    drone.platform = "hivemind";
    drone.devices = 6;
    drone.servers = 3;
    drone.scenario =
        small_scenario(platform::ScenarioKind::StationaryItems);
    drone.scenario.shards = 2;
    fleet.tenants.push_back(drone);

    platform::FleetTenant rover;
    rover.name = "rover_faas";
    rover.replicas = 2;
    rover.seed0 = 900;
    rover.platform = "centralized_faas";
    rover.devices = 4;
    rover.servers = 3;
    rover.scenario =
        small_scenario(platform::ScenarioKind::TreasureHunt);
    fleet.tenants.push_back(rover);
    return fleet;
}

TEST(FleetProfileTest, RoundTripsExactly)
{
    platform::FleetProfile fleet = small_fleet();
    fleet.tenants[0].scenario.faults.device_crash(sim::kSecond, 0);
    fleet.tenants[0].cores_per_server = 8;
    fleet.tenants[1].scale_infra = true;
    EXPECT_EQ(platform::fleet_from_json(platform::fleet_to_json(fleet)),
              fleet);
    EXPECT_EQ(fleet.swarms(), 5u);
}

TEST(FleetProfileTest, RejectsBadProfiles)
{
    // Unknown tenant key.
    EXPECT_THROW(
        platform::fleet_from_json(
            "{\"version\":1,\"tenants\":[{\"name\":\"t\",\"gpu\":1}]}"),
        std::invalid_argument);
    // Unknown platform preset.
    EXPECT_THROW(platform::fleet_from_json(
                     "{\"version\":1,\"tenants\":[{\"platform\":"
                     "\"mainframe\"}]}"),
                 std::invalid_argument);
    // replicas < 1.
    EXPECT_THROW(platform::fleet_from_json(
                     "{\"version\":1,\"tenants\":[{\"replicas\":0}]}"),
                 std::invalid_argument);
    // Missing / wrong version.
    EXPECT_THROW(platform::fleet_from_json("{\"tenants\":[]}"),
                 std::invalid_argument);
    EXPECT_THROW(platform::fleet_from_json("{\"version\":7}"),
                 std::invalid_argument);
    // Fleet construction re-validates (profiles built in code).
    platform::FleetProfile bad = small_fleet();
    bad.tenants[0].platform = "mainframe";
    EXPECT_THROW(platform::Fleet{bad}, std::invalid_argument);
}

// --- platform::run() facade -------------------------------------------

TEST(RunFacadeTest, AutoDispatchesByShardsAndKind)
{
    const platform::PlatformOptions opt = platform::PlatformOptions::hivemind();
    platform::DeploymentConfig dep;
    dep.devices = 6;
    dep.servers = 3;
    dep.seed = 7;

    platform::ScenarioConfig sharded =
        small_scenario(platform::ScenarioKind::StationaryItems);
    sharded.shards = 2;
    platform::RunResult rs = platform::run(sharded, opt, dep);
    EXPECT_EQ(rs.shards, 2);
    EXPECT_GT(rs.epochs, 0u);
    EXPECT_NE(rs.checksum, 0u);

    // One kernel for shards=1, and for shards < 1 too; the digest does
    // not depend on the shard count.
    platform::ScenarioConfig one = sharded;
    one.shards = 1;
    platform::RunResult r1 = platform::run(one, opt, dep);
    EXPECT_EQ(r1.shards, 1);
    EXPECT_GT(r1.epochs, 0u);
    EXPECT_EQ(r1.checksum, rs.checksum);
    platform::ScenarioConfig zero = sharded;
    zero.shards = 0;
    EXPECT_EQ(platform::run(zero, opt, dep).shards, 1);

    // Rover kinds run on the same engine.
    platform::ScenarioConfig rover =
        small_scenario(platform::ScenarioKind::TreasureHunt);
    rover.shards = 4;
    platform::RunResult rr = platform::run(rover, opt, dep);
    EXPECT_EQ(rr.shards, 4);
    EXPECT_GT(rr.epochs, 0u);
    platform::ScenarioConfig maze =
        small_scenario(platform::ScenarioKind::RoverMaze);
    EXPECT_NE(platform::run(maze, opt, dep).checksum, 0u);
}

TEST(RunFacadeTest, RunIsDeterministicPerSeed)
{
    const platform::PlatformOptions opt = platform::PlatformOptions::hivemind();
    platform::DeploymentConfig dep;
    dep.devices = 6;
    dep.servers = 3;
    dep.seed = 11;
    platform::ScenarioConfig sc =
        small_scenario(platform::ScenarioKind::StationaryItems);
    sc.shards = 2;
    const platform::RunResult a = platform::run(sc, opt, dep);
    const platform::RunResult b = platform::run(sc, opt, dep);
    EXPECT_EQ(a.checksum, b.checksum);
    dep.seed = 12;
    EXPECT_NE(platform::run(sc, opt, dep).checksum, a.checksum);
}

TEST(RunFacadeTest, BaselinesRejectControllerFaults)
{
    // The HA stack is HiveMind's controller; the baselines have no
    // controller-failure model, so a plan that takes theirs down is
    // refused before anything is built.
    platform::DeploymentConfig dep;
    dep.devices = 6;
    dep.servers = 3;
    dep.seed = 7;
    for (bool partition : {false, true}) {
        platform::ScenarioConfig sc =
            small_scenario(platform::ScenarioKind::StationaryItems);
        if (partition)
            sc.faults.controller_partition(5 * sim::kSecond,
                                           2 * sim::kSecond);
        else
            sc.faults.controller_crash(5 * sim::kSecond);
        for (const char* name :
             {"centralized_faas", "centralized_iaas", "distributed_edge"}) {
            const platform::PlatformOptions opt =
                platform::platform_from_name(name);
            EXPECT_THROW(platform::run(sc, opt, dep), std::invalid_argument)
                << name;
            EXPECT_THROW(platform::run_scenario_sharded(sc, opt, dep, 2),
                         std::invalid_argument)
                << name;
        }
        // HiveMind runs the same plan on its HA stack.
        EXPECT_TRUE(platform::run_scenario_sharded(
                        sc, platform::PlatformOptions::hivemind(), dep, 2)
                        .audit.ha_enabled);
    }
}

TEST(RunFacadeTest, ServerTargetOutsideTheCloudIsRejected)
{
    // The default deployment has 12 servers, so a crash of server 99
    // names a host the cloud does not have. The engine entry point
    // holds the check, so both entry points refuse the plan instead of
    // booking a crash that never happened.
    platform::DeploymentConfig dep;
    ASSERT_EQ(dep.devices, 16u);
    ASSERT_EQ(dep.servers, 12u);
    dep.seed = 7;
    platform::ScenarioConfig sc =
        small_scenario(platform::ScenarioKind::StationaryItems);
    sc.faults.server_crash(2 * sim::kSecond, 99);
    const platform::PlatformOptions opt = platform::PlatformOptions::hivemind();
    EXPECT_THROW(platform::run_scenario_sharded(sc, opt, dep, 1),
                 std::invalid_argument);
    EXPECT_THROW(platform::run(sc, opt, dep), std::invalid_argument);
}

TEST(RunFacadeTest, ServerBoundIsTheCloudScaleInfraBuilds)
{
    // scale_infra grows 12 servers to 12 x 64 / 16 = 48 for 64 drones,
    // so server 20 exists: its crash runs and is booked once, and only
    // a target past the built cloud is refused.
    platform::DeploymentConfig dep;
    dep.devices = 64;
    dep.servers = 12;
    dep.scale_infra = true;
    dep.seed = 7;
    platform::ScenarioConfig sc =
        small_scenario(platform::ScenarioKind::StationaryItems);
    sc.targets = 200;  // Unattainable: the crash fires before any finish.
    sc.time_cap = 6 * sim::kSecond;
    sc.faults.server_crash(sim::kSecond, 20, 2 * sim::kSecond);
    const platform::PlatformOptions opt = platform::PlatformOptions::hivemind();
    const platform::RunResult r = platform::run(sc, opt, dep);
    EXPECT_EQ(r.audit.servers, 48u);
    EXPECT_EQ(r.metrics.recovery.server_crashes, 1u);
    EXPECT_EQ(r.metrics.recovery.mttr_s.count(), 1u);

    sc.faults = {};
    sc.faults.server_crash(sim::kSecond, 48);
    EXPECT_THROW(platform::run(sc, opt, dep), std::invalid_argument);
}

// --- Fleet determinism -------------------------------------------------

TEST(FleetTest, ChecksumsMatchSoloRunsAtAnyWorkerCount)
{
    const platform::Fleet fleet{small_fleet()};

    // Solo references: each tenant replica run directly through the
    // facade, no fleet driver involved.
    std::vector<std::uint64_t> solo;
    for (const platform::FleetTenant& t : fleet.profile().tenants)
        for (int r = 0; r < t.replicas; ++r)
            solo.push_back(
                platform::run(t.scenario,
                              platform::platform_from_name(t.platform),
                              platform::Fleet::deployment_of(t, r))
                    .checksum);

    for (int workers : {1, 2, 5}) {
        platform::FleetRunOptions opt;
        opt.workers = workers;
        platform::FleetResult res = fleet.run(opt);
        ASSERT_EQ(res.records.size(), solo.size());
        EXPECT_EQ(res.failed, 0u);
        EXPECT_EQ(res.workers, workers);
        for (std::size_t i = 0; i < solo.size(); ++i) {
            EXPECT_TRUE(res.records[i].ok);
            EXPECT_EQ(res.records[i].result.checksum, solo[i])
                << "job " << i << " at workers=" << workers;
        }
        // Record order is (tenant, replica), not completion order.
        EXPECT_EQ(res.records.front().tenant, "drone_hive");
        EXPECT_EQ(res.records.front().replica, 0);
        EXPECT_EQ(res.records.back().tenant, "rover_faas");
        EXPECT_EQ(res.records.back().replica, 1);
    }
}

TEST(FleetTest, ReplicasGetDistinctSeedsAndChecksums)
{
    platform::FleetProfile profile = small_fleet();
    profile.tenants.resize(1);
    const platform::Fleet fleet{profile};
    platform::FleetResult res = fleet.run({});
    ASSERT_EQ(res.records.size(), 3u);
    EXPECT_EQ(res.records[0].seed, 500u);
    EXPECT_EQ(res.records[1].seed, 501u);
    EXPECT_EQ(res.records[2].seed, 502u);
    EXPECT_NE(res.records[0].result.checksum,
              res.records[1].result.checksum);
    EXPECT_NE(res.records[1].result.checksum,
              res.records[2].result.checksum);
}

TEST(FleetTest, AbnormalSwarmExitStillReachesTheStream)
{
    // One tenant is mis-configured (its fault plan targets a device
    // the 4-device swarm does not have): its runs throw inside the
    // worker at plan validation. The fleet must finish, mark those
    // records failed, and the JSONL stream must still carry every
    // record — including the failed ones.
    platform::FleetProfile profile = small_fleet();
    profile.tenants[1].scenario.faults.device_crash(sim::kSecond, 99);
    const platform::Fleet fleet{profile};

    std::ostringstream jsonl;
    platform::FleetRunOptions opt;
    opt.workers = 3;
    opt.metrics = &jsonl;
    platform::FleetResult res = fleet.run(opt);

    EXPECT_EQ(res.failed, 2u);
    std::size_t failed_lines = 0, lines = 0;
    std::istringstream in(jsonl.str());
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        ++lines;
        util::JsonCursor cur(line, "fleet JSONL");
        cur.skip_value();  // Throws if the line is not one JSON value.
        EXPECT_TRUE(cur.done());
        if (line.find("\"ok\":false") != std::string::npos) {
            ++failed_lines;
            EXPECT_NE(line.find("\"error\":"), std::string::npos);
        }
    }
    EXPECT_EQ(lines, res.records.size());
    EXPECT_EQ(failed_lines, 2u);
    // And the good tenant's records are intact.
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_TRUE(res.records[i].ok);
}

/** @p jsonl with every "wall_s" value (host time) replaced by 0. */
std::string
mask_wall_s(std::string jsonl)
{
    const std::string key = "\"wall_s\":";
    for (std::size_t at = jsonl.find(key); at != std::string::npos;
         at = jsonl.find(key, at)) {
        at += key.size();
        jsonl.replace(at, jsonl.find_first_of(",}", at) - at, "0");
    }
    return jsonl;
}

TEST(FleetTest, JsonlIsInRecordOrderAndWorkerInvariant)
{
    // The fleet writes the JSONL after every swarm finished: line i is
    // record i, in (tenant, replica) order whichever swarm finished
    // first, so the stream's bytes are the same at any worker count
    // once the host-time field is masked.
    const platform::Fleet fleet{small_fleet()};
    const std::vector<std::pair<std::string, int>> order = {
        {"drone_hive", 0}, {"drone_hive", 1}, {"drone_hive", 2},
        {"rover_faas", 0}, {"rover_faas", 1}};
    std::string reference;
    for (int workers : {1, 2, 5}) {
        std::ostringstream jsonl;
        platform::FleetRunOptions opt;
        opt.workers = workers;
        opt.metrics = &jsonl;
        const platform::FleetResult res = fleet.run(opt);
        ASSERT_EQ(res.records.size(), order.size());
        std::istringstream in(jsonl.str());
        std::string line;
        std::size_t i = 0;
        for (; std::getline(in, line); ++i) {
            ASSERT_LT(i, order.size()) << "workers=" << workers;
            EXPECT_EQ(res.records[i].tenant, order[i].first);
            EXPECT_EQ(res.records[i].replica, order[i].second);
            EXPECT_EQ(line, platform::swarm_record_json(res.records[i]).str())
                << "line " << i << " at workers=" << workers;
        }
        EXPECT_EQ(i, order.size()) << "workers=" << workers;
        const std::string masked = mask_wall_s(jsonl.str());
        if (reference.empty())
            reference = masked;
        EXPECT_EQ(masked, reference) << "workers=" << workers;
    }
}

TEST(FleetTest, BaselineTenantWithControllerFaultFailsItsRecords)
{
    // The centralized-FaaS tenant's plan crashes a swarm controller it
    // has no HA stack for: each of its runs becomes an ok == false
    // record, and the HiveMind tenant's records are untouched.
    platform::FleetProfile profile = small_fleet();
    profile.tenants[1].scenario.faults.controller_crash(5 * sim::kSecond);
    const platform::FleetResult res = platform::Fleet{profile}.run({});
    ASSERT_EQ(res.records.size(), 5u);
    EXPECT_EQ(res.failed, 2u);
    for (std::size_t i = 0; i < res.records.size(); ++i) {
        const platform::SwarmRecord& rec = res.records[i];
        if (rec.tenant == "rover_faas") {
            EXPECT_FALSE(rec.ok) << "job " << i;
            EXPECT_NE(rec.error.find("HiveMind"), std::string::npos)
                << rec.error;
        } else {
            EXPECT_TRUE(rec.ok) << "job " << i;
        }
    }
}

// --- JSONL records -----------------------------------------------------

platform::SwarmRecord
record_for(int i)
{
    platform::SwarmRecord rec;
    rec.tenant = "t";
    rec.replica = i;
    rec.seed = static_cast<std::uint64_t>(i);
    rec.ok = true;
    rec.result.checksum = static_cast<std::uint64_t>(i) * 0x9e37;
    return rec;
}

TEST(MetricsPipelineTest, RecordsAreWellFormedJson)
{
    platform::SwarmRecord ok = record_for(1);
    ok.tenant = "we\"ird\nname";  // Escaping matters.
    platform::SwarmRecord bad;
    bad.tenant = "t";
    bad.ok = false;
    bad.error = "engine said \"no\"";
    for (const platform::SwarmRecord& rec : {ok, bad}) {
        const std::string line = platform::swarm_record_json(rec).str();
        util::JsonCursor cur(line, "record");
        cur.skip_value();
        EXPECT_TRUE(cur.done()) << line;
    }
}

}  // namespace
