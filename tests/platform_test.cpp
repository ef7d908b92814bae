/**
 * @file
 * Integration tests: whole-platform runs of single-phase jobs and
 * end-to-end scenarios (src/platform).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "apps/appspec.hpp"
#include "edge/device.hpp"
#include "platform/deployment.hpp"
#include "platform/fnv.hpp"
#include "platform/metrics.hpp"
#include "platform/options.hpp"
#include "platform/scenario.hpp"
#include "platform/single_phase.hpp"

namespace hivemind::platform {
namespace {

DeploymentConfig
small_deployment(std::uint64_t seed)
{
    DeploymentConfig cfg;
    cfg.devices = 8;
    cfg.servers = 6;
    cfg.cores_per_server = 20;
    cfg.seed = seed;
    return cfg;
}

JobConfig
short_job()
{
    JobConfig j;
    j.duration = 30 * sim::kSecond;
    j.drain = 30 * sim::kSecond;
    return j;
}

TEST(Options, PresetsHaveExpectedFlags)
{
    EXPECT_FALSE(PlatformOptions::centralized_faas().net_accel);
    EXPECT_TRUE(PlatformOptions::hivemind().net_accel);
    EXPECT_TRUE(PlatformOptions::hivemind().remote_mem_accel);
    EXPECT_FALSE(PlatformOptions::hivemind_no_accel().net_accel);
    EXPECT_TRUE(PlatformOptions::centralized_net_accel().net_accel);
    EXPECT_FALSE(
        PlatformOptions::centralized_net_accel().remote_mem_accel);
    EXPECT_TRUE(
        PlatformOptions::centralized_net_remote_mem().remote_mem_accel);
    EXPECT_STREQ(to_string(PlatformKind::HiveMind), "HiveMind");
}

TEST(Metrics, MergeAccumulates)
{
    RunMetrics a, b;
    a.task_latency_s.add(1.0);
    b.task_latency_s.add(3.0);
    a.tasks_completed = 2;
    b.tasks_completed = 5;
    b.completed = false;
    b.goal_fraction = 0.5;
    a.merge(b);
    EXPECT_EQ(a.task_latency_s.count(), 2u);
    EXPECT_EQ(a.tasks_completed, 7u);
    EXPECT_FALSE(a.completed);
    EXPECT_DOUBLE_EQ(a.goal_fraction, 0.5);
}

TEST(Deployment, WiresPlatformFlags)
{
    DeploymentConfig cfg = small_deployment(1);
    Deployment hive(cfg, PlatformOptions::hivemind());
    EXPECT_NE(hive.scheduler(), nullptr);
    EXPECT_EQ(hive.faas().config().sharing,
              cloud::SharingProtocol::RemoteMemory);
    EXPECT_TRUE(hive.network().config().cloud_rpc_offload);

    Deployment faas(cfg, PlatformOptions::centralized_faas());
    EXPECT_EQ(faas.scheduler(), nullptr);
    EXPECT_EQ(faas.faas().config().sharing,
              cloud::SharingProtocol::CouchDb);
    EXPECT_FALSE(faas.network().config().cloud_rpc_offload);
    EXPECT_EQ(faas.device_count(), 8u);
}

TEST(SinglePhase, AllPlatformsCompleteTasks)
{
    const apps::AppSpec& s1 = apps::app_by_id("S1");
    for (auto opt : {PlatformOptions::centralized_faas(),
                     PlatformOptions::centralized_iaas(),
                     PlatformOptions::distributed_edge(),
                     PlatformOptions::hivemind()}) {
        RunMetrics m = run_single_phase(s1, opt, small_deployment(7),
                                        short_job());
        EXPECT_GT(m.tasks_completed, 50u) << opt.label;
        EXPECT_FALSE(m.task_latency_s.empty()) << opt.label;
        EXPECT_GT(m.task_latency_s.median(), 0.0) << opt.label;
        EXPECT_EQ(m.battery_pct.count(), 8u) << opt.label;
    }
}

TEST(SinglePhase, DistributedSlowerThanCloudForHeavyApps)
{
    const apps::AppSpec& s1 = apps::app_by_id("S1");
    RunMetrics cloud = run_single_phase(
        s1, PlatformOptions::centralized_faas(), small_deployment(3),
        short_job());
    RunMetrics edge = run_single_phase(
        s1, PlatformOptions::distributed_edge(), small_deployment(3),
        short_job());
    // Fig. 4a: centralized beats on-board for compute-heavy jobs.
    EXPECT_LT(cloud.task_latency_s.median(),
              edge.task_latency_s.median());
}

TEST(SinglePhase, HiveMindBeatsCentralized)
{
    const apps::AppSpec& s9 = apps::app_by_id("S9");
    RunMetrics centr = run_single_phase(
        s9, PlatformOptions::centralized_faas(), small_deployment(4),
        short_job());
    RunMetrics hive = run_single_phase(
        s9, PlatformOptions::hivemind(), small_deployment(4), short_job());
    EXPECT_LT(hive.task_latency_s.median(),
              centr.task_latency_s.median());
    // Fig. 14b: HiveMind moves fewer bytes over the air.
    EXPECT_LT(hive.bandwidth_MBps.mean(), centr.bandwidth_MBps.mean());
}

TEST(SinglePhase, EdgeFriendlyAppsStayOnBoardUnderHiveMind)
{
    const apps::AppSpec& s4 = apps::app_by_id("S4");
    RunMetrics hive = run_single_phase(
        s4, PlatformOptions::hivemind(), small_deployment(5), short_job());
    // No cloud activity for S4 under hybrid placement.
    EXPECT_EQ(hive.cold_starts, 0u);
    EXPECT_GT(hive.tasks_completed, 100u);
}

TEST(SinglePhase, FaultsAreHidden)
{
    const apps::AppSpec& s1 = apps::app_by_id("S1");
    DeploymentConfig cfg = small_deployment(6);
    cfg.faas.fault_prob = 0.2;
    RunMetrics m = run_single_phase(
        s1, PlatformOptions::centralized_faas(), cfg, short_job());
    EXPECT_GT(m.faults, 10u);
    EXPECT_GT(m.tasks_completed, 50u);  // Work still completes (5c).
}

TEST(SinglePhase, StageShardsSumToTotal)
{
    const apps::AppSpec& s2 = apps::app_by_id("S2");
    RunMetrics m = run_single_phase(
        s2, PlatformOptions::centralized_faas(), small_deployment(8),
        short_job());
    // Stage means must approximately compose the mean total.
    double parts = m.network_s.mean() + m.mgmt_s.mean() +
        m.data_s.mean() + m.exec_s.mean();
    EXPECT_NEAR(parts, m.task_latency_s.mean(),
                0.05 * m.task_latency_s.mean() + 1e-3);
}

TEST(SinglePhase, DeterministicForEqualSeeds)
{
    const apps::AppSpec& s3 = apps::app_by_id("S3");
    RunMetrics a = run_single_phase(
        s3, PlatformOptions::hivemind(), small_deployment(42), short_job());
    RunMetrics b = run_single_phase(
        s3, PlatformOptions::hivemind(), small_deployment(42), short_job());
    EXPECT_EQ(a.tasks_completed, b.tasks_completed);
    EXPECT_DOUBLE_EQ(a.task_latency_s.mean(), b.task_latency_s.mean());
    EXPECT_DOUBLE_EQ(a.battery_pct.mean(), b.battery_pct.mean());
}

/** FNV-1a over every sample of every summary and every counter of
 *  @p runs, folded into @p hash. */
void
fold_metrics(std::uint64_t& hash, const std::vector<RunMetrics>& runs)
{
    for (const RunMetrics& m : runs) {
        for (const sim::Summary* s :
             {&m.task_latency_s, &m.network_s, &m.mgmt_s, &m.data_s,
              &m.exec_s, &m.battery_pct, &m.job_latency_s,
              &m.bandwidth_MBps}) {
            fnv::mix(hash, s->count());
            for (double x : s->samples())
                fnv::mix(hash, fnv::bits(x));
        }
        for (std::uint64_t c :
             {m.tasks_completed, m.tasks_shed, m.cold_starts, m.warm_starts,
              m.faults, m.respawns, m.recovery.frames_dropped,
              m.recovery.wireless_retransmissions}) {
            fnv::mix(hash, c);
        }
        fnv::mix(hash, fnv::bits(m.cloud_rpc_cpu_s));
    }
}

TEST(SinglePhase, MultiTenantResultsArePinned)
{
    // Pins the job path's exact output: all ten apps at once on one
    // deployment, under six presets (every platform kind and both
    // accelerator flags), plus one lossy-radio run for the
    // retransmission path. Any change to what a job task does, or in
    // what order it draws and schedules, moves this digest.
    const PlatformOptions presets[] = {
        PlatformOptions::centralized_iaas(),
        PlatformOptions::centralized_faas(),
        PlatformOptions::distributed_edge(),
        PlatformOptions::hivemind(),
        PlatformOptions::centralized_net_remote_mem(),
        PlatformOptions::hivemind_no_accel(),
    };
    std::uint64_t hash = fnv::kBasis;
    for (const PlatformOptions& options : presets) {
        fold_metrics(hash, run_multi_tenant(apps::all_apps(), options,
                                            small_deployment(42),
                                            short_job()));
    }
    DeploymentConfig lossy = small_deployment(42);
    lossy.wireless_loss = 0.05;
    std::vector<RunMetrics> lossy_runs = run_multi_tenant(
        apps::all_apps(), PlatformOptions::hivemind(), lossy, short_job());
    ASSERT_GT(lossy_runs.front().recovery.wireless_retransmissions, 0u);
    fold_metrics(hash, lossy_runs);
    EXPECT_EQ(hash, 0xe3a314835d117fb8ull) << std::hex << "0x" << hash;
}

/** The smallest sample of any summary in @p m (0 when all are empty). */
double
min_sample(const RunMetrics& m)
{
    double lo = 0.0;
    for (const sim::Summary* s :
         {&m.task_latency_s, &m.network_s, &m.mgmt_s, &m.data_s, &m.exec_s,
          &m.battery_pct, &m.job_latency_s, &m.bandwidth_MBps}) {
        for (double x : s->samples())
            lo = std::min(lo, x);
    }
    return lo;
}

TEST(SinglePhase, DroppedTransferLosesTheTask)
{
    // A transfer whose retransmit budget ran out (net::kDropped) ends
    // its task: a blacked-out radio completes nothing, and a lossy one
    // records no task with a negative latency or network share.
    const apps::AppSpec& s1 = apps::app_by_id("S1");
    JobConfig job;
    job.duration = 90 * sim::kSecond;
    job.drain = 60 * sim::kSecond;
    for (const PlatformOptions& options :
         {PlatformOptions::centralized_faas(),
          PlatformOptions::distributed_edge(), PlatformOptions::hivemind()}) {
        DeploymentConfig dep;
        dep.wireless_loss = 1.0;
        RunMetrics dark = run_single_phase(s1, options, dep, job);
        EXPECT_GT(dark.recovery.frames_dropped, 0u) << options.label;
        EXPECT_EQ(dark.tasks_completed, 0u) << options.label;

        dep.wireless_loss = 0.3;
        RunMetrics lossy = run_single_phase(s1, options, dep, job);
        EXPECT_GT(lossy.recovery.frames_dropped, 0u) << options.label;
        EXPECT_GT(lossy.tasks_completed, 0u) << options.label;
        EXPECT_GE(min_sample(lossy), 0.0) << options.label;
    }
}

ScenarioConfig
small_scenario(ScenarioKind kind)
{
    ScenarioConfig sc;
    sc.kind = kind;
    sc.field_size_m = 48.0;
    sc.targets = 6;
    sc.time_cap = 600 * sim::kSecond;
    sc.course_legs = 3;
    sc.maze_side = 5;
    return sc;
}

TEST(Scenario, StationaryItemsCompletesOnHiveMind)
{
    RunMetrics m = run_scenario(small_scenario(ScenarioKind::StationaryItems),
                                PlatformOptions::hivemind(),
                                small_deployment(11));
    EXPECT_TRUE(m.completed);
    EXPECT_DOUBLE_EQ(m.goal_fraction, 1.0);
    EXPECT_GT(m.completion_s, 0.0);
    EXPECT_LT(m.completion_s, 600.0);
    EXPECT_GT(m.tasks_completed, 0u);
    EXPECT_GT(m.battery_pct.mean(), 0.0);
}

TEST(Scenario, MovingPeopleCompletesOnCentralized)
{
    RunMetrics m = run_scenario(small_scenario(ScenarioKind::MovingPeople),
                                PlatformOptions::centralized_faas(),
                                small_deployment(12));
    EXPECT_GT(m.goal_fraction, 0.5);
    EXPECT_GT(m.tasks_completed, 0u);
}

TEST(Scenario, TreasureHuntRoversFinish)
{
    DeploymentConfig cfg = small_deployment(13);
    cfg.device_spec = edge::DeviceSpec::rover();
    RunMetrics m = run_scenario(small_scenario(ScenarioKind::TreasureHunt),
                                PlatformOptions::hivemind(), cfg);
    EXPECT_TRUE(m.completed);
    EXPECT_EQ(m.job_latency_s.count(), 8u);  // One per rover.
    EXPECT_GT(m.job_latency_s.median(), 0.0);
}

TEST(Scenario, RoverMazeFinishes)
{
    DeploymentConfig cfg = small_deployment(14);
    cfg.device_spec = edge::DeviceSpec::rover();
    RunMetrics m = run_scenario(small_scenario(ScenarioKind::RoverMaze),
                                PlatformOptions::distributed_edge(), cfg);
    EXPECT_TRUE(m.completed);
    EXPECT_EQ(m.job_latency_s.count(), 8u);
}

TEST(Scenario, FleetWideCrashWithQuickRejoinCompletes)
{
    // Regression: the controller tick used to abort the mission on
    // the first tick that observed every device dead, even when the
    // crash window was about to end. It now dwells
    // kFleetDeadDwellTicks (3 ticks) before declaring the fleet lost,
    // so a 2 s fleet-wide outage is survivable.
    ScenarioConfig sc = small_scenario(ScenarioKind::StationaryItems);
    for (std::size_t d = 0; d < 8; ++d)
        sc.faults.device_crash(10 * sim::kSecond, d, 2 * sim::kSecond);
    RunMetrics m = run_scenario(sc, PlatformOptions::hivemind(),
                                small_deployment(21));
    EXPECT_TRUE(m.completed);
    EXPECT_EQ(m.recovery.device_crashes, 8u);
    EXPECT_EQ(m.recovery.device_rejoins, 8u);
}

TEST(Scenario, RoverResumesInterruptedLegAfterRejoin)
{
    // Regression: a transient device crash used to strand the rover —
    // the leg returned silently for a dead device and nothing
    // restarted it on rejoin, so the mission idled to time_cap. The
    // rejoin now resumes the interrupted leg.
    ScenarioConfig sc = small_scenario(ScenarioKind::TreasureHunt);
    sc.faults.device_crash(3 * sim::kSecond, 2, 5 * sim::kSecond);
    DeploymentConfig cfg = small_deployment(22);
    cfg.device_spec = edge::DeviceSpec::rover();
    RunMetrics m = run_scenario(sc, PlatformOptions::hivemind(), cfg);
    EXPECT_TRUE(m.completed);
    EXPECT_EQ(m.job_latency_s.count(), 8u);
    EXPECT_EQ(m.recovery.device_crashes, 1u);
    EXPECT_EQ(m.recovery.device_rejoins, 1u);
}

TEST(Scenario, RoverRetryDwellDoesNotBurnMotionEnergy)
{
    // Regression: the dropped-leg retry used to leave the motion gate
    // in the future, so the tick kept booking 18 W drive power for a
    // rover parked waiting on instructions. Motion energy is bounded
    // by course length: a lossy window may cost idle time and retry
    // radio, never drive power. Centralized placement keeps the
    // device-side energy budget to idle + radio, making the bound
    // tight. The burst need not delay the mission (on some seeds the
    // lossy run finishes first), so the bound is checked across 40
    // seeds against whatever time the burst cost or saved.
    const ScenarioConfig sc = small_scenario(ScenarioKind::TreasureHunt);
    ScenarioConfig lossy = sc;
    lossy.faults.link_burst(5 * sim::kSecond, 30 * sim::kSecond, 0.95);
    const edge::DeviceSpec rover = edge::DeviceSpec::rover();
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        DeploymentConfig cfg = small_deployment(seed);
        cfg.device_spec = rover;
        RunMetrics base = run_scenario(
            sc, PlatformOptions::centralized_faas(), cfg);
        ASSERT_TRUE(base.completed) << "seed=" << seed;
        RunMetrics burst = run_scenario(
            lossy, PlatformOptions::centralized_faas(), cfg);
        ASSERT_TRUE(burst.completed) << "seed=" << seed;

        const double extra_s = burst.completion_s - base.completion_s;
        // Extra consumed energy per rover, joules (battery_pct is
        // consumed percent of the 100 kJ rover pack).
        const double extra_j =
            (burst.battery_pct.mean() - base.battery_pct.mean()) / 100.0 *
            rover.battery_j;
        // Idle draw over the stretched mission plus generous retry
        // radio slack — far below the 18 W drive power the retry bug
        // would book while parked.
        EXPECT_LT(extra_j, rover.power.idle_w * (extra_s + 5.0) + 100.0)
            << "seed=" << seed << " extra_s=" << extra_s;
    }
}

TEST(Scenario, HiveMindCompetitiveWithCentralizedOnScenarioA)
{
    // At this small scale the network never congests, so completion is
    // sweep-limited and pass-quantized on both platforms; HiveMind's
    // decisive wins appear at paper scale (Fig. 1, bench fig01). Here
    // we require completion and the same completion-time ballpark,
    // averaged over seeds.
    double hive_total = 0.0, centr_total = 0.0;
    for (std::uint64_t seed : {15u, 16u, 17u}) {
        RunMetrics hive = run_scenario(
            small_scenario(ScenarioKind::StationaryItems),
            PlatformOptions::hivemind(), small_deployment(seed));
        RunMetrics centr = run_scenario(
            small_scenario(ScenarioKind::StationaryItems),
            PlatformOptions::centralized_faas(), small_deployment(seed));
        ASSERT_TRUE(hive.completed);
        hive_total += hive.completion_s;
        if (centr.completed)
            centr_total += centr.completion_s;
        else
            centr_total += 600.0;
    }
    EXPECT_LE(hive_total, centr_total * 2.0);
}

TEST(Scenario, NamesAreStable)
{
    EXPECT_STREQ(to_string(ScenarioKind::StationaryItems),
                 "Scenario A (Stationary Items)");
    EXPECT_STREQ(to_string(ScenarioKind::TreasureHunt), "Treasure Hunt");
}

}  // namespace
}  // namespace hivemind::platform
