/**
 * @file
 * Tests for the chaos/fault-injection subsystem (src/fault): retry
 * policy and circuit breaker, fault plans, datastore outage windows,
 * server-crash recovery under each Restore policy, the scenario
 * engine's crash/rejoin + MTTD/MTTR accounting, and bit-identical
 * replay of full scenario runs under a rich plan.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cloud/datastore.hpp"
#include "cloud/faas.hpp"
#include "fault/metrics.hpp"
#include "fault/plan.hpp"
#include "fault/retry.hpp"
#include "platform/options.hpp"
#include "platform/scenario.hpp"
#include "sim/simulator.hpp"

namespace hivemind::fault {
namespace {

// ---------------------------------------------------------------------
// OffloadRetrier
// ---------------------------------------------------------------------

TEST(OffloadRetrier, BreakerTripsAfterConsecutiveFailures)
{
    RetryConfig cfg;
    cfg.breaker_threshold = 3;
    cfg.breaker_cooldown = 5 * sim::kSecond;
    OffloadRetrier r(cfg);
    OffloadRetrier other(cfg);  // Another device's breaker.

    EXPECT_FALSE(r.record_failure(sim::kSecond));
    EXPECT_FALSE(r.record_failure(sim::kSecond));
    EXPECT_TRUE(r.record_failure(sim::kSecond));  // Third trips.
    EXPECT_TRUE(r.circuit_open(2 * sim::kSecond));
    EXPECT_FALSE(other.circuit_open(2 * sim::kSecond));  // Per-device.
    // Cooled down after now + cooldown.
    EXPECT_FALSE(r.circuit_open(7 * sim::kSecond));
}

TEST(OffloadRetrier, SuccessResetsFailureRun)
{
    OffloadRetrier r;
    r.record_failure(0);
    r.record_failure(0);
    r.record_success();
    // The run restarts: two more failures do not trip a threshold of 3.
    EXPECT_FALSE(r.record_failure(0));
    EXPECT_FALSE(r.record_failure(0));
    EXPECT_FALSE(r.circuit_open(0));
}

TEST(OffloadRetrier, BackoffGrowsExponentiallyWithJitter)
{
    RetryConfig cfg;
    cfg.base_backoff = 100 * sim::kMillisecond;
    cfg.multiplier = 2.0;
    cfg.jitter = 0.25;
    OffloadRetrier r(cfg);
    sim::Rng rng(7);
    for (int attempt = 0; attempt < 4; ++attempt) {
        double nominal = 100.0 * (1 << attempt);  // ms
        double b = sim::to_seconds(r.backoff(attempt, rng)) * 1e3;
        EXPECT_GE(b, nominal * 0.75 - 1e-6);
        EXPECT_LE(b, nominal * 1.25 + 1e-6);
    }
}

TEST(OffloadRetrier, BreakerClosesAtExactlyOpenUntil)
{
    RetryConfig cfg;
    cfg.breaker_threshold = 3;
    cfg.breaker_cooldown = 5 * sim::kSecond;
    OffloadRetrier r(cfg);
    r.record_failure(sim::kSecond);
    r.record_failure(sim::kSecond);
    ASSERT_TRUE(r.record_failure(sim::kSecond));
    // open_until = trip time + cooldown = 6 s; open strictly before,
    // closed from that instant on (probes are allowed again).
    sim::Time open_until = 6 * sim::kSecond;
    EXPECT_TRUE(r.circuit_open(open_until - 1));
    EXPECT_FALSE(r.circuit_open(open_until));
    EXPECT_FALSE(r.circuit_open(open_until + 1));
}

TEST(OffloadRetrier, FailuresWhileOpenDoNotAccumulateTrips)
{
    RetryConfig cfg;
    cfg.breaker_threshold = 3;
    cfg.breaker_cooldown = 5 * sim::kSecond;
    OffloadRetrier r(cfg);
    r.record_failure(sim::kSecond);
    r.record_failure(sim::kSecond);
    ASSERT_TRUE(r.record_failure(sim::kSecond));
    // In-flight sends keep failing inside the probation window; they
    // must neither re-trip nor count toward the next run.
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(r.record_failure(2 * sim::kSecond));
    // After cooldown the streak restarts from zero: it takes a full
    // threshold of fresh failures to open the breaker again.
    EXPECT_FALSE(r.record_failure(7 * sim::kSecond));
    EXPECT_FALSE(r.record_failure(7 * sim::kSecond));
    EXPECT_TRUE(r.record_failure(7 * sim::kSecond));
}

// ---------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------

TEST(FaultPlan, BuildersAppendEvents)
{
    FaultPlan p;
    p.device_crash(sim::kSecond, 3, 2 * sim::kSecond)
        .link_burst(2 * sim::kSecond, 4 * sim::kSecond)
        .partition(3 * sim::kSecond, sim::kSecond, 1)
        .server_crash(4 * sim::kSecond, 0)
        .datastore_outage(5 * sim::kSecond, sim::kSecond)
        .controller_crash(6 * sim::kSecond)
        .controller_partition(sim::kSecond, 2 * sim::kSecond);
    ASSERT_EQ(p.events.size(), 7u);
    EXPECT_EQ(p.events[0].kind, FaultKind::DeviceCrash);
    EXPECT_EQ(p.events[0].duration, 2 * sim::kSecond);
    EXPECT_EQ(p.events[5].kind, FaultKind::ControllerCrash);
    EXPECT_EQ(p.events[6].kind, FaultKind::ControllerPartition);
}

TEST(FaultPlan, PoissonChurnIsSeedDeterministic)
{
    FaultPlan a = FaultPlan::poisson_device_churn(
        42, 8, 100 * sim::kSecond, 10 * sim::kSecond, 5 * sim::kSecond);
    FaultPlan b = FaultPlan::poisson_device_churn(
        42, 8, 100 * sim::kSecond, 10 * sim::kSecond, 5 * sim::kSecond);
    ASSERT_EQ(a.events.size(), b.events.size());
    ASSERT_FALSE(a.empty());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].at, b.events[i].at);
        EXPECT_EQ(a.events[i].target, b.events[i].target);
        EXPECT_LT(a.events[i].at, 100 * sim::kSecond);
        EXPECT_LT(a.events[i].target, 8u);
        EXPECT_EQ(a.events[i].duration, 5 * sim::kSecond);
    }
}

// ---------------------------------------------------------------------
// Datastore outages
// ---------------------------------------------------------------------

TEST(Outage, DatastoreAccessesStallUntilWindowCloses)
{
    sim::Simulator s;
    sim::Rng rng(3);
    cloud::DataStore store(s, rng, cloud::DataStoreConfig{});
    store.fail_until(2 * sim::kSecond);
    EXPECT_TRUE(store.in_outage());
    sim::Time done = 0;
    store.access(0, [&] { done = s.now(); });
    s.run();
    EXPECT_GE(done, 2 * sim::kSecond);
    EXPECT_FALSE(store.in_outage());
}

// ---------------------------------------------------------------------
// Server crash recovery under the Restore policies
// (acceptance criterion b)
// ---------------------------------------------------------------------

struct CrashRunResult
{
    cloud::InvocationTrace trace;
    bool done = false;
    std::uint64_t killed = 0;
    double work_lost = 0.0;
    double reexecuted = 0.0;
    std::uint64_t lost = 0;
};

CrashRunResult
run_crash_recovery(cloud::FaultRecovery policy)
{
    sim::Simulator s;
    sim::Rng rng(99);
    cloud::Cluster cluster(1, 8, 32 * 1024);  // One server: known target.
    cloud::DataStore store(s, rng, cloud::DataStoreConfig{});
    cloud::FaasRuntime rt(s, rng, cluster, store, cloud::FaasConfig{});

    cloud::InvokeRequest req;
    req.app = rt.intern("victim");
    req.work_core_ms = 2000.0;  // Executes for ~2 s.
    req.recovery = policy;
    req.checkpoint_granularity = 0.25;

    CrashRunResult out;
    rt.invoke(req, [&](const cloud::InvocationTrace& t) {
        out.trace = t;
        out.done = true;
    });
    // The body starts after front-end + cold start (~170 ms); by 1.2 s
    // the function is mid-run, past at least one checkpoint boundary.
    s.schedule_at(1200 * sim::kMillisecond, [&]() {
        rt.crash_server(0);
        s.schedule_in(500 * sim::kMillisecond,
                      [&]() { rt.restore_server(0); });
    });
    s.run();
    out.killed = rt.killed_invocations();
    out.work_lost = rt.work_lost_core_ms();
    out.reexecuted = rt.reexecuted_core_ms();
    out.lost = rt.lost();
    return out;
}

TEST(ServerCrash, RespawnReexecutesKilledInvocation)
{
    CrashRunResult r = run_crash_recovery(cloud::FaultRecovery::Respawn);
    ASSERT_TRUE(r.done);
    EXPECT_FALSE(r.trace.lost);
    EXPECT_GE(r.trace.attempts, 2);
    EXPECT_EQ(r.killed, 1u);
    EXPECT_GT(r.work_lost, 0.0);
    EXPECT_GT(r.reexecuted, 0.0);
    // Completion lands after the server came back.
    EXPECT_GT(r.trace.done, 1700 * sim::kMillisecond);
}

TEST(ServerCrash, CheckpointRedoesLessThanRespawn)
{
    CrashRunResult respawn =
        run_crash_recovery(cloud::FaultRecovery::Respawn);
    CrashRunResult checkpoint =
        run_crash_recovery(cloud::FaultRecovery::Checkpoint);
    ASSERT_TRUE(respawn.done);
    ASSERT_TRUE(checkpoint.done);
    EXPECT_EQ(checkpoint.killed, 1u);
    // Checkpoint resumes from the last 25% boundary instead of zero:
    // strictly less progress is re-driven, and strictly less is lost.
    EXPECT_GT(checkpoint.reexecuted, 0.0);
    EXPECT_LT(checkpoint.reexecuted, respawn.reexecuted);
    EXPECT_LT(checkpoint.work_lost, respawn.work_lost);
    // Both finish the full job.
    EXPECT_FALSE(checkpoint.trace.lost);
    EXPECT_GE(checkpoint.trace.attempts, 2);
}

TEST(ServerCrash, NonePolicyLosesTheInvocation)
{
    CrashRunResult r = run_crash_recovery(cloud::FaultRecovery::None);
    ASSERT_TRUE(r.done);  // The caller still hears back...
    EXPECT_TRUE(r.trace.lost);  // ...but the work is gone.
    EXPECT_EQ(r.lost, 1u);
    EXPECT_EQ(r.killed, 1u);
    EXPECT_DOUBLE_EQ(r.reexecuted, 0.0);
}

TEST(ServerCrash, WarmPoolEvaporatesAndServerRejoins)
{
    sim::Simulator s;
    sim::Rng rng(7);
    cloud::Cluster cluster(1, 8, 32 * 1024);
    cloud::DataStore store(s, rng, cloud::DataStoreConfig{});
    cloud::FaasConfig cfg;
    cfg.keepalive = 60 * sim::kSecond;  // Containers stay warm.
    cloud::FaasRuntime rt(s, rng, cluster, store, cfg);

    cloud::InvokeRequest req;
    req.app = rt.intern("a");
    req.work_core_ms = 20.0;
    int completions = 0;
    rt.invoke(req, [&](const cloud::InvocationTrace&) { ++completions; });
    s.run();
    ASSERT_EQ(completions, 1);

    // Crash while idle: the warm container dies with the host.
    rt.crash_server(0);
    s.schedule_in(100 * sim::kMillisecond, [&]() { rt.restore_server(0); });
    s.run();
    rt.invoke(req, [&](const cloud::InvocationTrace& t) {
        ++completions;
        EXPECT_TRUE(t.cold_start);  // No warm container survived.
    });
    s.run();
    EXPECT_EQ(completions, 2);
    EXPECT_EQ(rt.warm_starts(), 0u);
}

// ---------------------------------------------------------------------
// Deterministic replay of a full scenario under a rich plan
// (acceptance criterion c)
// ---------------------------------------------------------------------

/**
 * A scenario that reliably outlives its fault plan: far more targets
 * than one sweep can find and a hard 45 s cap, so every plan event
 * below fires on every run regardless of how the goal chase goes.
 */
platform::ScenarioConfig
chaotic_scenario()
{
    platform::ScenarioConfig sc;
    sc.kind = platform::ScenarioKind::StationaryItems;
    sc.field_size_m = 96.0;
    sc.targets = 50;
    sc.time_cap = 45 * sim::kSecond;
    sc.recovery = cloud::FaultRecovery::Checkpoint;
    sc.faults = FaultPlan::poisson_device_churn(
        7, 8, 120 * sim::kSecond, 40 * sim::kSecond, 10 * sim::kSecond);
    sc.faults.device_crash(12 * sim::kSecond, 3, 9 * sim::kSecond)
        .server_crash(15 * sim::kSecond, 0, 3 * sim::kSecond)
        .link_burst(18 * sim::kSecond, 8 * sim::kSecond, 0.9)
        .datastore_outage(20 * sim::kSecond, 2 * sim::kSecond)
        .controller_crash(22 * sim::kSecond)
        .controller_crash(24 * sim::kSecond)
        .partition(26 * sim::kSecond, 4 * sim::kSecond, 2);
    return sc;
}

platform::DeploymentConfig
chaotic_deployment()
{
    platform::DeploymentConfig cfg;
    cfg.devices = 8;
    cfg.servers = 6;
    cfg.cores_per_server = 20;
    cfg.seed = 2024;
    return cfg;
}

TEST(Determinism, IdenticalSeedsAndPlansReplayBitIdentically)
{
    platform::ScenarioConfig sc = chaotic_scenario();
    platform::RunMetrics a = run_scenario(
        sc, platform::PlatformOptions::hivemind(), chaotic_deployment());
    platform::RunMetrics b = run_scenario(
        sc, platform::PlatformOptions::hivemind(), chaotic_deployment());

    const RecoveryMetrics& ra = a.recovery;
    const RecoveryMetrics& rb = b.recovery;
    EXPECT_EQ(ra.mttd_s.count(), rb.mttd_s.count());
    if (!ra.mttd_s.empty()) {
        EXPECT_DOUBLE_EQ(ra.mttd_s.mean(), rb.mttd_s.mean());
    }
    EXPECT_EQ(ra.mttr_s.count(), rb.mttr_s.count());
    if (!ra.mttr_s.empty()) {
        EXPECT_DOUBLE_EQ(ra.mttr_s.mean(), rb.mttr_s.mean());
    }
    EXPECT_DOUBLE_EQ(ra.work_lost_core_ms, rb.work_lost_core_ms);
    EXPECT_DOUBLE_EQ(ra.reexecuted_core_ms, rb.reexecuted_core_ms);
    EXPECT_EQ(ra.frames_dropped, rb.frames_dropped);
    EXPECT_EQ(ra.offloads_abandoned, rb.offloads_abandoned);
    EXPECT_EQ(ra.offload_retries, rb.offload_retries);
    EXPECT_EQ(ra.circuit_open_events, rb.circuit_open_events);
    EXPECT_EQ(ra.device_crashes, rb.device_crashes);
    EXPECT_EQ(ra.device_rejoins, rb.device_rejoins);
    EXPECT_EQ(ra.server_crashes, rb.server_crashes);
    EXPECT_EQ(ra.killed_invocations, rb.killed_invocations);
    EXPECT_EQ(ra.datastore_outages, rb.datastore_outages);
    EXPECT_EQ(ra.controller_failovers, rb.controller_failovers);
    EXPECT_EQ(ra.link_burst_windows, rb.link_burst_windows);
    EXPECT_EQ(ra.partitions, rb.partitions);

    // Controller-HA ledger replays bit-identically too.
    EXPECT_EQ(ra.controller_crashes, rb.controller_crashes);
    EXPECT_EQ(ra.controller_partitions, rb.controller_partitions);
    EXPECT_EQ(ra.controller_mttd_s.count(), rb.controller_mttd_s.count());
    if (!ra.controller_mttd_s.empty()) {
        EXPECT_DOUBLE_EQ(ra.controller_mttd_s.mean(),
                         rb.controller_mttd_s.mean());
    }
    EXPECT_EQ(ra.controller_mttr_s.count(), rb.controller_mttr_s.count());
    if (!ra.controller_mttr_s.empty()) {
        EXPECT_DOUBLE_EQ(ra.controller_mttr_s.mean(),
                         rb.controller_mttr_s.mean());
    }
    EXPECT_EQ(ra.checkpoint_age_s.count(), rb.checkpoint_age_s.count());
    EXPECT_EQ(ra.checkpoints_taken, rb.checkpoints_taken);
    EXPECT_EQ(ra.checkpoint_bytes, rb.checkpoint_bytes);
    EXPECT_EQ(ra.tasks_redriven_on_failover, rb.tasks_redriven_on_failover);
    EXPECT_EQ(ra.frames_buffered_degraded, rb.frames_buffered_degraded);
    EXPECT_EQ(ra.buffered_frames_drained, rb.buffered_frames_drained);
    EXPECT_DOUBLE_EQ(ra.controller_outage_s, rb.controller_outage_s);
    EXPECT_EQ(ra.outage_tasks_completed, rb.outage_tasks_completed);

    EXPECT_DOUBLE_EQ(a.completion_s, b.completion_s);
    EXPECT_EQ(a.tasks_completed, b.tasks_completed);
    EXPECT_EQ(a.task_latency_s.count(), b.task_latency_s.count());
    if (!a.task_latency_s.empty()) {
        EXPECT_DOUBLE_EQ(a.task_latency_s.mean(), b.task_latency_s.mean());
    }

    // The plan actually did something in both runs.
    EXPECT_GE(ra.device_crashes, 1u);
    EXPECT_EQ(ra.server_crashes, 1u);
    EXPECT_EQ(ra.link_burst_windows, 1u);
    EXPECT_EQ(ra.partitions, 1u);
    EXPECT_EQ(ra.datastore_outages, 1u);
    // The second controller crash lands two seconds after the first,
    // while the standby is still taking over, so one takeover
    // recovers both.
    EXPECT_EQ(ra.controller_crashes, 2u);
    EXPECT_EQ(ra.controller_failovers, 1u);
}

/** A long-lived drone scenario (huge goal, hard cap) for fault tests. */
platform::ScenarioConfig
capped_scenario(sim::Time cap)
{
    platform::ScenarioConfig sc;
    sc.kind = platform::ScenarioKind::StationaryItems;
    sc.field_size_m = 96.0;
    sc.targets = 50;
    sc.time_cap = cap;
    return sc;
}

TEST(Scenario, CrashedDeviceRejoinsMidScenario)
{
    platform::ScenarioConfig sc = capped_scenario(30 * sim::kSecond);
    sc.faults.device_crash(10 * sim::kSecond, 2, 8 * sim::kSecond);
    // Down for 1 s: device 5 beats again long before the 3 s timeout,
    // so the controller never flags it and the ledger samples nothing.
    sc.faults.device_crash(20 * sim::kSecond, 5, sim::kSecond);

    platform::DeploymentConfig cfg;
    cfg.devices = 8;
    cfg.servers = 6;
    cfg.cores_per_server = 20;
    cfg.seed = 31;

    platform::RunMetrics m = run_scenario(
        sc, platform::PlatformOptions::hivemind(), cfg);
    EXPECT_EQ(m.recovery.device_crashes, 2u);
    EXPECT_EQ(m.recovery.device_rejoins, 2u);
    EXPECT_GT(m.tasks_completed, 0u);
    // The heartbeat detector flags device 2's silence (3 s timeout,
    // 1 Hz sweep), and its incident closes only when the device is
    // heard from again after its 8 s down window.
    ASSERT_EQ(m.recovery.mttd_s.count(), 1u);
    EXPECT_GT(m.recovery.mttd_s.mean(), 2.0);
    EXPECT_LT(m.recovery.mttd_s.mean(), 6.0);
    ASSERT_EQ(m.recovery.mttr_s.count(), 1u);
    EXPECT_GE(m.recovery.mttr_s.mean(), 8.0);

    // The whole recovery ledger, samples included, is shard-invariant.
    for (int shards : {2, 4}) {
        sc.shards = shards;
        platform::RunMetrics r = run_scenario(
            sc, platform::PlatformOptions::hivemind(), cfg);
        EXPECT_TRUE(r.recovery == m.recovery)
            << "shards=" << shards << "\n"
            << metrics_diff_string(m.recovery, r.recovery);
    }
}

TEST(Scenario, PermanentCrashClosesAtRepartition)
{
    platform::ScenarioConfig sc = capped_scenario(30 * sim::kSecond);
    sc.faults.device_crash(15 * sim::kSecond, 1);  // Never rejoins.

    platform::DeploymentConfig cfg;
    cfg.devices = 8;
    cfg.servers = 6;
    cfg.cores_per_server = 20;
    cfg.seed = 32;

    platform::RunMetrics m = run_scenario(
        sc, platform::PlatformOptions::hivemind(), cfg);
    EXPECT_EQ(m.recovery.device_crashes, 1u);
    EXPECT_EQ(m.recovery.device_rejoins, 0u);
    // A permanent crash closes when HiveMind repartitions the dead
    // device's region, right at its detection: MTTR == MTTD.
    ASSERT_EQ(m.recovery.mttd_s.count(), 1u);
    ASSERT_EQ(m.recovery.mttr_s.count(), 1u);
    EXPECT_DOUBLE_EQ(m.recovery.mttr_s.mean(), m.recovery.mttd_s.mean());
}

}  // namespace
}  // namespace hivemind::fault
