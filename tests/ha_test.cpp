/**
 * @file
 * Tests for controller high availability (Secs. 4.6-4.7): checkpoint
 * durability through the datastore, load-balancer state
 * snapshot/restore, standby election + takeover timing, degraded-mode
 * edge autonomy (local waypoint continuation and bounded frame
 * buffering), and full scenario runs that lose their swarm controller
 * mid-flight yet still complete.
 */

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "cloud/datastore.hpp"
#include "core/ha.hpp"
#include "core/load_balancer.hpp"
#include "edge/device.hpp"
#include "fault/plan.hpp"
#include "platform/options.hpp"
#include "platform/scenario.hpp"
#include "platform/sharded_scenario.hpp"
#include "sim/simulator.hpp"

namespace hivemind::core {
namespace {

// ---------------------------------------------------------------------
// CheckpointStore
// ---------------------------------------------------------------------

ControllerCheckpoint
small_checkpoint(std::uint64_t seq, std::size_t devices)
{
    ControllerCheckpoint cp;
    cp.seq = seq;
    cp.device_failed.assign(devices, 0);
    cp.inflight.assign(devices, 0);
    return cp;
}

/** Writes and reads commit one event later. */
void
install_zero_delay_transport(CheckpointStore& store, sim::Simulator& s)
{
    auto next_event = [&s](std::uint64_t, std::function<void()> done) {
        s.schedule_in(0, std::move(done));
    };
    store.set_transport(next_event, next_event);
}

/** Writes and reads each take one access of @p ds's queue. */
void
install_datastore_transport(CheckpointStore& store, cloud::DataStore& ds)
{
    auto access = [&ds](std::uint64_t bytes, std::function<void()> done) {
        ds.access(bytes, std::move(done));
    };
    store.set_transport(access, access);
}

TEST(CheckpointStore, DurableOnlyAfterWriteCompletes)
{
    sim::Simulator s;
    CheckpointStore store;
    install_zero_delay_transport(store, s);
    ControllerCheckpoint cp = small_checkpoint(1, 4);
    std::uint64_t bytes = cp.size_bytes();
    store.persist(cp);
    EXPECT_FALSE(store.latest().has_value());  // Not durable yet.
    s.run();
    ASSERT_TRUE(store.latest().has_value());
    EXPECT_EQ(store.latest()->seq, 1u);
    EXPECT_EQ(store.persisted(), 1u);
    EXPECT_EQ(store.bytes_written(), bytes);
}

TEST(CheckpointStore, DatastoreOutageDelaysDurability)
{
    sim::Simulator s;
    sim::Rng rng(11);
    cloud::DataStore ds(s, rng, cloud::DataStoreConfig{});
    ds.fail_until(2 * sim::kSecond);
    CheckpointStore store;
    install_datastore_transport(store, ds);
    store.persist(small_checkpoint(1, 4));
    s.schedule_at(sim::kSecond, [&]() {
        // Mid-outage: the write is still queued behind the window.
        EXPECT_FALSE(store.latest().has_value());
    });
    s.run();
    ASSERT_TRUE(store.latest().has_value());
    EXPECT_EQ(store.persisted(), 1u);
}

TEST(CheckpointStore, SlowWriteNeverClobbersNewerCheckpoint)
{
    sim::Simulator s;
    sim::Rng rng(12);
    cloud::DataStore ds(s, rng, cloud::DataStoreConfig{});
    CheckpointStore store;
    install_datastore_transport(store, ds);
    // Both writes race through the store's queue; whatever the
    // completion order, the newest seq must win (a write finishing
    // after a newer durable checkpoint is discarded, not counted).
    store.persist(small_checkpoint(1, 4));
    store.persist(small_checkpoint(2, 4));
    s.run();
    ASSERT_TRUE(store.latest().has_value());
    EXPECT_EQ(store.latest()->seq, 2u);
    EXPECT_GE(store.persisted(), 1u);
    EXPECT_LE(store.persisted(), 2u);
}

// ---------------------------------------------------------------------
// SwarmLoadBalancer snapshot / restore
// ---------------------------------------------------------------------

TEST(LoadBalancer, SnapshotRestoreRoundTrip)
{
    SwarmLoadBalancer balancer(geo::Rect{0, 0, 40, 40}, 4);
    SwarmLoadBalancer::Snapshot snap = balancer.snapshot();
    ASSERT_EQ(snap.assignments.size(), 4u);

    // Mutate: lose a device, its strip is split among neighbours.
    balancer.handle_failure(2);
    EXPECT_FALSE(balancer.region_of(2).has_value());
    EXPECT_EQ(balancer.active_devices().size(), 3u);

    // Restore rewinds to the snapshotted partition exactly.
    balancer.restore(snap);
    ASSERT_TRUE(balancer.region_of(2).has_value());
    EXPECT_EQ(balancer.active_devices().size(), 4u);
    EXPECT_NEAR(balancer.assigned_area(), 40.0 * 40.0, 1e-6);
    for (const auto& [d, r] : snap.assignments) {
        ASSERT_TRUE(balancer.region_of(d).has_value());
        EXPECT_DOUBLE_EQ(balancer.region_of(d)->x0, r.x0);
        EXPECT_DOUBLE_EQ(balancer.region_of(d)->x1, r.x1);
    }
}

// ---------------------------------------------------------------------
// HaCluster: election, takeover, partition, standby exhaustion
// ---------------------------------------------------------------------

struct HaFixture
{
    sim::Simulator s;
    HaCluster ha;
    int detected = 0;
    int restored = 0;
    std::vector<bool> availability;
    double last_age = -2.0;

    explicit HaFixture(const HaConfig& cfg = HaConfig{})
        : ha(s, cfg)
    {
        install_zero_delay_transport(ha.checkpoint_store(), s);
        ha.set_snapshot([this]() {
            ControllerCheckpoint cp;
            cp.device_failed.assign(8, 0);
            cp.inflight = {1, 1, 1, 0, 0, 0, 0, 0};
            return cp;
        });
        ha.set_on_takeover([](const ControllerCheckpoint& cp) {
            ReconcileReport rep;
            rep.devices_reregistered = cp.device_failed.size();
            for (std::uint32_t c : cp.inflight)
                rep.offloads_redriven += c;
            return rep;
        });
        ha.set_on_detected([this]() { ++detected; });
        ha.set_on_restored([this](double age) {
            ++restored;
            last_age = age;
        });
        ha.set_on_availability(
            [this](bool up) { availability.push_back(up); });
    }
};

TEST(HaCluster, CrashElectsWithinTimeoutAndRecovers)
{
    HaFixture f;
    f.ha.start();
    f.s.schedule_at(10 * sim::kSecond + 250 * sim::kMillisecond,
                    [&]() { f.ha.crash_active(); });
    f.s.run_until(30 * sim::kSecond);
    f.ha.stop();

    EXPECT_EQ(f.ha.failovers(), 1u);
    EXPECT_EQ(f.detected, 1);
    EXPECT_EQ(f.restored, 1);
    EXPECT_TRUE(f.ha.available());

    // Detection: election timeout (1.5 s) plus at most one watchdog
    // beat (0.5 s) of granularity — well inside the 3 s device
    // heartbeat timeout the paper quotes.
    ASSERT_EQ(f.ha.detect_s().count(), 1u);
    double mttd = f.ha.detect_s().mean();
    EXPECT_GT(mttd, 1.5 - 1e-9);
    EXPECT_LE(mttd, 2.0 + 1e-9);

    // Recovery = detection + checkpoint read + replay (size + drift)
    // + reconcile (8 devices) + redrive (3 offloads).
    ASSERT_EQ(f.ha.recover_s().count(), 1u);
    double mttr = f.ha.recover_s().mean();
    EXPECT_GT(mttr, mttd);
    EXPECT_LT(mttr, 3.0);
    EXPECT_NEAR(f.ha.unavailable_seconds(), mttr, 1e-9);

    // Crash at 10.25 s replayed the 10 s checkpoint: age 0.25 s.
    ASSERT_EQ(f.ha.checkpoint_age_s().count(), 1u);
    EXPECT_NEAR(f.ha.checkpoint_age_s().mean(), 0.25, 1e-6);
    EXPECT_NEAR(f.last_age, 0.25, 1e-6);
    EXPECT_EQ(f.ha.offloads_redriven(), 3u);

    // Down edge then up edge, in order.
    ASSERT_EQ(f.availability.size(), 2u);
    EXPECT_FALSE(f.availability[0]);
    EXPECT_TRUE(f.availability[1]);
}

TEST(HaCluster, RecoveryGrowsWithCheckpointAge)
{
    // Same crash instant, staler checkpoint: interval 2 s vs 16 s.
    auto run_with_interval = [](sim::Time interval) {
        HaConfig cfg;
        cfg.checkpoint_interval = interval;
        HaFixture f(cfg);
        f.ha.start();
        f.s.schedule_at(
            15 * sim::kSecond + 700 * sim::kMillisecond,
            [&f]() { f.ha.crash_active(); });
        f.s.run_until(40 * sim::kSecond);
        f.ha.stop();
        EXPECT_EQ(f.ha.failovers(), 1u);
        return std::pair<double, double>{f.ha.checkpoint_age_s().mean(),
                                         f.ha.recover_s().mean()};
    };
    auto [age_fresh, mttr_fresh] = run_with_interval(2 * sim::kSecond);
    auto [age_stale, mttr_stale] = run_with_interval(16 * sim::kSecond);
    EXPECT_NEAR(age_fresh, 1.7, 1e-6);   // Checkpoints at 0, 2, .., 14.
    EXPECT_NEAR(age_stale, 15.7, 1e-6);  // Only the bootstrap at 0.
    EXPECT_LT(mttr_fresh, mttr_stale);
    // The gap is the drift-replay term over the extra 14 s of age.
    EXPECT_NEAR(mttr_stale - mttr_fresh, 0.15 * 14.0, 0.1);
}

TEST(HaCluster, PartitionHealsWithoutConsumingAStandby)
{
    HaFixture f;
    f.ha.start();
    f.s.schedule_at(5 * sim::kSecond,
                    [&]() { f.ha.partition(4 * sim::kSecond); });
    f.s.schedule_at(6 * sim::kSecond,
                    [&]() { EXPECT_FALSE(f.ha.available()); });
    f.s.run_until(20 * sim::kSecond);
    f.ha.stop();

    EXPECT_EQ(f.ha.failovers(), 0u);  // Same primary all along.
    EXPECT_EQ(f.detected, 0);
    EXPECT_EQ(f.ha.detect_s().count(), 0u);
    EXPECT_TRUE(f.ha.available());
    EXPECT_NEAR(f.ha.unavailable_seconds(), 4.0, 1e-9);
    // Restored fires with a negative age: nothing was replayed.
    EXPECT_EQ(f.restored, 1);
    EXPECT_LT(f.last_age, 0.0);
}

TEST(HaCluster, StandbyExhaustionLeavesOutageOpen)
{
    HaConfig cfg;
    cfg.standbys = 1;
    HaFixture f(cfg);
    f.ha.start();
    f.s.schedule_at(5 * sim::kSecond, [&]() { f.ha.crash_active(); });
    // Second crash kills the promoted (last) standby: nobody is left.
    f.s.schedule_at(15 * sim::kSecond, [&]() { f.ha.crash_active(); });
    f.s.run_until(30 * sim::kSecond);

    EXPECT_EQ(f.ha.failovers(), 1u);
    EXPECT_EQ(f.detected, 2);  // Both elections fired...
    EXPECT_EQ(f.restored, 1);  // ...but only the first takeover ran.
    EXPECT_FALSE(f.ha.available());
    // The open window accrues until stop() closes it.
    EXPECT_GT(f.ha.unavailable_seconds(), 10.0);
    f.ha.stop();
    EXPECT_EQ(f.ha.recover_s().count(), 1u);
}

// ---------------------------------------------------------------------
// Degraded-mode edge autonomy
// ---------------------------------------------------------------------

TEST(DegradedDevice, FrameBufferIsBoundedAndDrains)
{
    sim::Simulator s;
    sim::Rng rng(3);
    edge::DeviceSpec spec = edge::DeviceSpec::drone();
    spec.frame_buffer_limit = 4;
    edge::Device dev(s, rng, 0, spec);

    dev.set_degraded(true);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(dev.buffer_frame(100));
    EXPECT_FALSE(dev.buffer_frame(100));  // Fifth exceeds the bound.
    EXPECT_EQ(dev.buffered_frames(), 4u);
    EXPECT_EQ(dev.buffered_bytes(), 400u);
    EXPECT_EQ(dev.frames_dropped_onboard(), 1u);

    edge::Device::DrainedFrames out = dev.drain_buffered();
    EXPECT_EQ(out.frames, 4u);
    EXPECT_EQ(out.bytes, 400u);
    EXPECT_EQ(dev.buffered_frames(), 0u);
    EXPECT_EQ(dev.buffered_bytes(), 0u);
    EXPECT_TRUE(dev.buffer_frame(100));  // Bound resets after drain.
}

TEST(DegradedDevice, ResumeRouteReversedKeepsFlying)
{
    sim::Simulator s;
    sim::Rng rng(4);
    edge::Device dev(s, rng, 0, edge::DeviceSpec::drone());  // 4 m/s.
    dev.set_route({{0.0, 0.0}, {40.0, 0.0}});  // 10 s of flight.

    bool checked = false;
    s.schedule_at(12 * sim::kSecond, [&]() {
        ASSERT_TRUE(dev.route_done(s.now()));
        geo::Vec2 parked = dev.position_at(s.now());
        EXPECT_NEAR(parked.x, 40.0, 1e-9);
        // No controller: retrace the last route locally instead of
        // hovering in place until one comes back.
        ASSERT_TRUE(dev.resume_route_reversed());
        EXPECT_GT(dev.route_complete_at(), s.now());
        geo::Vec2 later = dev.position_at(s.now() + 5 * sim::kSecond);
        EXPECT_NEAR(later.x, 20.0, 1e-6);  // Halfway back already.
        checked = true;
    });
    s.run_until(13 * sim::kSecond);
    EXPECT_TRUE(checked);
}

TEST(DegradedDevice, ResumeWithoutRouteHoldsPosition)
{
    sim::Simulator s;
    sim::Rng rng(5);
    edge::Device dev(s, rng, 0, edge::DeviceSpec::drone());
    EXPECT_FALSE(dev.resume_route_reversed());
}

// ---------------------------------------------------------------------
// Scenario-level: lose the controller mid-run (acceptance criteria)
// ---------------------------------------------------------------------

platform::DeploymentConfig
ha_deployment(std::uint64_t seed)
{
    platform::DeploymentConfig cfg;
    cfg.devices = 8;
    cfg.servers = 6;
    cfg.cores_per_server = 20;
    cfg.seed = seed;
    return cfg;
}

TEST(ScenarioHa, ControllerCrashMidScenarioStillCompletes)
{
    platform::ScenarioConfig sc;
    sc.kind = platform::ScenarioKind::StationaryItems;
    sc.field_size_m = 96.0;
    sc.targets = 8;
    sc.time_cap = 120 * sim::kSecond;
    sc.faults.controller_crash(12 * sim::kSecond);

    platform::RunMetrics m = run_scenario(
        sc, platform::PlatformOptions::hivemind(), ha_deployment(77));

    // The standby took over and the mission still finished: no task
    // was permanently lost to the controller crash.
    EXPECT_TRUE(m.completed);
    EXPECT_EQ(m.recovery.controller_crashes, 1u);
    ASSERT_EQ(m.recovery.controller_mttd_s.count(), 1u);
    EXPECT_LE(m.recovery.controller_mttd_s.mean(), 3.0);  // <= hb timeout.
    ASSERT_EQ(m.recovery.controller_mttr_s.count(), 1u);
    EXPECT_GT(m.recovery.controller_mttr_s.mean(),
              m.recovery.controller_mttd_s.mean());
    EXPECT_LT(m.recovery.controller_mttr_s.mean(), 10.0);
    // Replayed checkpoint was at most one interval (5 s) stale.
    ASSERT_EQ(m.recovery.checkpoint_age_s.count(), 1u);
    EXPECT_LE(m.recovery.checkpoint_age_s.mean(), 5.5);
    // Checkpointing ran and was accounted.
    EXPECT_GT(m.recovery.checkpoints_taken, 1u);
    EXPECT_GT(m.recovery.checkpoint_bytes, 0u);
    // The outage window is visible and bounded by the MTTR.
    EXPECT_GT(m.recovery.controller_outage_s, 0.0);
    EXPECT_LT(m.recovery.controller_outage_s,
              m.recovery.controller_mttr_s.mean() + 1.0);
    // Degraded drones kept sensing: frames were buffered on-board and
    // drained once the standby came up.
    EXPECT_GT(m.recovery.frames_buffered_degraded, 0u);
    EXPECT_GT(m.recovery.buffered_frames_drained, 0u);
    // In-flight work at the crash was redriven by the new primary.
    EXPECT_GT(m.recovery.tasks_redriven_on_failover, 0u);
}

TEST(ScenarioHa, FrequentCheckpointsShrinkRecoveryTime)
{
    auto run_with_interval = [](sim::Time interval) {
        platform::ScenarioConfig sc;
        sc.kind = platform::ScenarioKind::StationaryItems;
        sc.field_size_m = 96.0;
        sc.targets = 50;  // Unreachable: the cap ends the run.
        sc.time_cap = 40 * sim::kSecond;
        sc.checkpoint_interval = interval;
        sc.faults.controller_crash(
            15 * sim::kSecond + 700 * sim::kMillisecond);
        return run_scenario(sc, platform::PlatformOptions::hivemind(),
                            ha_deployment(78));
    };
    platform::RunMetrics fresh = run_with_interval(sim::kSecond);
    platform::RunMetrics stale = run_with_interval(16 * sim::kSecond);
    ASSERT_EQ(fresh.recovery.controller_mttr_s.count(), 1u);
    ASSERT_EQ(stale.recovery.controller_mttr_s.count(), 1u);
    // Staler checkpoint -> more drift to replay -> slower recovery.
    EXPECT_LT(fresh.recovery.checkpoint_age_s.mean(),
              stale.recovery.checkpoint_age_s.mean());
    EXPECT_LT(fresh.recovery.controller_mttr_s.mean(),
              stale.recovery.controller_mttr_s.mean());
    // More frequent checkpointing costs more checkpoint traffic.
    EXPECT_GT(fresh.recovery.checkpoints_taken,
              stale.recovery.checkpoints_taken);
}

TEST(ScenarioHa, PartitionDegradesAndHealsWithoutFailover)
{
    platform::ScenarioConfig sc;
    sc.kind = platform::ScenarioKind::StationaryItems;
    sc.field_size_m = 96.0;
    sc.targets = 50;
    sc.time_cap = 30 * sim::kSecond;
    sc.faults.controller_partition(10 * sim::kSecond, 6 * sim::kSecond);

    platform::RunMetrics m = run_scenario(
        sc, platform::PlatformOptions::hivemind(), ha_deployment(79));

    EXPECT_EQ(m.recovery.controller_partitions, 1u);
    EXPECT_EQ(m.recovery.controller_crashes, 0u);
    // Same primary throughout: no election, no replayed checkpoint.
    EXPECT_EQ(m.recovery.controller_mttd_s.count(), 0u);
    EXPECT_EQ(m.recovery.controller_mttr_s.count(), 0u);
    // The outage is exactly the partition window.
    EXPECT_NEAR(m.recovery.controller_outage_s, 6.0, 0.5);
    // Edge autonomy: buffered while dark, drained after the heal.
    EXPECT_GT(m.recovery.frames_buffered_degraded, 0u);
    EXPECT_GT(m.recovery.buffered_frames_drained, 0u);
}

// ---------------------------------------------------------------------
// The same HA stack on the sharded engine
// ---------------------------------------------------------------------

TEST(ScenarioHa, ShardedPartitionDegradesAndHealsWithoutFailover)
{
    platform::ScenarioConfig sc;
    sc.kind = platform::ScenarioKind::StationaryItems;
    sc.field_size_m = 96.0;
    sc.targets = 50;
    sc.time_cap = 30 * sim::kSecond;
    sc.faults.controller_partition(10 * sim::kSecond, 6 * sim::kSecond);

    platform::ShardedScenarioResult res = platform::run_scenario_sharded(
        sc, platform::PlatformOptions::hivemind(), ha_deployment(79), 2);
    const fault::RecoveryMetrics& r = res.metrics.recovery;

    EXPECT_EQ(r.controller_partitions, 1u);
    EXPECT_EQ(r.controller_crashes, 0u);
    EXPECT_EQ(r.controller_failovers, 0u);  // Same primary all along.
    EXPECT_EQ(r.controller_mttd_s.count(), 0u);
    EXPECT_EQ(r.controller_mttr_s.count(), 0u);
    EXPECT_NEAR(r.controller_outage_s, 6.0, 0.5);
    // Degrade/resume broadcasts reached the devices over the control
    // links: buffering while dark, a drain after the heal.
    EXPECT_GT(r.frames_buffered_degraded, 0u);
    EXPECT_GT(r.buffered_frames_drained, 0u);
}

TEST(ScenarioHa, ShardedFrequentCheckpointsShrinkRecoveryTime)
{
    auto run_with_interval = [](sim::Time interval) {
        platform::ScenarioConfig sc;
        sc.kind = platform::ScenarioKind::StationaryItems;
        sc.field_size_m = 96.0;
        sc.targets = 50;  // Unreachable: the cap ends the run.
        sc.time_cap = 40 * sim::kSecond;
        sc.checkpoint_interval = interval;
        sc.faults.controller_crash(
            15 * sim::kSecond + 700 * sim::kMillisecond);
        return platform::run_scenario_sharded(
                   sc, platform::PlatformOptions::hivemind(),
                   ha_deployment(78), 2)
            .metrics;
    };
    platform::RunMetrics fresh = run_with_interval(sim::kSecond);
    platform::RunMetrics stale = run_with_interval(16 * sim::kSecond);
    ASSERT_EQ(fresh.recovery.controller_mttr_s.count(), 1u);
    ASSERT_EQ(stale.recovery.controller_mttr_s.count(), 1u);
    // Staler checkpoint -> more drift to replay -> slower recovery:
    // the checkpoint RPCs ride the dedicated ShardLink plane to the
    // cloud shard's DataStore.
    EXPECT_LT(fresh.recovery.checkpoint_age_s.mean(),
              stale.recovery.checkpoint_age_s.mean());
    EXPECT_LT(fresh.recovery.controller_mttr_s.mean(),
              stale.recovery.controller_mttr_s.mean());
    EXPECT_GT(fresh.recovery.checkpoints_taken,
              stale.recovery.checkpoints_taken);
}

}  // namespace
}  // namespace hivemind::core
