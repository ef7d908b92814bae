/**
 * @file
 * Tests for the HiveMind controller: heartbeats, load balancing,
 * the serverless scheduler, and continuous learning (src/core).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/heartbeat.hpp"
#include "core/learning.hpp"
#include "core/load_balancer.hpp"
#include "core/scheduler.hpp"

namespace hivemind::core {
namespace {

TEST(FailureDetector, DetectsSilenceAfterTimeout)
{
    sim::Simulator s;
    FailureDetector fd(s, 3);
    std::vector<std::size_t> failures;
    sim::Time detected_at = 0;
    fd.set_on_failure([&](std::size_t d) {
        failures.push_back(d);
        detected_at = s.now();
    });
    fd.start();
    // Devices 0 and 2 keep beating; device 1 goes silent at t=5 s.
    for (int t = 1; t <= 20; ++t) {
        s.schedule_at(t * sim::kSecond - 1, [&fd, t]() {
            fd.beat(0);
            fd.beat(2);
            if (t <= 5)
                fd.beat(1);
        });
    }
    s.run_until(20 * sim::kSecond);
    fd.stop();
    s.run();
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0], 1u);
    EXPECT_TRUE(fd.is_failed(1));
    EXPECT_FALSE(fd.is_failed(0));
    EXPECT_EQ(fd.failed_count(), 1u);
    // Detection within ~timeout + one sweep (3 + 1 s) of the last
    // beat, which landed just before t = 5 s.
    const double detection_s =
        sim::to_seconds(detected_at - (5 * sim::kSecond - 1));
    EXPECT_LE(detection_s, 4.1);
    EXPECT_GT(detection_s, 3.0);
}

TEST(FailureDetector, NoFalsePositivesWhileBeating)
{
    sim::Simulator s;
    FailureDetector fd(s, 4);
    int failures = 0;
    fd.set_on_failure([&](std::size_t) { ++failures; });
    fd.start();
    for (int t = 1; t <= 30; ++t) {
        s.schedule_at(t * sim::kSecond - 1, [&fd]() {
            for (std::size_t d = 0; d < 4; ++d)
                fd.beat(d);
        });
    }
    s.run_until(30 * sim::kSecond);
    fd.stop();
    s.run();
    EXPECT_EQ(failures, 0);
}

TEST(FailureDetector, RecoveryClearsFailureAndReportsLatency)
{
    sim::Simulator s;
    FailureDetector fd(s, 2);
    std::vector<std::size_t> recoveries;
    sim::Time recovered_at = 0;
    fd.set_on_recovery([&](std::size_t d) {
        recoveries.push_back(d);
        recovered_at = s.now();
    });
    fd.start();
    // Device 0 beats until t=5 s, goes silent, resumes at t=15 s.
    for (int t = 1; t <= 25; ++t) {
        s.schedule_at(t * sim::kSecond - 1, [&fd, t]() {
            fd.beat(1);
            if (t <= 5 || t >= 15)
                fd.beat(0);
        });
    }
    s.run_until(25 * sim::kSecond);
    fd.stop();
    s.run();
    EXPECT_FALSE(fd.is_failed(0));  // Un-stuck by the resumed beat.
    ASSERT_EQ(recoveries.size(), 1u);
    EXPECT_EQ(recoveries[0], 0u);
    // Silence began at the last beat (~5 s); recovery at ~15 s.
    const double recovery_s =
        sim::to_seconds(recovered_at - (5 * sim::kSecond - 1));
    EXPECT_GT(recovery_s, 8.0);
    EXPECT_LT(recovery_s, 12.0);
}

TEST(FailureDetector, OutOfRangeDeviceIsIgnored)
{
    sim::Simulator s;
    FailureDetector fd(s, 2);
    fd.beat(7);  // Must not crash or grow state.
    EXPECT_FALSE(fd.is_failed(7));
    EXPECT_EQ(fd.failed_count(), 0u);
}

TEST(LoadBalancer, RejoinSplitsWidestStrip)
{
    SwarmLoadBalancer lb(geo::Rect{0, 0, 90, 30}, 3);
    lb.handle_failure(1);
    ASSERT_FALSE(lb.region_of(1).has_value());
    auto changed = lb.handle_rejoin(1);
    ASSERT_EQ(changed.size(), 2u);
    ASSERT_TRUE(lb.region_of(1).has_value());
    EXPECT_NEAR(lb.assigned_area(), 90.0 * 30.0, 1e-9);
    EXPECT_EQ(lb.active_devices().size(), 3u);
    // Rejoining while still holding a region is a no-op.
    EXPECT_TRUE(lb.handle_rejoin(1).empty());
}

TEST(LoadBalancer, RejoinIntoEmptyFieldTakesEverything)
{
    SwarmLoadBalancer lb(geo::Rect{0, 0, 60, 20}, 2);
    lb.handle_failure(0);
    lb.handle_failure(1);
    EXPECT_EQ(lb.active_devices().size(), 0u);
    auto changed = lb.handle_rejoin(0);
    ASSERT_EQ(changed.size(), 1u);
    ASSERT_TRUE(lb.region_of(0).has_value());
    EXPECT_NEAR(lb.region_of(0)->area(), 60.0 * 20.0, 1e-9);
}

TEST(LoadBalancer, EqualInitialPartition)
{
    geo::Rect field{0, 0, 96, 96};
    SwarmLoadBalancer lb(field, 16);
    EXPECT_EQ(lb.active_devices().size(), 16u);
    for (std::size_t d = 0; d < 16; ++d) {
        auto r = lb.region_of(d);
        ASSERT_TRUE(r.has_value());
        EXPECT_NEAR(r->area(), field.area() / 16.0, 1e-9);
    }
    EXPECT_NEAR(lb.assigned_area(), field.area(), 1e-6);
}

TEST(LoadBalancer, FailureRepartitionConservesArea)
{
    geo::Rect field{0, 0, 96, 96};
    SwarmLoadBalancer lb(field, 8);
    auto changed = lb.handle_failure(3);
    // Fig. 10: the neighbours absorb the freed strip.
    ASSERT_EQ(changed.size(), 2u);
    EXPECT_EQ(changed[0], 2u);
    EXPECT_EQ(changed[1], 4u);
    EXPECT_FALSE(lb.region_of(3).has_value());
    EXPECT_EQ(lb.active_devices().size(), 7u);
    EXPECT_NEAR(lb.assigned_area(), field.area(), 1e-6);
    // Neighbours' regions grew.
    EXPECT_GT(lb.region_of(2)->area(), field.area() / 8.0);
    EXPECT_GT(lb.region_of(4)->area(), field.area() / 8.0);
}

TEST(LoadBalancer, CascadingFailuresDownToOne)
{
    geo::Rect field{0, 0, 90, 30};
    SwarmLoadBalancer lb(field, 5);
    for (std::size_t d = 0; d < 4; ++d)
        lb.handle_failure(d);
    EXPECT_EQ(lb.active_devices().size(), 1u);
    EXPECT_NEAR(lb.region_of(4)->area(), field.area(), 1e-6);
    // Last device failing leaves nothing assigned.
    lb.handle_failure(4);
    EXPECT_TRUE(lb.active_devices().empty());
    EXPECT_DOUBLE_EQ(lb.assigned_area(), 0.0);
}

TEST(LoadBalancer, RouteForCoversRegion)
{
    SwarmLoadBalancer lb(geo::Rect{0, 0, 96, 96}, 16);
    auto route = lb.route_for(0, 6.7);
    EXPECT_FALSE(route.empty());
    EXPECT_TRUE(lb.route_for(99, 6.7).empty());  // Unknown device.
}

class SchedulerFixture : public ::testing::Test
{
  protected:
    SchedulerFixture()
        : rng_(5),
          cluster_(4, 8, 32 * 1024),
          store_(simulator_, rng_, cloud::DataStoreConfig{}),
          runtime_(simulator_, rng_, cluster_, store_,
                   cloud::FaasConfig{}),
          scheduler_(simulator_, rng_, runtime_, SchedulerConfig{})
    {
        scheduler_.install();
    }

    sim::Simulator simulator_;
    sim::Rng rng_;
    cloud::Cluster cluster_;
    cloud::DataStore store_;
    cloud::FaasRuntime runtime_;
    HiveMindScheduler scheduler_;
};

TEST_F(SchedulerFixture, InstallWidensKeepalive)
{
    // Sec. 4.3: keep-alive between 10 and 30 s.
    EXPECT_GE(runtime_.config().keepalive, 10 * sim::kSecond);
    EXPECT_LE(runtime_.config().keepalive, 30 * sim::kSecond);
}

TEST_F(SchedulerFixture, ParentCoLocationHonored)
{
    cloud::InvokeRequest req;
    req.app = runtime_.intern("child");
    req.work_core_ms = 10.0;
    req.preferred_server = 2;
    req.colocate_with_parent = true;
    std::size_t server = cloud::kNoServer;
    scheduler_.invoke(req, [&](const cloud::InvocationTrace& t) {
        server = t.server;
    });
    simulator_.run();
    EXPECT_EQ(server, 2u);
}

TEST_F(SchedulerFixture, FullParentFallsBackToLeastLoaded)
{
    // Fill server 2 completely.
    for (int i = 0; i < 8; ++i)
        cluster_.server(2).acquire_core();
    cloud::InvokeRequest req;
    req.app = runtime_.intern("child");
    req.work_core_ms = 10.0;
    req.preferred_server = 2;
    std::size_t server = cloud::kNoServer;
    scheduler_.invoke(req, [&](const cloud::InvocationTrace& t) {
        server = t.server;
    });
    simulator_.run();
    EXPECT_NE(server, 2u);
    EXPECT_NE(server, cloud::kNoServer);
}

TEST_F(SchedulerFixture, StragglerRespawnsAfterHistory)
{
    cloud::InvokeRequest req;
    req.app = runtime_.intern("job");
    req.work_core_ms = 40.0;
    int completions = 0;
    // Build enough history first.
    for (int i = 0; i < 60; ++i) {
        scheduler_.invoke(req,
                          [&](const cloud::InvocationTrace&) {
                              ++completions;
                          });
        simulator_.run();
    }
    EXPECT_EQ(completions, 60);
    EXPECT_GE(scheduler_.history(runtime_.intern("job")).count(), 60u);
    // Now a pathological straggler: inflate work dramatically; the
    // watchdog should fire a duplicate (which is equally slow, but the
    // respawn count proves mitigation engaged).
    std::uint64_t before = scheduler_.respawns();
    cloud::InvokeRequest slow = req;
    slow.work_core_ms = 50000.0;
    bool done = false;
    scheduler_.invoke(slow,
                      [&](const cloud::InvocationTrace&) { done = true; });
    simulator_.run();
    EXPECT_TRUE(done);
    EXPECT_GT(scheduler_.respawns(), before);
}

TEST_F(SchedulerFixture, FirstFinisherWinsOnce)
{
    cloud::InvokeRequest req;
    req.app = runtime_.intern("race");
    req.work_core_ms = 30.0;
    for (int i = 0; i < 40; ++i) {
        scheduler_.invoke(req, nullptr);
        simulator_.run();
    }
    int calls = 0;
    cloud::InvokeRequest slow = req;
    slow.work_core_ms = 20000.0;
    scheduler_.invoke(slow, [&](const cloud::InvocationTrace&) { ++calls; });
    simulator_.run();
    EXPECT_EQ(calls, 1);  // Duplicate completion is suppressed.
}

TEST_F(SchedulerFixture, RaceEndCancelsTheWatchdog)
{
    // No warm-pool expiries and no straggler draws: after a run drains,
    // the only event a race can leave behind is its watchdog.
    runtime_.mutable_config().keepalive = 0;
    runtime_.mutable_config().straggler_prob = 0.0;
    cloud::InvokeRequest slow;
    slow.app = runtime_.intern("watched");
    slow.work_core_ms = 400.0;
    for (std::size_t i = 0; i <= scheduler_.config().straggler_min_samples;
         ++i) {
        scheduler_.invoke(slow, nullptr);
        simulator_.run();
    }
    ASSERT_GT(scheduler_.history(runtime_.intern("watched")).count(),
              scheduler_.config().straggler_min_samples);
    ASSERT_EQ(simulator_.pending(), 0u);

    // A fast request wins its race long before the slow history's
    // percentile deadline; its watchdog must go with the race.
    cloud::InvokeRequest fast = slow;
    fast.work_core_ms = 5.0;
    std::size_t pending_at_done = 99;
    scheduler_.invoke(fast, [&](const cloud::InvocationTrace&) {
        pending_at_done = simulator_.pending();
    });
    simulator_.run();
    EXPECT_EQ(pending_at_done, 0u);
}

TEST(SchedulerProbation, MaxFractionCapsBenching)
{
    // Every slow completion straggles and one straggle benches its
    // server, so only probation_max_fraction keeps servers serving.
    for (double fraction : {0.5, 1.0}) {
        SCOPED_TRACE(fraction);
        sim::Simulator simulator;
        sim::Rng rng(5);
        cloud::Cluster cluster(4, 8, 32 * 1024);
        cloud::DataStore store(simulator, rng, cloud::DataStoreConfig{});
        cloud::FaasRuntime runtime(simulator, rng, cluster, store,
                                   cloud::FaasConfig{});
        SchedulerConfig cfg;
        cfg.straggler_percentile = 50.0;
        cfg.straggler_min_samples = 4;
        cfg.probation_threshold = 1.0;
        cfg.probation_decay = 0.0;
        cfg.probation_max_fraction = fraction;
        HiveMindScheduler scheduler(simulator, rng, runtime, cfg);
        scheduler.install();
        std::size_t peak = 0;
        for (int i = 0; i < 400; ++i) {
            cloud::InvokeRequest req;
            req.app = runtime.intern("job");
            req.work_core_ms = i % 2 == 0 ? 10.0 : 200.0;
            scheduler.invoke(req, nullptr);
            simulator.run_until(simulator.now() + sim::from_millis(25.0));
            peak = std::max(peak, cluster.probation_count());
        }
        if (fraction < 1.0)
            EXPECT_EQ(peak, 2u);  // 0.5 x 4 servers.
        else
            EXPECT_GT(peak, 2u);
    }
}

TEST(Learning, SwarmConvergesFasterThanSelf)
{
    apps::DetectionConfig cfg;
    LearningCoordinator self(16, cfg, apps::RetrainMode::Self);
    LearningCoordinator swarm(16, cfg, apps::RetrainMode::Swarm);
    LearningCoordinator none(16, cfg, apps::RetrainMode::None);
    for (int round = 0; round < 10; ++round) {
        for (std::size_t d = 0; d < 16; ++d) {
            self.record(d, 10);
            swarm.record(d, 10);
            none.record(d, 10);
        }
        self.retrain();
        swarm.retrain();
        none.retrain();
    }
    EXPECT_GT(swarm.swarm_p_correct(), self.swarm_p_correct());
    EXPECT_GT(self.swarm_p_correct(), none.swarm_p_correct());
    EXPECT_DOUBLE_EQ(none.swarm_p_correct(), cfg.base_correct);
    // Fig. 15: swarm-wide retraining nearly eliminates errors.
    EXPECT_GT(swarm.swarm_p_correct(), 0.97);
    EXPECT_LT(swarm.swarm_p_false_negative(), 0.02);
    EXPECT_LT(swarm.swarm_p_false_positive(), 0.02);
}

TEST(Learning, BuffersResetAfterRetrain)
{
    apps::DetectionConfig cfg;
    LearningCoordinator c(2, cfg, apps::RetrainMode::Self);
    c.record(0, 100);
    c.retrain();
    double after_first = c.model(0).p_correct();
    c.retrain();  // No new samples: accuracy unchanged.
    EXPECT_DOUBLE_EQ(c.model(0).p_correct(), after_first);
    EXPECT_EQ(c.total_samples(), 100u);
}

}  // namespace
}  // namespace hivemind::core
