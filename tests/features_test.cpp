/**
 * @file
 * Tests for the extension features: fault-recovery policies,
 * performance isolation, multi-tenancy, the generic task-graph
 * runner, and the scheduler's percentile tracker.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/scheduler.hpp"
#include "dsl/scenarios.hpp"
#include "platform/graph_runner.hpp"
#include "platform/single_phase.hpp"
#include "sim/rng.hpp"

namespace hivemind {
namespace {

// ---------------------------------------------------------------------
// Fault-recovery policies (DSL Restore, Listing 2)
// ---------------------------------------------------------------------

class RecoveryFixture : public ::testing::Test
{
  protected:
    RecoveryFixture()
        : rng_(21),
          cluster_(4, 8, 32 * 1024),
          store_(simulator_, rng_, cloud::DataStoreConfig{})
    {
    }

    sim::Simulator simulator_;
    sim::Rng rng_;
    cloud::Cluster cluster_;
    cloud::DataStore store_;
};

TEST_F(RecoveryFixture, NoneLosesTasksButReports)
{
    cloud::FaasConfig cfg;
    cfg.fault_prob = 0.6;
    cloud::FaasRuntime rt(simulator_, rng_, cluster_, store_, cfg);
    int callbacks = 0;
    int lost = 0;
    cloud::InvokeRequest req;
    req.app = rt.intern("a");
    req.work_core_ms = 30.0;
    req.recovery = cloud::FaultRecovery::None;
    for (int i = 0; i < 60; ++i) {
        rt.invoke(req, [&](const cloud::InvocationTrace& t) {
            ++callbacks;
            if (t.lost)
                ++lost;
        });
    }
    simulator_.run();
    EXPECT_EQ(callbacks, 60);      // Every submission reports back.
    EXPECT_GT(lost, 10);           // Many are lost at 60% fault rate.
    EXPECT_EQ(rt.lost(), static_cast<std::uint64_t>(lost));
}

TEST_F(RecoveryFixture, CheckpointRecoversFasterThanRespawn)
{
    // With heavy faults, checkpoint-resume repeats less work, so the
    // total execution time (and hence mean latency) is lower.
    auto run_mode = [&](cloud::FaultRecovery mode) {
        sim::Simulator simulator;
        sim::Rng rng(33);
        cloud::Cluster cluster(4, 8, 32 * 1024);
        cloud::DataStore store(simulator, rng, cloud::DataStoreConfig{});
        cloud::FaasConfig cfg;
        cfg.fault_prob = 0.7;
        cfg.straggler_prob = 0.0;
        cloud::FaasRuntime rt(simulator, rng, cluster, store, cfg);
        sim::Summary lat;
        cloud::InvokeRequest req;
        req.app = rt.intern("a");
        req.work_core_ms = 400.0;
        req.recovery = mode;
        for (int i = 0; i < 80; ++i) {
            rt.invoke(req, [&](const cloud::InvocationTrace& t) {
                lat.add(t.total_s());
            });
            simulator.run();
        }
        return lat;
    };
    sim::Summary respawn = run_mode(cloud::FaultRecovery::Respawn);
    sim::Summary checkpoint = run_mode(cloud::FaultRecovery::Checkpoint);
    EXPECT_EQ(respawn.count(), 80u);
    EXPECT_EQ(checkpoint.count(), 80u);
    EXPECT_LT(checkpoint.mean(), respawn.mean());
}

TEST_F(RecoveryFixture, CheckpointGranularityBoundsRedo)
{
    // granularity 0 -> resume exactly where it died (no floor step).
    cloud::FaasConfig cfg;
    cfg.fault_prob = 0.9;
    cloud::FaasRuntime rt(simulator_, rng_, cluster_, store_, cfg);
    cloud::InvokeRequest req;
    req.app = rt.intern("a");
    req.work_core_ms = 100.0;
    req.recovery = cloud::FaultRecovery::Checkpoint;
    req.checkpoint_granularity = 0.0;
    int done = 0;
    for (int i = 0; i < 20; ++i)
        rt.invoke(req, [&](const cloud::InvocationTrace&) { ++done; });
    simulator_.run();
    EXPECT_EQ(done, 20);
}

TEST_F(RecoveryFixture, IsolateNeverReusesWarmContainers)
{
    cloud::FaasConfig cfg;
    cfg.keepalive = 20 * sim::kSecond;
    cloud::FaasRuntime rt(simulator_, rng_, cluster_, store_, cfg);
    cloud::InvokeRequest req;
    req.app = rt.intern("iso");
    req.work_core_ms = 5.0;
    req.isolate = true;
    int colds = 0;
    // Sequential isolated invocations: every one must cold-start.
    std::function<void(int)> chain = [&](int remaining) {
        if (remaining == 0)
            return;
        rt.invoke(req, [&, remaining](const cloud::InvocationTrace& t) {
            if (t.cold_start)
                ++colds;
            chain(remaining - 1);
        });
    };
    chain(5);
    simulator_.run();
    EXPECT_EQ(colds, 5);
    EXPECT_EQ(rt.warm_starts(), 0u);
}

TEST_F(RecoveryFixture, PriorityDrainsHighFirst)
{
    // One-core cluster: everything queues behind the first task, so
    // the drain order exposes the priority policy.
    sim::Simulator simulator;
    sim::Rng rng(44);
    cloud::Cluster cluster(1, 1, 4096);
    cloud::DataStore store(simulator, rng, cloud::DataStoreConfig{});
    cloud::FaasConfig cfg;
    cfg.straggler_prob = 0.0;
    cloud::FaasRuntime rt(simulator, rng, cluster, store, cfg);
    std::vector<int> order;
    auto submit = [&](int priority, int tag) {
        cloud::InvokeRequest req;
        req.app = rt.intern("p" + std::to_string(tag));
        req.work_core_ms = 50.0;
        req.priority = priority;
        rt.invoke(req,
                  [&order, tag](const cloud::InvocationTrace&) {
                      order.push_back(tag);
                  });
    };
    submit(0, 0);   // Occupies the core.
    submit(0, 1);   // Queued at low priority.
    submit(5, 2);   // Queued at high priority.
    submit(9, 3);   // Queued at highest priority.
    simulator.run();
    ASSERT_EQ(order.size(), 4u);
    // Whichever submission won the (jittered) front-end race runs
    // first; the queued rest drain in descending priority order.
    const int priority_of[4] = {0, 0, 5, 9};
    for (std::size_t i = 2; i < order.size(); ++i) {
        EXPECT_GE(priority_of[order[i - 1]], priority_of[order[i]])
            << "queued tasks must drain high-priority-first";
    }
}

// ---------------------------------------------------------------------
// Performance isolation (Sec. 4.3)
// ---------------------------------------------------------------------

TEST(Isolation, RemovesLoadDependentJitter)
{
    auto run_with = [](bool isolated) {
        sim::Simulator simulator;
        sim::Rng rng(5);
        cloud::Cluster cluster(2, 16, 64 * 1024);
        // Pre-load the servers to high occupancy.
        for (int i = 0; i < 13; ++i) {
            cluster.server(0).acquire_core();
            cluster.server(1).acquire_core();
        }
        cloud::DataStore store(simulator, rng, cloud::DataStoreConfig{});
        cloud::FaasConfig cfg;
        cfg.straggler_prob = 0.0;
        cfg.performance_isolation = isolated;
        cloud::FaasRuntime rt(simulator, rng, cluster, store, cfg);
        sim::Summary exec;
        cloud::InvokeRequest req;
        req.app = rt.intern("x");
        req.work_core_ms = 100.0;
        for (int i = 0; i < 80; ++i) {
            rt.invoke(req, [&](const cloud::InvocationTrace& t) {
                exec.add(t.exec_s());
            });
            simulator.run();
        }
        return exec;
    };
    sim::Summary shared = run_with(false);
    sim::Summary isolated = run_with(true);
    EXPECT_LT(isolated.stddev(), shared.stddev());
}

// ---------------------------------------------------------------------
// Multi-tenancy (Sec. 2.1)
// ---------------------------------------------------------------------

TEST(MultiTenant, RunsConcurrentAppsOnOneDeployment)
{
    platform::DeploymentConfig dep;
    dep.devices = 8;
    dep.servers = 6;
    dep.cores_per_server = 20;
    dep.seed = 3;
    platform::JobConfig job;
    job.duration = 20 * sim::kSecond;
    job.drain = 20 * sim::kSecond;
    std::vector<apps::AppSpec> tenants{apps::app_by_id("S1"),
                                       apps::app_by_id("S7")};
    auto results = platform::run_multi_tenant(
        tenants, platform::PlatformOptions::centralized_faas(), dep, job);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_GT(results[0].tasks_completed, 20u);
    EXPECT_GT(results[1].tasks_completed, 20u);
    // Per-app latencies reflect the apps, not each other.
    EXPECT_GT(results[0].task_latency_s.median(),
              results[1].task_latency_s.median());
}

TEST(MultiTenant, InterferenceRaisesVariabilityVsSolo)
{
    platform::DeploymentConfig dep;
    dep.devices = 8;
    dep.servers = 2;  // Tight cluster so tenants actually collide.
    dep.cores_per_server = 8;
    dep.seed = 3;
    platform::JobConfig job;
    job.duration = 30 * sim::kSecond;
    job.drain = 30 * sim::kSecond;

    platform::RunMetrics solo = platform::run_single_phase(
        apps::app_by_id("S1"), platform::PlatformOptions::centralized_faas(),
        dep, job);
    std::vector<apps::AppSpec> tenants{
        apps::app_by_id("S1"), apps::app_by_id("S9"),
        apps::app_by_id("S10")};
    auto shared = platform::run_multi_tenant(
        tenants, platform::PlatformOptions::centralized_faas(), dep, job);
    // S1's latency under co-tenancy is no better than alone.
    EXPECT_GE(shared[0].task_latency_s.median(),
              solo.task_latency_s.median() * 0.9);
}

// ---------------------------------------------------------------------
// Generic task-graph runner
// ---------------------------------------------------------------------

TEST(GraphRunner, RunsListing3Graph)
{
    dsl::TaskGraph graph = dsl::scenario_b_graph();
    synth::PlacementAssignment placement;
    for (const std::string& name : graph.task_names()) {
        const dsl::TaskDef& t = graph.task(name);
        bool edge = t.sensor_source || t.actuator_sink ||
            t.placement == dsl::PlacementHint::Edge;
        placement[name] =
            edge ? synth::Location::Edge : synth::Location::Cloud;
    }
    platform::DeploymentConfig dep;
    dep.devices = 8;
    dep.servers = 6;
    dep.cores_per_server = 20;
    dep.seed = 4;
    platform::JobConfig job;
    job.duration = 20 * sim::kSecond;
    job.drain = 60 * sim::kSecond;
    platform::RunMetrics m = platform::run_task_graph(
        graph, placement, platform::PlatformOptions::hivemind(), dep, job,
        0.5);
    EXPECT_GT(m.tasks_completed, 30u);
    EXPECT_GT(m.task_latency_s.median(), 0.0);
    // The activation spans five tasks including slow edge stages.
    EXPECT_GT(m.task_latency_s.median(), 0.3);
}

TEST(GraphRunner, DroppedCrossingLosesTheActivation)
{
    // A crossing whose retransmit budget ran out (net::kDropped) ends
    // its activation: nothing is recorded and no later task starts.
    dsl::TaskGraph graph = dsl::scenario_b_graph();
    synth::PlacementAssignment placement;
    for (const std::string& name : graph.task_names()) {
        const dsl::TaskDef& t = graph.task(name);
        bool edge = t.sensor_source || t.actuator_sink ||
            t.placement == dsl::PlacementHint::Edge;
        placement[name] =
            edge ? synth::Location::Edge : synth::Location::Cloud;
    }
    platform::DeploymentConfig dep;
    dep.devices = 8;
    dep.servers = 6;
    dep.cores_per_server = 20;
    dep.seed = 4;
    platform::JobConfig job;
    job.duration = 20 * sim::kSecond;
    job.drain = 60 * sim::kSecond;

    dep.wireless_loss = 1.0;
    platform::RunMetrics dark = platform::run_task_graph(
        graph, placement, platform::PlatformOptions::hivemind(), dep, job,
        0.5);
    EXPECT_GT(dark.recovery.frames_dropped, 0u);
    EXPECT_EQ(dark.tasks_completed, 0u);
    EXPECT_EQ(dark.network_s.count(), 0u);

    dep.wireless_loss = 0.3;
    platform::RunMetrics lossy = platform::run_task_graph(
        graph, placement, platform::PlatformOptions::hivemind(), dep, job,
        0.5);
    EXPECT_GT(lossy.recovery.frames_dropped, 0u);
    EXPECT_GT(lossy.tasks_completed, 0u);
    for (const sim::Summary* s : {&lossy.task_latency_s, &lossy.network_s,
                                  &lossy.mgmt_s, &lossy.data_s,
                                  &lossy.exec_s}) {
        for (double x : s->samples())
            EXPECT_GE(x, 0.0);
    }
}

TEST(GraphRunner, AllEdgeSlowerThanHybridForHeavyGraph)
{
    dsl::TaskGraph graph = dsl::scenario_b_graph();
    synth::PlacementAssignment all_edge, hybrid;
    for (const std::string& name : graph.task_names()) {
        all_edge[name] = synth::Location::Edge;
        const dsl::TaskDef& t = graph.task(name);
        bool edge = t.sensor_source || t.actuator_sink ||
            t.placement == dsl::PlacementHint::Edge;
        hybrid[name] =
            edge ? synth::Location::Edge : synth::Location::Cloud;
    }
    platform::DeploymentConfig dep;
    dep.devices = 4;
    dep.servers = 6;
    dep.cores_per_server = 20;
    dep.seed = 6;
    platform::JobConfig job;
    job.duration = 20 * sim::kSecond;
    job.drain = 60 * sim::kSecond;
    const double rate = 0.05;  // Keep the edge core stable.
    platform::RunMetrics edge_m = platform::run_task_graph(
        graph, all_edge, platform::PlatformOptions::distributed_edge(), dep,
        job, rate);
    platform::RunMetrics hybrid_m = platform::run_task_graph(
        graph, hybrid, platform::PlatformOptions::hivemind(), dep, job,
        rate);
    EXPECT_GT(edge_m.task_latency_s.median(),
              hybrid_m.task_latency_s.median());
}

TEST(GraphRunner, SimulationProfilerPrefersCloudForHeavyWork)
{
    dsl::TaskGraph graph("two");
    dsl::TaskDef a;
    a.name = "sense";
    a.sensor_source = true;
    a.work_core_ms = 4.0;
    a.output_bytes = 256u << 10;
    dsl::TaskDef b;
    b.name = "crunch";
    b.work_core_ms = 500.0;
    b.parallelism = 8;
    b.input_bytes = 256u << 10;
    graph.add_task(a).add_task(b).add_edge("sense", "crunch");

    platform::DeploymentConfig dep;
    dep.devices = 4;
    dep.servers = 6;
    dep.cores_per_server = 20;
    dep.seed = 8;
    platform::JobConfig job;
    job.duration = 15 * sim::kSecond;
    job.drain = 60 * sim::kSecond;

    synth::PlacementExplorer explorer(graph);
    explorer.set_profiler(platform::make_simulation_profiler(
        platform::PlatformOptions::hivemind(), dep, job, 0.2));
    auto best = explorer.best(synth::Objective{});
    EXPECT_EQ(best.placement.at("crunch"), synth::Location::Cloud);
    EXPECT_EQ(best.placement.at("sense"), synth::Location::Edge);
    EXPECT_GT(best.estimate.latency_s, 0.0);
}

// ---------------------------------------------------------------------
// PercentileTracker (scheduler support)
// ---------------------------------------------------------------------

TEST(PercentileTracker, TracksRecentWindow)
{
    core::PercentileTracker t(100, 1);
    for (int i = 1; i <= 100; ++i)
        t.add(static_cast<double>(i));
    EXPECT_EQ(t.count(), 100u);
    EXPECT_NEAR(t.threshold(50.0), 50.5, 1.0);
    // Shift the window: add 100 large values; the median follows.
    for (int i = 0; i < 100; ++i)
        t.add(1000.0);
    EXPECT_NEAR(t.threshold(50.0), 1000.0, 1e-9);
}

/** The sort-based threshold the selection replaced. */
double
sorted_threshold(std::vector<double> window, double p)
{
    std::sort(window.begin(), window.end());
    double rank = p / 100.0 * static_cast<double>(window.size() - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    double frac = rank - static_cast<double>(lo);
    return lo + 1 < window.size()
        ? window[lo] * (1.0 - frac) + window[lo + 1] * frac
        : window.back();
}

/**
 * Feeds one stream to a tracker and checks threshold(p) after every
 * batch of @p stride adds: at each refresh (refresh or more adds since
 * the last one) it must equal the sorted reference, and in between it
 * must keep the refreshed value.
 */
void
check_refreshes(double p, std::size_t capacity, std::size_t refresh,
                std::size_t stride, std::size_t adds, std::uint64_t seed)
{
    sim::Rng rng(seed);
    core::PercentileTracker t(capacity, refresh);
    std::vector<double> ring;  // The window, as a ring like the tracker's.
    std::size_t next = 0;
    std::uint64_t refreshed_at = 0;
    bool refreshed = false;
    double cached = 0.0;
    int refreshes = 0;
    for (std::size_t i = 1; i <= adds; ++i) {
        // Latency-like values; a third land on a coarse grid, so exact
        // ties straddle the interpolated ranks.
        double x = rng.lognormal_median(0.05, 0.6);
        if (rng.chance(0.33))
            x = std::round(x * 200.0) / 200.0;
        t.add(x);
        if (ring.size() < capacity) {
            ring.push_back(x);
        } else {
            ring[next] = x;
            next = (next + 1) % capacity;
        }
        if (i % stride != 0)
            continue;
        const double got = t.threshold(p);
        if (!refreshed || t.count() - refreshed_at >= refresh) {
            ASSERT_EQ(got, sorted_threshold(ring, p))
                << "p " << p << " capacity " << capacity << " after " << i;
            refreshed = true;
            refreshed_at = t.count();
            cached = got;
            ++refreshes;
        } else {
            ASSERT_EQ(got, cached) << "p " << p << " after " << i;
        }
    }
    EXPECT_GT(refreshes, 1);
}

TEST(PercentileTracker, SelectionMatchesSortedReference)
{
    sim::Rng rng(2024);
    for (int trial = 0; trial < 60; ++trial) {
        const std::size_t capacity = 1 + rng.pick(300);
        core::PercentileTracker t(capacity, 1);
        std::vector<double> window;  // The ring's contents, oldest first.
        const std::size_t adds = 1 + rng.pick(900);
        for (std::size_t i = 0; i < adds; ++i) {
            // Some rounded values, so ties straddle the ranks.
            double x = rng.chance(0.3) ? std::round(rng.uniform(0.0, 8.0))
                                       : rng.lognormal_median(0.5, 0.8);
            t.add(x);
            window.push_back(x);
            if (window.size() > capacity)
                window.erase(window.begin());
        }
        for (double p : {0.0, 1.0, 50.0, 90.0, 99.0, 100.0,
                         rng.uniform(0.0, 100.0)}) {
            EXPECT_EQ(t.threshold(p), sorted_threshold(window, p))
                << "trial " << trial << " p " << p;
        }
    }
    // Longer lognormal streams, checked at every refresh.
    for (double p : {0.0, 50.0, 90.0, 99.0, 100.0}) {
        // The scheduler's shape: a 4,096-sample window refreshed every
        // 256 adds and read after every add, filling up from empty.
        check_refreshes(p, 4096, 256, 1, 40000, 7);
        // Windows below capacity throughout.
        check_refreshes(p, 4096, 64, 3, 3000, 11);
        // More than a full window of adds between two refreshes.
        check_refreshes(p, 100, 30, 250, 20000, 13);
        // Reads at odd strides, so refreshes land off the cadence.
        check_refreshes(p, 512, 40, 7, 20000, 17);
    }
}

TEST(PercentileTracker, CacheRefreshes)
{
    core::PercentileTracker t(64, 8);
    for (int i = 0; i < 8; ++i)
        t.add(1.0);
    double v1 = t.threshold(90.0);
    EXPECT_DOUBLE_EQ(v1, 1.0);
    // Within the refresh window the cached value persists...
    for (int i = 0; i < 4; ++i)
        t.add(100.0);
    EXPECT_DOUBLE_EQ(t.threshold(90.0), 1.0);
    // ...and refreshes afterwards.
    for (int i = 0; i < 8; ++i)
        t.add(100.0);
    EXPECT_GT(t.threshold(90.0), 50.0);
}

}  // namespace
}  // namespace hivemind
