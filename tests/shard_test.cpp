/**
 * @file
 * Sharded runtime tests: conservative window math, deterministic
 * mailbox merge, N=1 reduction, cross-shard links, fault routing and
 * Gilbert-Elliott burst chains, and the headline property — a swarm
 * run's checksum and recovery ledger are byte-identical for shard
 * counts {1, 2, 4}, chaos and controller failover included.
 *
 * Set HIVEMIND_SHARDS to fold an extra shard count into the
 * invariance sweep (the CI HIVEMIND_SHARDS=4 leg does).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "fault/metrics.hpp"
#include "fault/oracle.hpp"
#include "fault/shard_chaos.hpp"
#include "net/shard_link.hpp"
#include "platform/pipeline_spec.hpp"
#include "platform/sharded_scenario.hpp"
#include "sim/swarm_runtime.hpp"

namespace {

using namespace hivemind;

TEST(SwarmRuntimeTest, SingleShardRunsLikeASimulator)
{
    sim::SwarmRuntime rt(1);
    std::vector<int> order;
    rt.shard(0).schedule_at(20, [&] { order.push_back(2); });
    rt.shard(0).schedule_at(10, [&] { order.push_back(1); });
    rt.shard(0).schedule_at(30, [&] { order.push_back(3); });
    sim::SwarmRuntime::Report r = rt.run_until(25);
    EXPECT_EQ(r.executed, 2u);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    rt.run_until(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(rt.pending(), 0u);
}

TEST(SwarmRuntimeTest, LookaheadIsMinDeclaredChannelLatency)
{
    sim::SwarmRuntime rt(2);
    EXPECT_EQ(rt.lookahead(), sim::Simulator::kNever);
    rt.declare_channel(0, 1, 50);
    rt.declare_channel(1, 0, 20);
    rt.declare_channel(0, 0, 80);
    EXPECT_EQ(rt.lookahead(), 20);
}

TEST(SwarmRuntimeTest, WindowBoundsEpochCount)
{
    sim::SwarmRuntime rt(2);
    rt.set_adaptive_lookahead(false);
    rt.declare_channel(0, 1, 10);
    // Events at 0, 10, 20 on shard 0: with global lookahead 10 the
    // windows are [0,9], [10,19], [20,29] — three epochs, one event
    // each. (Adaptive windows would see that none of these events
    // can send and finish in one epoch; see the tests below.)
    int fired = 0;
    for (sim::Time t : {0, 10, 20})
        rt.shard(0).schedule_at(t, [&] { ++fired; });
    sim::SwarmRuntime::Report r = rt.run_until(100);
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(r.epochs, 3u);
    EXPECT_EQ(r.executed, 3u);
}

TEST(SwarmRuntimeTest, PostDeliversAcrossShards)
{
    sim::SwarmRuntime rt(2);
    rt.declare_channel(0, 1, 5);
    std::vector<int> seen;
    rt.shard(0).schedule_at(10, [&rt, &seen] {
        rt.post(0, 1, 15, 7, sim::InlineFn([&seen] { seen.push_back(1); }));
    });
    sim::SwarmRuntime::Report r = rt.run_until(50);
    EXPECT_EQ(seen, std::vector<int>{1});
    EXPECT_EQ(r.forwarded, 1u);
    EXPECT_EQ(rt.shard(1).now(), 15);
}

TEST(SwarmRuntimeTest, MergeOrdersByTimeThenOrigin)
{
    // Same delivery time from two senders: the lower origin id runs
    // first regardless of posting order or source shard.
    sim::SwarmRuntime rt(3);
    rt.declare_channel(0, 2, 5);
    rt.declare_channel(1, 2, 5);
    std::vector<int> seen;
    rt.shard(1).schedule_at(1, [&rt, &seen] {
        rt.post(1, 2, 10, 9, sim::InlineFn([&seen] { seen.push_back(9); }));
        rt.post(1, 2, 10, 3, sim::InlineFn([&seen] { seen.push_back(3); }));
    });
    rt.shard(0).schedule_at(1, [&rt, &seen] {
        rt.post(0, 2, 10, 5, sim::InlineFn([&seen] { seen.push_back(5); }));
        rt.post(0, 2, 12, 1, sim::InlineFn([&seen] { seen.push_back(1); }));
    });
    rt.run_until(50);
    EXPECT_EQ(seen, (std::vector<int>{3, 5, 9, 1}));
}

TEST(SwarmRuntimeTest, SortedStagedFastPathKeepsDeliveryOrder)
{
    // Envelopes staged already in (when, origin) order take the
    // no-sort fast path in release(); the delivery order must
    // be exactly what the sorting path would produce.
    sim::SwarmRuntime rt(2);
    rt.set_adaptive_lookahead(false);
    rt.declare_channel(0, 1, 5);
    std::vector<int> seen;
    rt.shard(0).schedule_at(1, [&rt, &seen] {
        for (int o : {1, 2, 3, 4})
            rt.post(0, 1, 10, static_cast<std::uint64_t>(o),
                    sim::InlineFn([&seen, o] { seen.push_back(o); }));
        for (int o : {5, 6})
            rt.post(0, 1, 12, static_cast<std::uint64_t>(o),
                    sim::InlineFn([&seen, o] { seen.push_back(o); }));
    });
    rt.run_until(50);
    EXPECT_EQ(seen, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

// --- Adaptive per-pair window math ------------------------------------

/**
 * Which shard (and so which thread) runs an actor never shows in what
 * it receives: three actors exchange chains of messages, with
 * same-time sends from two origins and self-posts, and each actor's
 * delivery trace is the same under every placement. The shard-0
 * placements put an actor on the thread that drives the epochs, as
 * the scenario engine does with its cloud tier.
 */
TEST(SwarmRuntimeTest, ActorPlacementDoesNotChangeDeliveryTrace)
{
    struct Hit
    {
        sim::Time when;
        int hop;
        int from;
        bool operator==(const Hit&) const = default;
    };
    using Trace = std::array<std::vector<Hit>, 3>;
    auto run = [](int shards, std::array<int, 3> place) {
        sim::SwarmRuntime rt(shards);
        for (int a = 0; a < shards; ++a)
            for (int b = 0; b < shards; ++b)
                rt.declare_channel(a, b, 5);
        Trace trace;
        std::function<void(int, int, int)> deliver;
        auto send = [&](int from, int to, int hop, sim::Time when) {
            rt.post(place[static_cast<std::size_t>(from)],
                    place[static_cast<std::size_t>(to)], when,
                    static_cast<std::uint64_t>(from),
                    sim::InlineFn([&deliver, to, hop, from] {
                        deliver(to, hop, from);
                    }));
        };
        deliver = [&](int to, int hop, int from) {
            const sim::Time now =
                rt.shard(place[static_cast<std::size_t>(to)]).now();
            trace[static_cast<std::size_t>(to)].push_back({now, hop, from});
            if (hop >= 300)
                return;
            if (hop % 7 == 0)
                send(to, to, hop + 1, now + 5);
            else
                send(to, (to + 1 + hop % 2) % 3, hop + 1, now + 5 + hop % 3);
        };
        send(0, 2, 0, 10);
        send(1, 2, 0, 10);
        send(2, 0, 0, 10);
        rt.run_until(100000);
        return trace;
    };
    const Trace ref = run(1, {0, 0, 0});
    std::size_t hits = 0;
    for (const auto& t : ref)
        hits += t.size();
    EXPECT_EQ(hits, 3u * 301u);
    EXPECT_EQ(run(2, {0, 1, 1}), ref);
    EXPECT_EQ(run(2, {1, 1, 0}), ref);
    EXPECT_EQ(run(3, {0, 1, 2}), ref);
    EXPECT_EQ(run(3, {2, 0, 1}), ref);
}

TEST(AdaptiveWindowTest, AsymmetricLatenciesGiveAsymmetricWindows)
{
    sim::SwarmRuntime rt(2);
    rt.set_adaptive_lookahead(true);
    rt.declare_channel(0, 1, 100);
    rt.declare_channel(1, 0, 5);
    int fired = 0;
    rt.shard(0).schedule_at(10, [&fired] { ++fired; });
    rt.shard(1).schedule_at(1000, [&fired] { ++fired; });
    // One epoch. Raw horizons s0=10, s1=1000; the LBTS closure pulls
    // s1 down to s0 + L(0,1) = 110 (shard 0's send can provoke a send
    // on shard 1). Then W0 = s1 + L(1,0) - 1 = 114 and
    // W1 = s0 + L(0,1) - 1 = 109: each direction is bounded by the
    // *other* channel's latency, so the windows are asymmetric too.
    rt.run_until(2000, [] { return true; });
    EXPECT_EQ(rt.window_of(0), 114);
    EXPECT_EQ(rt.window_of(1), 109);
    EXPECT_EQ(fired, 1);  // Only shard 0's event fell inside a window.
}

TEST(AdaptiveWindowTest, SendCapableEventBoundsTheWindow)
{
    sim::SwarmRuntime rt(2);
    rt.set_adaptive_lookahead(true);
    rt.declare_channel(0, 1, 5);
    rt.declare_channel(1, 0, 5);
    rt.shard(0).schedule_at(100, [] {});
    rt.shard(1).schedule_at(3, [] {});
    rt.run_until(2000, [] { return true; });
    // Any pending event may send, so shard 1's next event time s1 = 3
    // bounds W0 = 3 + 5 - 1 = 7, and the closure drags shard 0's own
    // horizon down to s1 + L(1,0) = 8, so W1 = 8 + 5 - 1 = 12.
    EXPECT_EQ(rt.window_of(0), 7);
    EXPECT_EQ(rt.window_of(1), 12);
}

TEST(AdaptiveWindowTest, UndeclaredChannelsDoNotConstrain)
{
    sim::SwarmRuntime rt(3);
    rt.set_adaptive_lookahead(true);
    rt.declare_channel(0, 1, 10);  // The only channel in the mesh.
    for (int s = 0; s < 3; ++s)
        rt.shard(s).schedule_at(50 + s, [] {});
    rt.run_until(1000, [] { return true; });
    // kNever channels impose no bound: shards 0 and 2 have no
    // declared incoming channel at all and run straight to `until`.
    EXPECT_EQ(rt.window_of(0), 1000);
    EXPECT_EQ(rt.window_of(2), 1000);
    // Shard 1 is bounded by shard 0's horizon: 50 + 10 - 1.
    EXPECT_EQ(rt.window_of(1), 59);
}

TEST(AdaptiveWindowTest, SelfChannelNeedsNoEpochs)
{
    // A shard never needs conservative protection from itself: under
    // adaptive windows a declared (0,0) channel does not bound shard
    // 0, so ten events spaced wider than the self-latency still run
    // in a single epoch.
    sim::SwarmRuntime rt(1);
    rt.set_adaptive_lookahead(true);
    rt.declare_channel(0, 0, 5);
    int fired = 0;
    for (sim::Time t = 10; t <= 100; t += 10)
        rt.shard(0).schedule_at(t, [&fired] { ++fired; });
    sim::SwarmRuntime::Report r = rt.run_until(200);
    EXPECT_EQ(fired, 10);
    EXPECT_EQ(r.epochs, 1u);

    // Global lookahead on the identical workload pays an epoch per
    // event: the (0,0) latency caps every window at horizon + 4.
    sim::SwarmRuntime global(1);
    global.set_adaptive_lookahead(false);
    global.declare_channel(0, 0, 5);
    int gfired = 0;
    for (sim::Time t = 10; t <= 100; t += 10)
        global.shard(0).schedule_at(t, [&gfired] { ++gfired; });
    sim::SwarmRuntime::Report g = global.run_until(200);
    EXPECT_EQ(gfired, 10);
    EXPECT_EQ(g.epochs, 10u);
}

TEST(AdaptiveWindowTest, SelfPostsMergeWithCrossShardPostsByOrigin)
{
    // Direct same-shard delivery must not change the merge order: at
    // equal delivery time, envelopes run in ascending origin order
    // whether they arrived via the staged mailbox (cross-shard) or
    // the direct self path, and plain locals still run first.
    sim::SwarmRuntime rt(2);
    rt.set_adaptive_lookahead(true);
    rt.declare_channel(1, 0, 5);
    rt.declare_channel(0, 0, 5);
    std::vector<int> seen;
    rt.shard(1).schedule_at(1, [&rt, &seen] {
        rt.post(1, 0, 10, 4, sim::InlineFn([&seen] { seen.push_back(4); }));
    });
    rt.shard(0).schedule_at(1, [&rt, &seen] {
        rt.post(0, 0, 10, 7, sim::InlineFn([&seen] { seen.push_back(7); }));
        rt.post(0, 0, 10, 2, sim::InlineFn([&seen] { seen.push_back(2); }));
    });
    rt.shard(0).schedule_at(10, [&seen] { seen.push_back(0); });
    rt.run_until(50);
    EXPECT_EQ(seen, (std::vector<int>{0, 2, 4, 7}));
}

TEST(SwarmRuntimeTest, PreRunMailIsDrainedBeforeFirstWindow)
{
    // Mail posted before run_until() must not be outrun by the first
    // epoch window, even when the first shard event is far away.
    sim::SwarmRuntime rt(2);
    rt.declare_channel(0, 1, 1000);
    std::vector<int> seen;
    rt.post(0, 1, 5, 1, sim::InlineFn([&seen] { seen.push_back(5); }));
    rt.shard(1).schedule_at(2000, [&seen] { seen.push_back(2000); });
    rt.run_until(5000);
    EXPECT_EQ(seen, (std::vector<int>{5, 2000}));
}

TEST(ShardLinkTest, SerializesFifoAndDeclaresChannel)
{
    sim::SwarmRuntime rt(2);
    // 8 Mbps, 1 ms propagation: 1000 bytes serialize in 1 ms.
    net::ShardLink link(rt, 0, 1, 42, 8e6, sim::kMillisecond);
    EXPECT_EQ(rt.lookahead(), sim::kMillisecond);
    std::vector<sim::Time> arrivals;
    sim::Time a1 = link.transfer(1000, sim::InlineFn(nullptr));
    sim::Time a2 = link.transfer(1000, sim::InlineFn(nullptr));
    // Second transfer queues behind the first: one extra serialization.
    EXPECT_EQ(a1, 2 * sim::kMillisecond);
    EXPECT_EQ(a2, 3 * sim::kMillisecond);
    EXPECT_EQ(link.bytes_total(), 2000u);
}

TEST(ShardChaosTest, RoutesDeviceAndControllerFaults)
{
    sim::SwarmRuntime rt(2);
    rt.declare_channel(0, 1, 1);
    fault::FaultPlan plan;
    plan.device_crash(10, 1, 5);  // Device 1 -> shard 1; back at 15.
    plan.controller_crash(20);
    plan.link_burst(30, 5, 0.9);  // No sharded model: counted.
    // Hooks fire on their owner shard's thread; under adaptive
    // windows unrelated shards run concurrently, so the log needs a
    // lock, and only (sim time, label) order is meaningful — not the
    // wall-clock append order.
    std::mutex mu;
    std::vector<std::pair<sim::Time, std::string>> log;
    auto note = [&](int shard, std::string label) {
        const sim::Time t = rt.shard(shard).now();
        std::lock_guard<std::mutex> lock(mu);
        log.emplace_back(t, std::move(label));
    };
    fault::ShardChaosHooks hooks;
    hooks.crash_device = [&](std::size_t d) {
        note(1, "crash" + std::to_string(d));
    };
    hooks.rejoin_device = [&](std::size_t d) {
        note(1, "rejoin" + std::to_string(d));
    };
    hooks.crash_controller = [&] { note(0, "ctrl-down"); };
    fault::ShardChaosReport rep = fault::route_plan(
        rt, plan,
        [&rt](std::size_t d) { return platform::device_shard(d, rt.shards()); },
        hooks);
    EXPECT_EQ(rep.routed, 2u);
    EXPECT_EQ(rep.unsupported, 1u);
    rt.run_until(100 * sim::kSecond);
    std::stable_sort(log.begin(), log.end(),
                     [](const auto& a, const auto& b) {
                         return a.first < b.first;
                     });
    // The controller crash is routed alone: the HA stack behind the
    // hook owns the recovery.
    const std::vector<std::pair<sim::Time, std::string>> want = {
        {10, "crash1"}, {15, "rejoin1"}, {20, "ctrl-down"}};
    EXPECT_EQ(log, want);
}

TEST(ShardChaosTest, ControllerFaultsReachOnlyTheirOwnHooks)
{
    sim::SwarmRuntime rt(2);
    rt.declare_channel(0, 1, 1);
    fault::FaultPlan plan;
    plan.controller_partition(4 * sim::kSecond, 3 * sim::kSecond);
    plan.controller_crash(9 * sim::kSecond);
    // Both controller hooks run on shard 0, one thread: no lock needed.
    std::vector<std::pair<sim::Time, std::string>> log;
    fault::ShardChaosHooks hooks;
    hooks.partition_controller = [&](sim::Time duration) {
        log.emplace_back(rt.shard(0).now(),
                         "partition for " +
                             std::to_string(duration / sim::kSecond) + "s");
    };
    hooks.crash_controller = [&] {
        log.emplace_back(rt.shard(0).now(), "crash");
    };
    fault::ShardChaosReport rep = fault::route_plan(
        rt, plan,
        [&rt](std::size_t d) { return platform::device_shard(d, rt.shards()); },
        hooks);
    EXPECT_EQ(rep.routed, 2u);
    EXPECT_EQ(rep.unsupported, 0u);
    rt.run_until(30 * sim::kSecond);
    // The partition reaches its own hook once, with its window; no
    // crash/recover pair stands in for it, and nothing is scheduled
    // to end either fault.
    const std::vector<std::pair<sim::Time, std::string>> want = {
        {4 * sim::kSecond, "partition for 3s"}, {9 * sim::kSecond, "crash"}};
    EXPECT_EQ(log, want);

    // With no controller hooks (a run without the HA stack) both
    // events are counted unsupported, and nothing is scheduled.
    sim::SwarmRuntime bare(2);
    bare.declare_channel(0, 1, 1);
    fault::ShardChaosHooks none;
    none.crash_device = [](std::size_t) {};
    fault::ShardChaosReport skipped = fault::route_plan(
        bare, plan, [&bare](std::size_t d) {
            return platform::device_shard(d, bare.shards());
        },
        none);
    EXPECT_EQ(skipped.routed, 0u);
    EXPECT_EQ(skipped.unsupported, 2u);
    EXPECT_EQ(bare.shard(0).pending(), 0u);
}

TEST(ShardChaosTest, OverlappingServerCrashIsOneIncident)
{
    // Server 1 goes down at 4 s for 8 s; a second crash at 6 s for 2 s
    // lands while it is still down. That is not a second incident: only
    // the first crash and its restore are routed, so the server is not
    // revived early at 8 s.
    sim::SwarmRuntime rt(2);
    rt.declare_channel(0, 1, 1);
    fault::FaultPlan plan;
    plan.server_crash(4 * sim::kSecond, 1, 8 * sim::kSecond);
    plan.server_crash(6 * sim::kSecond, 1, 2 * sim::kSecond);
    // Both hooks run on the cloud shard, shard 0, one thread: no lock
    // needed.
    std::vector<std::pair<sim::Time, std::string>> log;
    fault::ShardChaosHooks hooks;
    hooks.crash_server = [&](std::size_t s, sim::Time down_for) {
        log.emplace_back(rt.shard(0).now(),
                         "crash" + std::to_string(s) + " for " +
                             std::to_string(down_for / sim::kSecond) + "s");
    };
    hooks.recover_server = [&](std::size_t s) {
        log.emplace_back(rt.shard(0).now(), "restore" + std::to_string(s));
    };
    fault::route_plan(
        rt, plan,
        [&rt](std::size_t d) { return platform::device_shard(d, rt.shards()); },
        hooks);
    rt.run_until(30 * sim::kSecond);
    const std::vector<std::pair<sim::Time, std::string>> want = {
        {4 * sim::kSecond, "crash1 for 8s"},
        {12 * sim::kSecond, "restore1"}};
    EXPECT_EQ(log, want);
}

/** Shard counts exercised by the invariance sweep. */
std::vector<int>
shard_counts()
{
    std::vector<int> counts = {1, 2, 4};
    if (auto extra = hivemind::platform::env::shards()) {
        if (std::find(counts.begin(), counts.end(), *extra) ==
            counts.end())
            counts.push_back(*extra);
    }
    return counts;
}

// --- Gilbert-Elliott burst chains on ShardLinks -----------------------

/** One loss transition as recorded by the set_device_loss hook. */
struct Transition
{
    sim::Time at;
    double loss;
    bool operator==(const Transition& o) const
    {
        return at == o.at && loss == o.loss;
    }
};

/** Run route_plan's LinkBurst chains bare and record per-device. */
std::vector<std::vector<Transition>>
record_chains(int shards, std::size_t devices, const fault::FaultPlan& plan)
{
    sim::SwarmRuntime rt(shards);
    auto owner = [shards, devices](std::size_t d) {
        return static_cast<int>(d % static_cast<std::size_t>(shards));
    };
    for (std::size_t d = 0; d < devices; ++d) {
        // Self-channels so every shard has a finite lookahead.
        rt.declare_channel(owner(d), owner(d), sim::kMillisecond);
    }
    // Outer vector sized up front: each inner vector is only touched
    // from its device's owner shard, so recording is race-free.
    std::vector<std::vector<Transition>> rec(devices);
    fault::ShardChaosHooks hooks;
    hooks.devices = devices;
    hooks.burst_seed = 42;
    hooks.set_device_loss = [&rt, &rec, owner](std::size_t d, double loss) {
        rec[d].push_back({rt.shard(owner(d)).now(), loss});
    };
    fault::ShardChaosReport rep = fault::route_plan(rt, plan, owner, hooks);
    EXPECT_EQ(rep.link_bursts, 1u);
    rt.run_until(120 * sim::kSecond);
    return rec;
}

TEST(GilbertElliott, ChainsAreShardInvariantWithExponentialDwells)
{
    constexpr std::size_t kDevices = 8;
    fault::FaultPlan plan;
    plan.link_burst(sim::kSecond, 60 * sim::kSecond, 0.9);

    std::vector<std::vector<Transition>> ref =
        record_chains(1, kDevices, plan);
    for (int n : shard_counts()) {
        std::vector<std::vector<Transition>> rec =
            record_chains(n, kDevices, plan);
        EXPECT_EQ(rec, ref) << "shards=" << n;
    }

    // Shape: the window opens in the good state, alternates, and the
    // final transition restores the configured loss (-1).
    std::vector<double> bad_dwells, good_dwells;
    for (std::size_t d = 0; d < kDevices; ++d) {
        const std::vector<Transition>& t = ref[d];
        ASSERT_GE(t.size(), 3u) << "device " << d;
        EXPECT_EQ(t.front().at, sim::kSecond);
        EXPECT_EQ(t.front().loss, 0.0);  // loss_good default.
        EXPECT_EQ(t.back().at, 61 * sim::kSecond);
        EXPECT_EQ(t.back().loss, -1.0);
        for (std::size_t i = 1; i + 1 < t.size(); ++i) {
            const bool entering_bad = (i % 2) == 1;
            EXPECT_EQ(t[i].loss, entering_bad ? 0.9 : 0.0)
                << "device " << d << " transition " << i;
            const double dwell = sim::to_seconds(t[i + 1].at - t[i].at);
            if (entering_bad)
                bad_dwells.push_back(dwell);
            else
                good_dwells.push_back(dwell);
        }
    }
    // Dwell statistics follow the two-state chain's means (2 s good,
    // 500 ms bad by default); loose 3-sigma-ish bounds for ~100+
    // exponential samples.
    ASSERT_GE(bad_dwells.size(), 30u);
    ASSERT_GE(good_dwells.size(), 30u);
    auto mean = [](const std::vector<double>& v) {
        double s = 0.0;
        for (double x : v)
            s += x;
        return s / static_cast<double>(v.size());
    };
    const double mean_bad = mean(bad_dwells);
    const double mean_good = mean(good_dwells);
    EXPECT_GT(mean_bad, 0.2);
    EXPECT_LT(mean_bad, 1.2);
    EXPECT_GT(mean_good, 1.0);
    EXPECT_LT(mean_good, 4.0);
    // The two states are actually distinct processes.
    EXPECT_GT(mean_good, 1.5 * mean_bad);
}

// --- Paper scenarios on the sharded runtime ---------------------------

platform::ScenarioConfig
scenario_config()
{
    platform::ScenarioConfig sc;
    sc.kind = platform::ScenarioKind::StationaryItems;
    sc.field_size_m = 48.0;
    sc.targets = 6;
    sc.time_cap = 120 * sim::kSecond;
    return sc;
}

platform::DeploymentConfig
scenario_deployment()
{
    platform::DeploymentConfig cfg;
    cfg.devices = 8;
    cfg.servers = 4;
    cfg.cores_per_server = 8;
    cfg.seed = 42;
    return cfg;
}

TEST(ShardedScenarioTest, RunsTheScenarioToAVerdict)
{
    platform::ShardedScenarioResult r = platform::run_scenario_sharded(
        scenario_config(), platform::PlatformOptions::hivemind(),
        scenario_deployment(), 2);
    EXPECT_GT(r.epochs, 0u);
    EXPECT_GT(r.forwarded, 0u);
    EXPECT_GT(r.metrics.tasks_completed, 0u);
    EXPECT_GT(r.metrics.completion_s, 0.0);
    EXPECT_GT(r.metrics.task_latency_s.count(), 0u);
    EXPECT_GT(r.metrics.bandwidth_MBps.count(), 0u);
}

TEST(ShardLayout, DevicesAvoidTheCloudShardAndSpreadEvenly)
{
    EXPECT_EQ(platform::controller_shard(1), platform::kCloudShard);
    for (int n = 1; n <= 8; ++n) {
        if (n > 1) {
            EXPECT_NE(platform::controller_shard(n), platform::kCloudShard);
        }
        for (std::size_t devices : {1u, 3u, 7u, 8u, 100u}) {
            std::vector<std::size_t> load(static_cast<std::size_t>(n), 0);
            for (std::size_t d = 0; d < devices; ++d) {
                const int s = platform::device_shard(d, n);
                ASSERT_GE(s, 0);
                ASSERT_LT(s, n);
                if (n > 1) {
                    EXPECT_NE(s, platform::kCloudShard)
                        << "device " << d << " shards " << n;
                }
                ++load[static_cast<std::size_t>(s)];
            }
            // Over the shards that may hold devices: all of them at
            // N = 1, every one but the cloud shard above.
            const auto [lo, hi] = std::minmax_element(
                load.begin() + (n > 1 ? 1 : 0), load.end());
            EXPECT_LE(*hi - *lo, 1u)
                << devices << " devices at " << n << " shards";
        }
    }
}

TEST(ShardedScenarioTest, ProfileReportsEveryShard)
{
    for (int n : {1, 3}) {
        const platform::ShardedScenarioResult r =
            platform::run_scenario_sharded(
                scenario_config(), platform::PlatformOptions::hivemind(),
                scenario_deployment(), n);
        ASSERT_EQ(r.profile.shards.size(), static_cast<std::size_t>(n));
        for (const auto& shard : r.profile.shards) {
            EXPECT_GT(shard.events, 0u) << "shards=" << n;
            EXPECT_GT(shard.busy_s, 0.0) << "shards=" << n;
        }
        EXPECT_GT(r.profile.serial_s, 0.0) << "shards=" << n;
    }
}

TEST(ShardedScenarioTest, ChecksumInvariantAcrossShardCounts)
{
    platform::ShardedScenarioResult ref = platform::run_scenario_sharded(
        scenario_config(), platform::PlatformOptions::hivemind(),
        scenario_deployment(), 1);
    for (int n : shard_counts()) {
        if (n == 1)
            continue;
        platform::ShardedScenarioResult r = platform::run_scenario_sharded(
            scenario_config(), platform::PlatformOptions::hivemind(),
            scenario_deployment(), n);
        EXPECT_EQ(r.checksum, ref.checksum) << "shards=" << n;
        EXPECT_EQ(r.metrics.tasks_completed, ref.metrics.tasks_completed)
            << "shards=" << n;
        EXPECT_EQ(r.metrics.completed, ref.metrics.completed)
            << "shards=" << n;
    }
}

TEST(ShardedScenarioTest, CentralizedPlatformIsInvariantToo)
{
    platform::ScenarioConfig sc = scenario_config();
    sc.time_cap = 60 * sim::kSecond;
    platform::ShardedScenarioResult ref = platform::run_scenario_sharded(
        sc, platform::PlatformOptions::centralized_faas(),
        scenario_deployment(), 1);
    for (int n : shard_counts()) {
        platform::ShardedScenarioResult r = platform::run_scenario_sharded(
            sc, platform::PlatformOptions::centralized_faas(),
            scenario_deployment(), n);
        EXPECT_EQ(r.checksum, ref.checksum) << "shards=" << n;
    }
}

TEST(ShardedScenarioTest, InvariantUnderChaosPlan)
{
    // Mid-run device crashes (with rejoins), a cloud server crash and a
    // controller failover all cross shard boundaries; the checksum must
    // not care where the victims live. Devices 2 and 3 live on shard 0
    // at N = 1, both on shard 1 at N = 2, and on shards 3 and 1 at
    // N = 4, never beside the cloud tier on shard 0 once N > 1.
    platform::ScenarioConfig sc = scenario_config();
    sc.faults.device_crash(3 * sim::kSecond, 2, 4 * sim::kSecond);
    sc.faults.server_crash(4 * sim::kSecond, 1, 3 * sim::kSecond);
    sc.faults.controller_crash(6 * sim::kSecond);
    sc.faults.device_crash(6 * sim::kSecond, 3, 5 * sim::kSecond);
    platform::ShardedScenarioResult ref = platform::run_scenario_sharded(
        sc, platform::PlatformOptions::hivemind(), scenario_deployment(), 1);
    EXPECT_EQ(ref.metrics.recovery.device_crashes, 2u);
    EXPECT_EQ(ref.metrics.recovery.device_rejoins, 2u);
    EXPECT_GE(ref.metrics.recovery.server_crashes, 1u);
    EXPECT_GE(ref.metrics.recovery.controller_failovers, 1u);
    for (int n : shard_counts()) {
        platform::ShardedScenarioResult r = platform::run_scenario_sharded(
            sc, platform::PlatformOptions::hivemind(), scenario_deployment(),
            n);
        EXPECT_EQ(r.checksum, ref.checksum) << "shards=" << n;
    }
}

TEST(ShardedScenarioTest, LinkBurstLossIsInvariantAndAccounted)
{
    // A Gilbert-Elliott burst window drops uplink frames and forces
    // link-layer retries; the per-device loss chains are pure functions
    // of (seed, device, event), so the retransmission totals — and the
    // digest they feed — must not depend on the shard layout.
    platform::ScenarioConfig sc = scenario_config();
    sc.faults.link_burst(2 * sim::kSecond, 8 * sim::kSecond, 0.9);
    platform::ShardedScenarioResult ref = platform::run_scenario_sharded(
        sc, platform::PlatformOptions::hivemind(), scenario_deployment(), 1);
    EXPECT_EQ(ref.metrics.recovery.link_burst_windows, 1u);
    EXPECT_EQ(ref.chaos.link_bursts, 1u);
    EXPECT_GT(ref.metrics.recovery.wireless_retransmissions, 0u);
    for (int n : shard_counts()) {
        platform::ShardedScenarioResult r = platform::run_scenario_sharded(
            sc, platform::PlatformOptions::hivemind(), scenario_deployment(),
            n);
        EXPECT_EQ(r.checksum, ref.checksum) << "shards=" << n;
        EXPECT_EQ(r.metrics.recovery.wireless_retransmissions,
                  ref.metrics.recovery.wireless_retransmissions)
            << "shards=" << n;
    }
}

TEST(ShardedScenarioTest, BatchedTicksMatchPerDeviceTicks)
{
    // The 1 Hz device tick is one batched event per shard that walks
    // its roster in device-id order, so the tick order at equal
    // simulated time — and the digest — is the same as the retired
    // one-event-per-device layout under every window policy and shard
    // count. Global-lookahead epochs at one shard are the reference.
    platform::ScenarioConfig global = scenario_config();
    global.adaptive_lookahead = false;
    platform::ShardedScenarioResult ref = platform::run_scenario_sharded(
        global, platform::PlatformOptions::hivemind(),
        scenario_deployment(), 1);
    for (int n : {1, 2}) {
        platform::ShardedScenarioResult adaptive =
            platform::run_scenario_sharded(
                scenario_config(), platform::PlatformOptions::hivemind(),
                scenario_deployment(), n);
        EXPECT_EQ(adaptive.checksum, ref.checksum) << "shards=" << n;
        platform::ShardedScenarioResult fixed =
            platform::run_scenario_sharded(
                global, platform::PlatformOptions::hivemind(),
                scenario_deployment(), n);
        EXPECT_EQ(fixed.checksum, ref.checksum) << "shards=" << n;
    }
}

TEST(ShardedScenarioTest, ServerCrashKillsInFlightInvocationsInvariantly)
{
    // A cloud server crashing under load kills the invocations it
    // holds (server 2 holds four at t = 4.5 s on this seed). The FaaS
    // runtime's loss ledger reaches RecoveryMetrics and lives on the
    // cloud shard, so it must not depend on the shard count either.
    platform::ScenarioConfig sc = scenario_config();
    sc.faults.server_crash(sim::from_millis(4500.0), 2, 3 * sim::kSecond);
    platform::ShardedScenarioResult ref = platform::run_scenario_sharded(
        sc, platform::PlatformOptions::hivemind(), scenario_deployment(), 1);
    const fault::RecoveryMetrics& rec = ref.metrics.recovery;
    EXPECT_EQ(rec.server_crashes, 1u);
    EXPECT_GT(rec.killed_invocations, 0u);
    EXPECT_GT(rec.reexecuted_core_ms, 0.0);
    for (int n : shard_counts()) {
        platform::ShardedScenarioResult r = platform::run_scenario_sharded(
            sc, platform::PlatformOptions::hivemind(), scenario_deployment(),
            n);
        EXPECT_EQ(r.checksum, ref.checksum) << "shards=" << n;
        EXPECT_EQ(r.metrics.recovery.killed_invocations,
                  rec.killed_invocations)
            << "shards=" << n;
        EXPECT_EQ(r.metrics.recovery.work_lost_core_ms,
                  rec.work_lost_core_ms)
            << "shards=" << n;
        EXPECT_EQ(r.metrics.recovery.reexecuted_core_ms,
                  rec.reexecuted_core_ms)
            << "shards=" << n;
    }
}

TEST(ShardedScenarioTest, LostInvocationsAreNotDelivered)
{
    // Every function body dies (fault_prob = 1) and Restore None gives
    // each up: no frame can be delivered. A lost part must lose its
    // task, skip the dedup stage and come back as a loss notice that
    // the device books as dropped, never as a completed task.
    platform::ScenarioConfig sc;
    sc.kind = platform::ScenarioKind::StationaryItems;
    sc.time_cap = 20 * sim::kSecond;
    sc.recovery = cloud::FaultRecovery::None;
    platform::DeploymentConfig dep;
    dep.devices = 8;
    dep.servers = 6;
    dep.seed = 7;
    dep.faas.fault_prob = 1.0;
    const fault::OracleSuite oracles;
    platform::ShardedScenarioResult ref;
    for (int n : shard_counts()) {
        platform::ShardedScenarioResult r = platform::run_scenario_sharded(
            sc, platform::PlatformOptions::hivemind(), dep, n);
        EXPECT_EQ(r.metrics.tasks_completed, 0u) << "shards=" << n;
        EXPECT_EQ(r.audit.frames.delivered, 0u) << "shards=" << n;
        EXPECT_GT(r.audit.frames.dropped, 0u) << "shards=" << n;
        EXPECT_GT(r.metrics.recovery.offloads_abandoned, 0u)
            << "shards=" << n;
        EXPECT_EQ(r.metrics.goal_fraction, 0.0) << "shards=" << n;
        const std::vector<fault::Violation> vs =
            oracles.check_frame_conservation(r.audit);
        EXPECT_TRUE(vs.empty())
            << "shards=" << n << ": " << fault::violations_to_string(vs);
        if (n == 1) {
            ref = r;
            continue;
        }
        EXPECT_EQ(r.checksum, ref.checksum) << "shards=" << n;
        EXPECT_EQ(r.audit.frames.dropped, ref.audit.frames.dropped)
            << "shards=" << n;
    }
}

TEST(ShardedScenarioTest, CoLocationHintNeverStrandsWorkOnACrashedServer)
{
    // Scenario B's dedup child carries its parent's server as a
    // co-location hint. Server 0 of 3 crashes for good at 11.9 s, while
    // recognition fan-outs run on it; a child hinted at it must run
    // elsewhere, not wait in the FaaS queue for a server that never
    // returns. A hint that ignored the down flag stranded 3 frames:
    // 409 tasks and 17 frames still in flight at the end, instead of
    // 412 and 14.
    platform::ScenarioConfig sc;
    sc.kind = platform::ScenarioKind::MovingPeople;
    sc.time_cap = 20 * sim::kSecond;
    sc.faults.server_crash(sim::from_millis(11900.0), 0, 0);
    platform::DeploymentConfig dep;
    dep.devices = 20;
    dep.servers = 3;
    dep.seed = 7;
    std::uint64_t checksum = 0;
    for (int n : {1, 2}) {
        platform::ShardedScenarioResult r = platform::run_scenario_sharded(
            sc, platform::PlatformOptions::hivemind(), dep, n);
        EXPECT_EQ(r.metrics.recovery.server_crashes, 1u) << "shards=" << n;
        EXPECT_EQ(r.metrics.tasks_completed, 412u) << "shards=" << n;
        EXPECT_EQ(r.audit.frames.inflight_end, 14u) << "shards=" << n;
        if (n == 1)
            checksum = r.checksum;
        EXPECT_EQ(r.checksum, checksum) << "shards=" << n;
    }
}

TEST(ShardedScenarioTest, OverlappingServerCrashIsBookedOnce)
{
    // The crash at 6 s lands while server 1 is still down from the
    // 4 s crash: one incident, one 8 s repair sample, at every shard
    // count.
    platform::ScenarioConfig sc = scenario_config();
    sc.faults.server_crash(4 * sim::kSecond, 1, 8 * sim::kSecond);
    sc.faults.server_crash(6 * sim::kSecond, 1, 2 * sim::kSecond);
    for (int n : shard_counts()) {
        platform::ShardedScenarioResult r = platform::run_scenario_sharded(
            sc, platform::PlatformOptions::hivemind(), scenario_deployment(),
            n);
        EXPECT_EQ(r.metrics.recovery.server_crashes, 1u) << "shards=" << n;
        EXPECT_EQ(r.metrics.recovery.mttr_s.samples(),
                  std::vector<double>{8.0})
            << "shards=" << n;
    }
}

TEST(ShardedScenarioTest, EightThousandDeviceSmokeIsInvariant)
{
    // Fig. 17-scale smoke: 8192 devices for three simulated seconds
    // exercises the batched tick rosters and direct self-delivery at
    // the device count the bench gates on, at ctest-friendly cost
    // (the full mission lives in bench/fig11_scenario_shards).
    platform::ScenarioConfig sc;
    sc.kind = platform::ScenarioKind::StationaryItems;
    sc.field_size_m = 512.0;
    sc.targets = 30;
    sc.time_cap = 3 * sim::kSecond;
    platform::DeploymentConfig dep;
    dep.devices = 8192;
    dep.servers = 12;
    dep.cores_per_server = 40;
    dep.seed = 42;
    platform::ShardedScenarioResult ref = platform::run_scenario_sharded(
        sc, platform::PlatformOptions::hivemind(), dep, 1);
    EXPECT_GT(ref.epochs, 0u);
    platform::ShardedScenarioResult r4 = platform::run_scenario_sharded(
        sc, platform::PlatformOptions::hivemind(), dep, 4);
    EXPECT_EQ(r4.checksum, ref.checksum);
    EXPECT_GT(r4.forwarded, 0u);  // Real cross-shard traffic at N=4.
}

TEST(ShardedScenarioTest, DistributedEdgeRadioLedgerBooksEveryAck)
{
    // DistributedEdge uplinks only each frame's on-board result, and
    // the cloud answers every completion with a 64 B ack that burns
    // the device radio too. Loss-free, the ledger is exactly one
    // result per offload plus one ack per completion: whatever is left
    // after the acked completions are whole results still in the air.
    platform::ScenarioConfig sc = scenario_config();
    sc.time_cap = 60 * sim::kSecond;
    platform::ShardedScenarioResult r = platform::run_scenario_sharded(
        sc, platform::PlatformOptions::distributed_edge(),
        scenario_deployment(), 2);
    const platform::RunMetrics& m = r.metrics;
    ASSERT_GT(m.tasks_completed, 0u);
    EXPECT_EQ(r.audit.frames.dropped, 0u);
    const std::uint64_t result_bytes =
        platform::pipeline_for(sc.kind).result_bytes;
    const std::uint64_t acked = m.tasks_completed * (result_bytes + 64);
    ASSERT_GE(m.radio_bytes_total, acked);
    const std::uint64_t unacked = m.radio_bytes_total - acked;
    EXPECT_EQ(unacked % result_bytes, 0u);
    EXPECT_LE(unacked / result_bytes, r.audit.frames.inflight_end);
}

// --- Full chaos plans: HA, drones and rovers --------------------------

TEST(ShardedHa, ChecksumInvariantWithFullChaosPlan)
{
    // Every fault lands before the mission completes at 18 s on this
    // seed: the partition spans 14-16 s, after the failover from the
    // 12 s controller crash.
    platform::ScenarioConfig sc = scenario_config();
    sc.faults.device_crash(3 * sim::kSecond, 2, 4 * sim::kSecond)
        .server_crash(4 * sim::kSecond, 1, 3 * sim::kSecond)
        .link_burst(5 * sim::kSecond, 6 * sim::kSecond, 0.9)
        .controller_crash(12 * sim::kSecond)
        .controller_partition(14 * sim::kSecond, 2 * sim::kSecond);
    platform::ShardedScenarioResult ref = platform::run_scenario_sharded(
        sc, platform::PlatformOptions::hivemind(), scenario_deployment(), 1);

    // The real HA stack drove recovery: durable checkpoints on the
    // cloud-shard DataStore, election within the heartbeat deadline,
    // degraded-mode buffering during the outages.
    const fault::RecoveryMetrics& r = ref.metrics.recovery;
    EXPECT_EQ(r.controller_crashes, 1u);
    EXPECT_EQ(r.controller_partitions, 1u);
    EXPECT_EQ(r.controller_failovers, 1u);
    EXPECT_GE(r.checkpoints_taken, 2u);
    EXPECT_GT(r.checkpoint_bytes, 0u);
    ASSERT_EQ(r.controller_mttd_s.count(), 1u);
    EXPECT_GE(r.controller_mttd_s.mean(), 1.5 - 1e-9);
    EXPECT_LE(r.controller_mttd_s.mean(), 2.0 + 1e-9);
    EXPECT_GT(r.frames_buffered_degraded, 0u);
    EXPECT_GT(r.buffered_frames_drained, 0u);
    EXPECT_EQ(r.link_burst_windows, 1u);
    EXPECT_GT(r.wireless_retransmissions, 0u);

    for (int n : shard_counts()) {
        platform::ShardedScenarioResult run = platform::run_scenario_sharded(
            sc, platform::PlatformOptions::hivemind(), scenario_deployment(),
            n);
        EXPECT_EQ(run.checksum, ref.checksum) << "shards=" << n;
        // The whole recovery ledger must be shard-invariant, not just a
        // couple of sentinel counters; on mismatch the diff printer
        // names every divergent field.
        EXPECT_TRUE(run.metrics.recovery == ref.metrics.recovery)
            << "shards=" << n << "\n"
            << fault::metrics_diff_string(ref.metrics.recovery,
                                          run.metrics.recovery);
    }
}

TEST(ShardedHa, ChecksumAndRecoveryInvariantAtOneToFiveShards)
{
    // Every layout from one shard to the cloud shard beside four device
    // shards, 3 and 5 included, under a device crash and rejoin, a
    // server crash, a link burst and a controller crash (HA on); then
    // the same with fewer drones than shards, so some device shards
    // hold nobody.
    platform::ScenarioConfig sc = scenario_config();
    sc.faults.device_crash(3 * sim::kSecond, 2, 4 * sim::kSecond)
        .server_crash(4 * sim::kSecond, 1, 3 * sim::kSecond)
        .link_burst(5 * sim::kSecond, 6 * sim::kSecond, 0.9)
        .controller_crash(12 * sim::kSecond);
    for (std::size_t devices : {8u, 3u}) {
        platform::DeploymentConfig dep = scenario_deployment();
        dep.devices = devices;
        const platform::ShardedScenarioResult ref =
            platform::run_scenario_sharded(
                sc, platform::PlatformOptions::hivemind(), dep, 1);
        const fault::RecoveryMetrics& r = ref.metrics.recovery;
        EXPECT_EQ(r.device_crashes, 1u) << devices << " devices";
        EXPECT_EQ(r.device_rejoins, 1u) << devices << " devices";
        EXPECT_GE(r.server_crashes, 1u) << devices << " devices";
        EXPECT_EQ(r.link_burst_windows, 1u) << devices << " devices";
        EXPECT_EQ(r.controller_failovers, 1u) << devices << " devices";
        for (int n = 2; n <= 5; ++n) {
            const platform::ShardedScenarioResult run =
                platform::run_scenario_sharded(
                    sc, platform::PlatformOptions::hivemind(), dep, n);
            EXPECT_EQ(run.checksum, ref.checksum)
                << devices << " devices, shards=" << n;
            EXPECT_TRUE(run.metrics.recovery == ref.metrics.recovery)
                << devices << " devices, shards=" << n << "\n"
                << fault::metrics_diff_string(ref.metrics.recovery,
                                              run.metrics.recovery);
        }
    }
}

/**
 * A rover mission under churn: two crash/rejoin windows that interrupt
 * legs mid-drive or mid-offload, plus a lossy burst over the sense
 * round trips. Course sized so the rovers can still finish inside the
 * cap once the rejoins resume the interrupted legs.
 */
platform::ScenarioConfig
rover_chaos_scenario(platform::ScenarioKind kind)
{
    platform::ScenarioConfig sc;
    sc.kind = kind;
    sc.field_size_m = 48.0;
    sc.course_legs = 6;
    sc.maze_side = 5;
    sc.time_cap = 300 * sim::kSecond;
    sc.faults.device_crash(5 * sim::kSecond, 1, 6 * sim::kSecond)
        .device_crash(9 * sim::kSecond, 3, 4 * sim::kSecond)
        .link_burst(15 * sim::kSecond, 8 * sim::kSecond, 0.9);
    return sc;
}

TEST(ShardedRover, ChecksumInvariantWithFullChaosPlan)
{
    for (platform::ScenarioKind kind :
         {platform::ScenarioKind::TreasureHunt,
          platform::ScenarioKind::RoverMaze}) {
        platform::ScenarioConfig sc = rover_chaos_scenario(kind);
        // Every rover finishes its course under churn: the rejoin
        // resumes the interrupted leg instead of stranding the rover.
        platform::ShardedScenarioResult churn =
            platform::run_scenario_sharded(
                sc, platform::PlatformOptions::hivemind(),
                scenario_deployment(), 2);
        EXPECT_TRUE(churn.metrics.completed) << platform::to_string(kind);
        EXPECT_EQ(churn.metrics.job_latency_s.count(), 8u)
            << platform::to_string(kind);
        EXPECT_EQ(churn.metrics.recovery.device_crashes, 2u);
        EXPECT_EQ(churn.metrics.recovery.device_rejoins, 2u);
        EXPECT_EQ(churn.metrics.recovery.link_burst_windows, 1u);

        // Fold in the controller-side faults so the rover path runs
        // against the whole HA/degraded stack too.
        sc.faults.controller_crash(12 * sim::kSecond);
        platform::ShardedScenarioResult ref =
            platform::run_scenario_sharded(
                sc, platform::PlatformOptions::hivemind(),
                scenario_deployment(), 1);
        EXPECT_EQ(ref.metrics.recovery.device_crashes, 2u)
            << platform::to_string(kind);
        EXPECT_EQ(ref.metrics.recovery.device_rejoins, 2u);
        EXPECT_EQ(ref.metrics.recovery.controller_crashes, 1u);
        EXPECT_EQ(ref.metrics.recovery.controller_failovers, 1u);

        for (int n : shard_counts()) {
            platform::ShardedScenarioResult run =
                platform::run_scenario_sharded(
                    sc, platform::PlatformOptions::hivemind(),
                    scenario_deployment(), n);
            EXPECT_EQ(run.checksum, ref.checksum)
                << platform::to_string(kind) << " shards=" << n;
            EXPECT_TRUE(run.metrics.recovery == ref.metrics.recovery)
                << platform::to_string(kind) << " shards=" << n << "\n"
                << fault::metrics_diff_string(ref.metrics.recovery,
                                              run.metrics.recovery);
        }
    }
}

TEST(ShardedScenarioTest, ShardsKnobRoutesThroughRunScenario)
{
    // run_scenario(shards=N>1) must hand off to the sharded engine and
    // return its metrics verbatim.
    platform::ScenarioConfig sc = scenario_config();
    sc.shards = 2;
    platform::RunMetrics via_knob = platform::run_scenario(
        sc, platform::PlatformOptions::hivemind(), scenario_deployment());
    platform::ShardedScenarioResult direct = platform::run_scenario_sharded(
        sc, platform::PlatformOptions::hivemind(), scenario_deployment(), 2);
    EXPECT_EQ(via_knob.tasks_completed, direct.metrics.tasks_completed);
    EXPECT_EQ(via_knob.completed, direct.metrics.completed);
    EXPECT_EQ(via_knob.task_latency_s.count(),
              direct.metrics.task_latency_s.count());
    EXPECT_DOUBLE_EQ(via_knob.completion_s, direct.metrics.completion_s);
}

}  // namespace
