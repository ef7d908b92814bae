/**
 * @file
 * Allocation guard for the steady-state event path. This binary
 * replaces the global operator new/delete with counting versions that
 * call malloc/free (which is why it is its own executable), then, after
 * a warm-up, counts the heap allocations of two workloads:
 *
 *  - 100k same-tick, out-of-order kernel arrivals (the wheel's
 *    same-tick lane);
 *  - 2,000 HiveMind 8-way CloudTier::invoke calls run to completion
 *    (FaaS invocation records, scheduler races, fan-out joins and the
 *    16-byte continuations between them).
 *
 * Both must stay under one allocation per 100 arrivals or FaaS
 * invocations: slack for a container that still grows now and then
 * past its warm-up size, and nothing per event.
 *
 * The counters also track the live heap (the usable size of every
 * block operator new handed out and delete has not taken back), so a
 * third test checks that the cloud tier retains nothing per
 * invocation once warm. A fourth runs a whole 64-drone HiveMind
 * mission at two lengths and bounds the allocations per extra
 * completed task: the device-to-cloud-and-back round trip.
 */

#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "platform/deployment.hpp"
#include "platform/options.hpp"
#include "platform/pipeline_spec.hpp"
#include "platform/sharded_scenario.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_live_bytes{0};

void*
counted_alloc(std::size_t n)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    void* p = std::malloc(n == 0 ? 1 : n);
    if (p != nullptr) {
        g_live_bytes.fetch_add(
            static_cast<std::int64_t>(malloc_usable_size(p)),
            std::memory_order_relaxed);
    }
    return p;
}

void
counted_free(void* p)
{
    if (p != nullptr) {
        g_live_bytes.fetch_sub(
            static_cast<std::int64_t>(malloc_usable_size(p)),
            std::memory_order_relaxed);
    }
    std::free(p);
}

}  // namespace

void*
operator new(std::size_t n)
{
    if (void* p = counted_alloc(n))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n)
{
    if (void* p = counted_alloc(n))
        return p;
    throw std::bad_alloc();
}

void*
operator new(std::size_t n, const std::nothrow_t&) noexcept
{
    return counted_alloc(n);
}

void*
operator new[](std::size_t n, const std::nothrow_t&) noexcept
{
    return counted_alloc(n);
}

void
operator delete(void* p) noexcept
{
    counted_free(p);
}

void
operator delete[](void* p) noexcept
{
    counted_free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    counted_free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    counted_free(p);
}

namespace hivemind {
namespace {

std::uint64_t
allocations()
{
    return g_allocations.load(std::memory_order_relaxed);
}

std::int64_t
live_bytes()
{
    return g_live_bytes.load(std::memory_order_relaxed);
}

/**
 * Hold model: 64 events pending at any time, each executed event
 * schedules one child at now + U(0, 100 us). Most children land in the
 * cursor's 131 us tick ahead of the ready run's tail.
 */
struct SameTickLoad
{
    sim::Simulator simulator;
    sim::Rng rng{17};
    std::uint64_t executed = 0;

    void arm()
    {
        simulator.schedule_in(rng.uniform_int(0, 100 * sim::kMicrosecond),
                              [this] {
                                  ++executed;
                                  arm();
                              });
    }

    /** Run @p events more events. */
    void run(std::uint64_t events)
    {
        const std::uint64_t target = executed + events;
        while (executed < target && simulator.step()) {
        }
    }
};

TEST(AllocationGuard, SameTickArrivalsAllocateNothing)
{
    SameTickLoad load;
    for (int i = 0; i < 64; ++i)
        load.arm();
    // Warm-up past two wheel laps (~67 ms): every bucket and lane
    // vector reaches its working size.
    load.run(50000);

    const std::uint64_t before = allocations();
    load.run(100000);
    const std::uint64_t allocs = allocations() - before;
    std::printf("%llu allocations for 100000 arrivals\n",
                static_cast<unsigned long long>(allocs));
    EXPECT_EQ(load.simulator.pending(), 64u);
    EXPECT_LE(allocs, 100000u / 100u);
}

/**
 * HiveMind cloud tier (scheduler, remote-memory fabric) taking one
 * 8-way recognition task every 5 ms.
 */
struct CloudLoad
{
    sim::Simulator simulator;
    sim::Rng rng{42};
    platform::CloudTier cloud;
    cloud::InvokeRequest request;
    int parallelism;
    int issued = 0;
    int completed = 0;

    CloudLoad()
        : cloud(simulator, rng, platform::DeploymentConfig{},
                platform::PlatformOptions::hivemind(), nullptr)
    {
        const platform::PipelineSpec pipe = platform::pipeline_for(
            platform::ScenarioKind::StationaryItems);
        request.app = pipe.rec_app;
        request.work_core_ms = pipe.rec_work_ms;
        request.memory_mb = pipe.memory_mb;
        request.input_bytes = pipe.inter_bytes;
        request.output_bytes = pipe.inter_bytes;
        parallelism = pipe.parallelism;
    }

    /** Issue @p calls invokes 5 ms apart and run until all finish. */
    void run(int calls)
    {
        const int target = issued + calls;
        sim::recurring(simulator, 0, [this, target](const sim::Recur& self) {
            cloud.invoke(request, parallelism,
                         [this](const platform::CloudResult&) {
                             ++completed;
                         });
            if (++issued < target)
                self.again_in(5 * sim::kMillisecond);
        });
        simulator.run();
    }
};

TEST(AllocationGuard, HiveMindInvocationPathAllocatesNothing)
{
    CloudLoad load;
    ASSERT_NE(load.cloud.scheduler(), nullptr);
    // Warm-up (10 simulated seconds): slabs, pools, the straggler
    // history's 4096-sample ring and every wheel bucket grow to their
    // working size.
    load.run(2000);
    ASSERT_EQ(load.completed, 2000);

    const std::uint64_t invocations0 = load.cloud.faas().completed();
    const std::uint64_t before = allocations();
    load.run(2000);
    const std::uint64_t allocs = allocations() - before;
    const std::uint64_t invocations =
        load.cloud.faas().completed() - invocations0;
    EXPECT_EQ(load.completed, 4000);
    EXPECT_GE(invocations, 2000u * 8u);
    std::printf("%llu allocations for %llu FaaS invocations\n",
                static_cast<unsigned long long>(allocs),
                static_cast<unsigned long long>(invocations));
    EXPECT_LE(allocs, invocations / 100u);
}

TEST(AllocationGuard, HiveMindInvocationPathRetainsNoHeap)
{
    CloudLoad load;
    load.run(2000);  // The same warm-up as above.
    ASSERT_EQ(load.completed, 2000);
    // Two more windows of the same load: whatever the tier keeps per
    // invocation would grow the live heap by about the same amount
    // each time (each window runs some 27k FaaS invocations).
    for (int window = 1; window <= 2; ++window) {
        const std::int64_t before = live_bytes();
        load.run(2000);
        const std::int64_t grown = live_bytes() - before;
        std::printf("window %d: live heap %+lld bytes\n", window,
                    static_cast<long long>(grown));
        EXPECT_LT(grown, 512 * 1024) << "window " << window;
    }
    EXPECT_EQ(load.completed, 6000);
}

/** Heap allocations and completed tasks of one mission run. */
struct MissionCount
{
    std::uint64_t allocations = 0;
    std::uint64_t tasks = 0;
};

/**
 * One 64-drone HiveMind Scenario A mission on 12 servers (the fleet's
 * HiveMind tenant) of @p seconds, on one shard kernel. The field is
 * large enough that no window here finds every item, so the mission
 * runs its whole window.
 */
MissionCount
run_mission(int seconds)
{
    platform::ScenarioConfig sc;
    sc.kind = platform::ScenarioKind::StationaryItems;
    sc.field_size_m = 256.0;
    sc.targets = 64;
    sc.time_cap = seconds * sim::kSecond;
    platform::DeploymentConfig dep;
    dep.devices = 64;
    dep.servers = 12;
    dep.seed = 4242;
    const std::uint64_t before = allocations();
    const platform::RunResult r = platform::run_scenario_sharded(
        sc, platform::PlatformOptions::hivemind(), dep, 1);
    return {allocations() - before, r.metrics.tasks_completed};
}

TEST(AllocationGuard, MissionTaskRoundTripAllocatesLittle)
{
    // The same mission at two lengths: set-up and teardown cancel out,
    // so the extra allocations per extra completed task are what one
    // task's round trip costs in steady state (device capture,
    // on-board pre-filter, air, wired legs, 8-way cloud fan-out,
    // result downlink and report).
    run_mission(2);  // Warm-up: lazily built statics.
    const MissionCount shorter = run_mission(10);
    const MissionCount longer = run_mission(20);
    ASSERT_GT(longer.tasks, shorter.tasks + 400);
    const double per_task =
        static_cast<double>(longer.allocations - shorter.allocations) /
        static_cast<double>(longer.tasks - shorter.tasks);
    std::printf("%llu / %llu allocations for %llu / %llu tasks: "
                "%.2f per extra task\n",
                static_cast<unsigned long long>(shorter.allocations),
                static_cast<unsigned long long>(longer.allocations),
                static_cast<unsigned long long>(shorter.tasks),
                static_cast<unsigned long long>(longer.tasks), per_task);
    // One heap cell per frame anywhere on the round trip would read
    // about 1.0 here. What is left (about 0.04 per task) is pools and
    // logs that grow to a longer run's peak.
    EXPECT_LE(per_task, 0.25);
}

}  // namespace
}  // namespace hivemind
