/**
 * @file
 * Unit and property tests for the discrete-event kernel, RNG, and
 * statistics (src/sim).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace hivemind::sim {
namespace {

TEST(Time, Conversions)
{
    EXPECT_EQ(from_seconds(1.0), kSecond);
    EXPECT_EQ(from_millis(1.0), kMillisecond);
    EXPECT_EQ(from_micros(1.0), kMicrosecond);
    EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
    EXPECT_DOUBLE_EQ(to_millis(kMillisecond), 1.0);
    EXPECT_DOUBLE_EQ(to_micros(kMicrosecond), 1.0);
    EXPECT_EQ(from_seconds(2.5), 2 * kSecond + 500 * kMillisecond);
}

TEST(Simulator, ExecutesInTimeOrder)
{
    Simulator s;
    std::vector<int> order;
    s.schedule_at(30, [&] { order.push_back(3); });
    s.schedule_at(10, [&] { order.push_back(1); });
    s.schedule_at(20, [&] { order.push_back(2); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(s.now(), 30);
}

TEST(Simulator, TiesBreakInScheduleOrder)
{
    Simulator s;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        s.schedule_at(5, [&order, i] { order.push_back(i); });
    s.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, PastSchedulingClampsToNow)
{
    Simulator s;
    Time seen = -1;
    s.schedule_at(100, [&] {
        s.schedule_at(50, [&] { seen = s.now(); });
    });
    s.run();
    EXPECT_EQ(seen, 100);
}

TEST(Simulator, PastSchedulingRunsAfterPendingSameTimeEvents)
{
    // The documented clamp contract: an event scheduled in the past
    // runs at now(), AFTER events already pending for that time.
    Simulator s;
    std::vector<int> order;
    s.schedule_at(100, [&] {
        order.push_back(1);
        s.schedule_at(50, [&] { order.push_back(3); });  // Clamped.
    });
    s.schedule_at(100, [&] { order.push_back(2); });  // Already pending.
    s.schedule_at(200, [&] { order.push_back(4); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive)
{
    Simulator s;
    int ran = 0;
    s.schedule_at(10, [&] { ++ran; });
    s.schedule_at(20, [&] { ++ran; });
    s.schedule_at(21, [&] { ++ran; });
    EXPECT_EQ(s.run_until(20), 2u);
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(s.pending(), 1u);
    s.run();
    EXPECT_EQ(ran, 3);
}

TEST(Simulator, CancelPreventsExecution)
{
    Simulator s;
    bool ran = false;
    EventId id = s.schedule_at(10, [&] { ran = true; });
    EXPECT_TRUE(s.cancel(id));
    EXPECT_FALSE(s.cancel(id));  // Already cancelled.
    s.run();
    EXPECT_FALSE(ran);
}

TEST(Simulator, EventsScheduledDuringRunAreExecuted)
{
    Simulator s;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 5)
            s.schedule_in(10, recurse);
    };
    s.schedule_at(0, recurse);
    s.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(s.now(), 40);
}

TEST(Simulator, StopHaltsTheLoop)
{
    Simulator s;
    int ran = 0;
    s.schedule_at(1, [&] {
        ++ran;
        s.stop();
    });
    s.schedule_at(2, [&] { ++ran; });
    s.run();
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(s.pending(), 1u);
}

TEST(Simulator, RecurringTaskReschedulesItselfAndStops)
{
    Simulator s;
    int ticks = 0;
    recurring(s, 0, [&](const Recur& self) {
        ++ticks;
        if (ticks < 5)
            self.again_in(10);
    });
    s.run();
    EXPECT_EQ(ticks, 5);
    EXPECT_EQ(s.now(), 40);
    EXPECT_EQ(s.pending(), 0u);  // The chain released its slab slot.
    // A fresh chain starts cleanly on the same kernel.
    recurring(s, 10, [&](const Recur&) { ++ticks; });
    s.run();
    EXPECT_EQ(ticks, 6);
}

TEST(Simulator, GenerationTagsRejectStaleIdsAfterSlotReuse)
{
    Simulator s;
    bool first_ran = false;
    bool second_ran = false;
    EventId stale = s.schedule_at(10, [&] { first_ran = true; });
    EXPECT_TRUE(s.cancel(stale));
    // The slab recycles the slot; the recycled id must differ and the
    // stale handle must not be able to cancel the new tenant.
    EventId fresh = s.schedule_at(20, [&] { second_ran = true; });
    EXPECT_NE(stale, fresh);
    EXPECT_FALSE(s.cancel(stale));
    s.run();
    EXPECT_FALSE(first_ran);
    EXPECT_TRUE(second_ran);
    // Handles of executed events are stale too.
    EXPECT_FALSE(s.cancel(fresh));
}

TEST(Simulator, CancellationStress100kInterleaved)
{
    Simulator s;
    Rng rng(123);
    std::vector<EventId> pendings;
    std::vector<EventId> stale;
    std::uint64_t ran = 0;
    const int kOps = 100000;
    for (int i = 0; i < kOps; ++i) {
        // Mix near (wheel-lane) and far (heap-lane) events.
        Time when = rng.chance(0.5)
            ? rng.uniform_int(0, 2 * kMillisecond)
            : rng.uniform_int(0, 60 * kSecond);
        pendings.push_back(s.schedule_at(when, [&ran] { ++ran; }));
        if (rng.chance(0.5) && !pendings.empty()) {
            std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(pendings.size()) - 1));
            EventId victim = pendings[pick];
            EXPECT_TRUE(s.cancel(victim));
            pendings[pick] = pendings.back();
            pendings.pop_back();
            stale.push_back(victim);
        }
    }
    // Every stale handle must be rejected, even after heavy slot reuse.
    for (EventId id : stale)
        EXPECT_FALSE(s.cancel(id));
    EXPECT_EQ(s.pending(), pendings.size());
    s.run();
    EXPECT_EQ(ran, pendings.size());
    EXPECT_EQ(s.pending(), 0u);
    // Slab never grew beyond the concurrent high-water mark.
    EXPECT_LT(s.slab_slots(), static_cast<std::size_t>(kOps));
    for (EventId id : pendings)
        EXPECT_FALSE(s.cancel(id));  // Executed -> stale.
}

TEST(Simulator, HeapCompactionBoundsTombstones)
{
    Simulator s;
    std::vector<EventId> ids;
    // Far-future events take the heap lane.
    for (int i = 0; i < 1000; ++i)
        ids.push_back(s.schedule_at(100 * kSecond + i, [] {}));
    ASSERT_EQ(s.heap_entries(), 1000u);
    // Cancel most: the heap must compact instead of accumulating
    // tombstones (trigger: cancelled > half of the queue).
    for (int i = 0; i < 999; ++i)
        EXPECT_TRUE(s.cancel(ids[static_cast<std::size_t>(i)]));
    EXPECT_EQ(s.pending(), 1u);
    EXPECT_LE(s.heap_entries(), 500u);
    EXPECT_EQ(s.run(), 1u);
}

TEST(Simulator, WheelCompactionBoundsTombstones)
{
    Simulator s;
    std::vector<EventId> ids;
    // Near-future events take the wheel lane.
    for (int i = 0; i < 1000; ++i)
        ids.push_back(s.schedule_at(i * kMicrosecond, [] {}));
    ASSERT_EQ(s.wheel_entries(), 1000u);
    for (int i = 0; i < 999; ++i)
        EXPECT_TRUE(s.cancel(ids[static_cast<std::size_t>(i)]));
    EXPECT_EQ(s.pending(), 1u);
    EXPECT_LE(s.wheel_entries(), 500u);
    EXPECT_EQ(s.run(), 1u);
}

/**
 * The determinism merge rule: with the timer wheel on or off, a
 * randomized schedule/cancel workload must execute the exact same
 * events in the exact same (time, seq) order.
 */
class WheelDeterminismProperty : public ::testing::TestWithParam<int>
{
  protected:
    struct TraceRecord
    {
        Time when;
        int tag;
        bool operator==(const TraceRecord&) const = default;
    };

    /** Random workload with reschedules + cancels; returns the trace. */
    std::vector<TraceRecord> run_workload(bool use_wheel)
    {
        KernelConfig cfg;
        cfg.use_timer_wheel = use_wheel;
        Simulator s(cfg);
        Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
        std::vector<TraceRecord> trace;
        std::vector<EventId> cancellable;
        int tag = 0;
        recurring(s, 0, [&](const Recur& self) {
            trace.push_back({s.now(), -1});
            if (s.now() < 2 * kSecond)
                self.again_in(3 * kMillisecond);
        });
        for (int i = 0; i < 2000; ++i) {
            // Spread across wheel ticks, lap boundaries and the heap
            // horizon so every lane and cascade path is exercised.
            Time when = rng.uniform_int(0, 12 * kSecond);
            int t = tag++;
            EventId id = s.schedule_at(when, [&trace, &s, t] {
                trace.push_back({s.now(), t});
            });
            if (rng.chance(0.25))
                cancellable.push_back(id);
            if (rng.chance(0.2) && !cancellable.empty()) {
                s.cancel(cancellable.back());
                cancellable.pop_back();
            }
        }
        s.run();
        return trace;
    }
};

TEST_P(WheelDeterminismProperty, WheelAndHeapOnlyKernelsAgree)
{
    auto with_wheel = run_workload(true);
    auto heap_only = run_workload(false);
    ASSERT_EQ(with_wheel.size(), heap_only.size());
    EXPECT_EQ(with_wheel, heap_only);
    // And the clock never went backwards.
    for (std::size_t i = 1; i < with_wheel.size(); ++i)
        EXPECT_GE(with_wheel[i].when, with_wheel[i - 1].when);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WheelDeterminismProperty,
                         ::testing::Range(1, 7));

/**
 * Same-tick property: events spawn bursts of children at
 * now + U(0, 300 us), so most land inside the cursor's 131 us tick and
 * sort before the ready run's tail (the same-tick lane), while random
 * cancels force compactions of every lane.
 */
class SameTickProperty : public ::testing::TestWithParam<int>
{
  protected:
    struct TraceRecord
    {
        Time when;
        int tag;
        bool operator==(const TraceRecord&) const = default;
    };

    std::vector<TraceRecord> run_workload(bool use_wheel)
    {
        KernelConfig cfg;
        cfg.use_timer_wheel = use_wheel;
        Simulator s(cfg);
        Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
        std::vector<TraceRecord> trace;
        std::vector<EventId> cancellable;
        int tag = 0;
        std::function<void(int)> spawn = [&](int depth) {
            const int children = static_cast<int>(rng.uniform_int(0, 4));
            for (int c = 0; c < children && tag < 20000; ++c) {
                const Time when =
                    s.now() + rng.uniform_int(0, 300 * kMicrosecond);
                const int t = tag++;
                EventId id = s.schedule_at(when, [&trace, &s, &spawn, t,
                                                  depth] {
                    trace.push_back({s.now(), t});
                    if (depth < 60)
                        spawn(depth + 1);
                });
                if (rng.chance(0.5))
                    cancellable.push_back(id);
            }
            if (rng.chance(0.03)) {
                // Mass cancel: tombstones outnumber live entries, so
                // the lanes compact.
                for (EventId id : cancellable)
                    s.cancel(id);
                cancellable.clear();
            } else if (!cancellable.empty() && rng.chance(0.3)) {
                s.cancel(cancellable.back());
                cancellable.pop_back();
            }
        };
        for (int root = 0; root < 40; ++root) {
            const int t = tag++;
            s.schedule_at(rng.uniform_int(0, 2 * kMillisecond),
                          [&trace, &s, &spawn, t] {
                              trace.push_back({s.now(), t});
                              spawn(0);
                          });
        }
        s.run();
        return trace;
    }
};

TEST_P(SameTickProperty, WheelAndHeapOnlyKernelsAgree)
{
    auto with_wheel = run_workload(true);
    auto heap_only = run_workload(false);
    ASSERT_GT(with_wheel.size(), 1000u);
    ASSERT_EQ(with_wheel.size(), heap_only.size());
    EXPECT_EQ(with_wheel, heap_only);
    for (std::size_t i = 1; i < with_wheel.size(); ++i)
        EXPECT_GE(with_wheel[i].when, with_wheel[i - 1].when);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SameTickProperty, ::testing::Range(1, 7));

TEST(InlineFn, SmallCapturesStayInline)
{
    int hits = 0;
    int* p = &hits;
    auto small = [p]() { ++*p; };
    static_assert(InlineFn::stores_inline<decltype(small)>());
    InlineFn f(small);
    ASSERT_TRUE(static_cast<bool>(f));
    f();
    EXPECT_EQ(hits, 1);
    // Move transfers the callable and nulls the source.
    InlineFn g(std::move(f));
    EXPECT_FALSE(static_cast<bool>(f));
    g();
    EXPECT_EQ(hits, 2);
}

TEST(InlineFn, OversizedCapturesFallBackToHeap)
{
    struct Big
    {
        char payload[96];
    };
    Big big{};
    big.payload[0] = 7;
    int seen = 0;
    auto fat = [big, &seen]() { seen = big.payload[0]; };
    static_assert(!InlineFn::stores_inline<decltype(fat)>());
    InlineFn f(fat);
    InlineFn g = std::move(f);
    g();
    EXPECT_EQ(seen, 7);
}

TEST(InlineFn, EmptyStdFunctionBecomesNull)
{
    std::function<void()> empty;
    InlineFn f(empty);
    EXPECT_FALSE(static_cast<bool>(f));
    // The kernel tolerates scheduling it: time advances, nothing runs.
    Simulator s;
    s.schedule_at(10, std::function<void()>());
    EXPECT_EQ(s.run(), 1u);
    EXPECT_EQ(s.now(), 10);
}

TEST(InlineFn, DestroysCaptureExactlyOnce)
{
    auto token = std::make_shared<int>(42);
    std::weak_ptr<int> watch = token;
    {
        InlineFn f([token]() {});
        token.reset();
        EXPECT_FALSE(watch.expired());
        InlineFn g = std::move(f);
        EXPECT_FALSE(watch.expired());
    }
    EXPECT_TRUE(watch.expired());
}

TEST(Simulator, RecurringShortTimersInterleaveWithFarEvents)
{
    // Heartbeat-style recurring timers (wheel lane) interleaved with
    // far-future one-shots (heap lane) must merge in time order.
    Simulator s;
    std::vector<Time> beats;
    recurring(s, 0, [&](const Recur& self) {
        beats.push_back(s.now());
        if (beats.size() < 50)
            self.again_in(kSecond);
    });
    bool far_ran = false;
    s.schedule_at(20 * kSecond + 1, [&] {
        far_ran = true;
        EXPECT_EQ(beats.size(), 21u);  // Beats 0..20 s already fired.
    });
    s.run();
    EXPECT_TRUE(far_ran);
    ASSERT_EQ(beats.size(), 50u);
    for (std::size_t i = 0; i < beats.size(); ++i)
        EXPECT_EQ(beats[i], static_cast<Time>(i) * kSecond);
}

TEST(Simulator, StepExecutesExactlyOne)
{
    Simulator s;
    int ran = 0;
    s.schedule_at(1, [&] { ++ran; });
    s.schedule_at(2, [&] { ++ran; });
    EXPECT_TRUE(s.step());
    EXPECT_EQ(ran, 1);
    EXPECT_TRUE(s.step());
    EXPECT_FALSE(s.step());
    EXPECT_EQ(ran, 2);
}

TEST(Rng, Deterministic)
{
    Rng a(7);
    Rng b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(Rng, ForkIndependence)
{
    Rng a(7);
    Rng child = a.fork();
    // Child stream should differ from the parent's continued stream.
    bool any_diff = false;
    for (int i = 0; i < 16; ++i) {
        if (a.uniform(0, 1) != child.uniform(0, 1))
            any_diff = true;
    }
    EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformBounds)
{
    Rng r(11);
    for (int i = 0; i < 1000; ++i) {
        double x = r.uniform(2.0, 3.0);
        EXPECT_GE(x, 2.0);
        EXPECT_LT(x, 3.0);
    }
}

TEST(Rng, ChanceEdgeCases)
{
    Rng r(3);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ExponentialMean)
{
    Rng r(5);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += r.exponential(2.0);
    EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, LognormalMedian)
{
    Rng r(5);
    Summary s;
    for (int i = 0; i < 20000; ++i)
        s.add(r.lognormal_median(10.0, 0.5));
    EXPECT_NEAR(s.median(), 10.0, 0.5);
}

TEST(Rng, BoundedParetoRange)
{
    Rng r(9);
    for (int i = 0; i < 5000; ++i) {
        double x = r.bounded_pareto(1.0, 8.0, 1.2);
        EXPECT_GE(x, 1.0 - 1e-9);
        EXPECT_LE(x, 8.0 + 1e-9);
    }
}

TEST(Rng, ShufflePreservesElements)
{
    Rng r(1);
    std::vector<int> v{1, 2, 3, 4, 5, 6};
    auto orig = v;
    r.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Rng, ChanceShortcutsDrawNothing)
{
    Rng r(3);
    Rng fresh(3);
    EXPECT_FALSE(r.chance(-0.5));
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
    EXPECT_TRUE(r.chance(2.0));
    EXPECT_EQ(r.next(), fresh.next());
}

TEST(Rng, NormalMeanAndStddev)
{
    Rng r(17);
    Summary s;
    for (int i = 0; i < 100000; ++i)
        s.add(r.normal(3.0, 2.0));
    // Standard errors: 0.006 on the mean, 0.005 on the deviation.
    EXPECT_NEAR(s.mean(), 3.0, 0.03);
    EXPECT_NEAR(s.stddev(), 2.0, 0.03);
}

TEST(Rng, UniformIntCoversSmallRangeWithoutBias)
{
    Rng r(19);
    std::array<int, 3> counts{};
    const int n = 30000;
    for (int i = 0; i < n; ++i) {
        std::int64_t x = r.uniform_int(-1, 1);
        ASSERT_GE(x, -1);
        ASSERT_LE(x, 1);
        ++counts[static_cast<std::size_t>(x + 1)];
    }
    // Pearson's chi-square on 2 degrees of freedom; 13.8 is its 99.9th
    // percentile.
    double chi2 = 0.0;
    for (int c : counts) {
        EXPECT_GT(c, 0);
        double d = c - n / 3.0;
        chi2 += d * d / (n / 3.0);
    }
    EXPECT_LT(chi2, 13.8);
}

TEST(Rng, ChanceFrequency)
{
    Rng r(23);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.3) ? 1 : 0;
    // Standard error 0.0015.
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.006);
}

// --- Golden values ---------------------------------------------------
//
// The first eight results of the engine, of every variate and of a
// fork() child, each from a fresh Rng, for seeds 1 and 42. They pin
// the algorithms, which are the repo's own, so they hold under any
// standard library. Values computed through libm's log, exp or pow
// compare within 4 ULP (EXPECT_DOUBLE_EQ), the rounding a different
// libm may change; every other value compares exactly.

struct Golden
{
    std::uint64_t seed;
    std::array<std::uint64_t, 8> raw;
    std::array<double, 8> uniform;            // uniform(-2, 3)
    std::array<std::int64_t, 8> uniform_int;  // uniform_int(-5, 1000)
    std::array<bool, 8> chance;               // chance(0.3)
    std::array<double, 8> exponential;        // exponential(2)
    std::array<double, 8> normal;             // normal(10, 3): four pairs
    std::array<double, 8> lognormal;          // lognormal_median(50, 0.5)
    std::array<double, 8> pareto;             // bounded_pareto(1, 8, 1.2)
    std::array<std::uint64_t, 8> fork;        // fork(), then its raw draws
};

const Golden kGolden[] = {
    {1,
     {0xb3f2af6d0fc710c5u, 0x853b559647364ceau, 0x92f89756082a4514u,
      0x642e1c7bc266a3a7u, 0xb27a48e29a233673u, 0x24c123126ffda722u,
      0x123004ef8df510e6u, 0x61954dcc47b1e89du},
     {1.5146091657942522, 0.60218309969428452, 0.87052850009861249,
      -0.043356989790477751, 1.4858920827998077, -1.282139816277819,
      -1.6447739196539384, -0.09407776654691169},
     {702, 518, 572, 388, 696, 139, 66, 378},
     {false, false, false, false, false, true, true, false},
     {2.4275199735799791, 1.4697584278251492, 1.7071281712243507,
      0.99295346663894524, 2.3892229608690845, 0.30997014140607176,
      0.147390426234597, 0.95989605193709759},
     {15.653188314363931, 10.569342683460791, 13.906270752107982,
      4.2716970041249267, 11.31496274534623, 7.6230182732085492,
      8.0281172402934828, 9.4538111010004151},
     {128.28072901694981, 54.976919553299062, 95.877192791026573,
      19.246049895603711, 62.251551764995206, 33.644829341417463,
      35.994850221125759, 45.649448333152471},
     {2.3700700537995063, 1.7176694420932206, 1.8653708427509634,
      1.4487160683927758, 2.3411487600892289, 1.1249202555818669,
      1.05778091311723, 1.4314148062136269},
     {0x2c83f301eb3f9c90u, 0x4e876d9fae53f0b8u, 0x516ba84e3a541549u,
      0x18a46d9d1df806fcu, 0x1bd0300adeab8c41u, 0x7214c066a1fe58a2u,
      0x5f0bbff67811c95cu, 0xc91a3e119a09992cu}},
    {42,
     {0x15780b2e0c2ec716u, 0x6104d9866d113a7eu, 0xae17533239e499a1u,
      0xecb8ad4703b360a1u, 0xfde6dc7fe2ec5e64u, 0xc50da53101795238u,
      0xb82154855a65ddb2u, 0xd99a2743ebe60087u},
     {-1.5806851447005892, -0.10509874668665686, 1.4002170551406969,
      2.6234647266269384, 2.9590195714105141, 1.8486973021712121,
      1.596292889389578, 2.2500422195548637},
     {79, 376, 679, 925, 992, 769, 718, 850},
     {true, false, false, false, false, false, false, false},
     {0.17517866116683514, 0.9527847901575448, 2.2791399037077551,
      5.1723629219736846, 9.6081971803127324, 2.9370876609004468,
      2.5406424785381048, 3.7943525584203908},
     {7.8213425852656435, 9.366409245304121, 10.664868104510781,
      11.568315063268043, 11.39253193048742, 12.222936675059668,
      14.428748383055245, 11.41227735980803},
     {34.775511143963492, 44.989293818166566, 55.859206551365482,
      64.936433764011639, 63.061576922825537, 72.422168789429278,
      104.60043767937883, 63.269448429561891},
     {1.0690000974174749, 1.4277153542240051, 2.2592919076114071,
      4.8176179907409198, 7.4388736542673941, 2.7756431717000165,
      2.4568144678978956, 3.5304596238603665},
     {0x8ee445d14631c453u, 0x106fa1a13296fe62u, 0x729a768806244ce5u,
      0x91d83a17b20e6585u, 0x38c33df442fc70fdu, 0xe33cd1b92e2e42f1u,
      0x3162280b9dcfa5efu, 0xb4f9f0541228b854u}},
};

/** The first eight results of @p draw on a fresh Rng(@p seed). */
template <typename T, typename Draw>
std::array<T, 8>
first_eight(std::uint64_t seed, Draw draw)
{
    Rng r(seed);
    std::array<T, 8> out{};
    for (T& x : out)
        x = draw(r);
    return out;
}

void
expect_within_4_ulp(const std::array<double, 8>& got,
                    const std::array<double, 8>& want, std::uint64_t seed)
{
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_DOUBLE_EQ(got[i], want[i]) << "seed " << seed << " draw " << i;
}

TEST(RngGolden, RawEngine)
{
    for (const Golden& g : kGolden)
        EXPECT_EQ(first_eight<std::uint64_t>(g.seed,
                                             [](Rng& r) { return r.next(); }),
                  g.raw)
            << "seed " << g.seed;
}

TEST(RngGolden, Uniform)
{
    for (const Golden& g : kGolden)
        EXPECT_EQ(first_eight<double>(
                      g.seed, [](Rng& r) { return r.uniform(-2.0, 3.0); }),
                  g.uniform)
            << "seed " << g.seed;
}

TEST(RngGolden, UniformInt)
{
    for (const Golden& g : kGolden)
        EXPECT_EQ(first_eight<std::int64_t>(
                      g.seed, [](Rng& r) { return r.uniform_int(-5, 1000); }),
                  g.uniform_int)
            << "seed " << g.seed;
}

TEST(RngGolden, Chance)
{
    for (const Golden& g : kGolden)
        EXPECT_EQ(first_eight<bool>(g.seed,
                                    [](Rng& r) { return r.chance(0.3); }),
                  g.chance)
            << "seed " << g.seed;
}

TEST(RngGolden, Exponential)
{
    for (const Golden& g : kGolden)
        expect_within_4_ulp(
            first_eight<double>(g.seed,
                                [](Rng& r) { return r.exponential(2.0); }),
            g.exponential, g.seed);
}

TEST(RngGolden, NormalBothHalvesOfEachPair)
{
    for (const Golden& g : kGolden)
        expect_within_4_ulp(
            first_eight<double>(g.seed,
                                [](Rng& r) { return r.normal(10.0, 3.0); }),
            g.normal, g.seed);
}

TEST(RngGolden, LognormalMedian)
{
    for (const Golden& g : kGolden)
        expect_within_4_ulp(first_eight<double>(g.seed,
                                                [](Rng& r) {
                                                    return r.lognormal_median(
                                                        50.0, 0.5);
                                                }),
                            g.lognormal, g.seed);
}

TEST(RngGolden, BoundedPareto)
{
    for (const Golden& g : kGolden)
        expect_within_4_ulp(first_eight<double>(g.seed,
                                                [](Rng& r) {
                                                    return r.bounded_pareto(
                                                        1.0, 8.0, 1.2);
                                                }),
                            g.pareto, g.seed);
}

TEST(RngGolden, ForkChild)
{
    for (const Golden& g : kGolden) {
        Rng parent(g.seed);
        Rng child = parent.fork();
        std::array<std::uint64_t, 8> got{};
        for (std::uint64_t& x : got)
            x = child.next();
        EXPECT_EQ(got, g.fork) << "seed " << g.seed;
    }
}

TEST(Summary, BasicMoments)
{
    Summary s;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        s.add(x);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
    EXPECT_NEAR(s.stddev(), 1.118, 0.001);
}

TEST(Summary, EmptyIsSafe)
{
    Summary s;
    EXPECT_TRUE(s.empty());
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
}

TEST(Summary, PercentileInterpolation)
{
    Summary s;
    for (int i = 1; i <= 100; ++i)
        s.add(static_cast<double>(i));
    EXPECT_NEAR(s.median(), 50.5, 1e-9);
    EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
    EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
    EXPECT_NEAR(s.p99(), 99.01, 0.01);
}

TEST(Summary, MergeCombinesSamples)
{
    Summary a, b;
    a.add(1.0);
    a.add(2.0);
    b.add(3.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(Summary, PercentileAfterIncrementalAdds)
{
    Summary s;
    s.add(10.0);
    EXPECT_DOUBLE_EQ(s.median(), 10.0);
    s.add(20.0);  // Sorted cache must invalidate.
    EXPECT_DOUBLE_EQ(s.max(), 20.0);
}

TEST(TimeSeries, WindowMeans)
{
    TimeSeries ts;
    ts.add(0, 1.0);
    ts.add(kSecond / 2, 3.0);
    ts.add(kSecond, 10.0);
    auto means = ts.window_means(kSecond, 2 * kSecond);
    ASSERT_EQ(means.size(), 2u);
    EXPECT_DOUBLE_EQ(means[0], 2.0);
    EXPECT_DOUBLE_EQ(means[1], 10.0);
}

TEST(RateMeter, RatesPerWindow)
{
    RateMeter m(kSecond);
    m.add(0, 100.0);
    m.add(kSecond / 2, 100.0);
    m.add(3 * kSecond / 2, 50.0);
    auto rates = m.rates(3 * kSecond);
    ASSERT_EQ(rates.size(), 3u);
    EXPECT_DOUBLE_EQ(rates[0], 200.0);
    EXPECT_DOUBLE_EQ(rates[1], 50.0);
    EXPECT_DOUBLE_EQ(rates[2], 0.0);
    EXPECT_DOUBLE_EQ(m.total(), 250.0);
}

/** Property sweep: percentiles are monotone in p for random data. */
class SummaryPercentileProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(SummaryPercentileProperty, MonotoneInP)
{
    Rng r(static_cast<std::uint64_t>(GetParam()));
    Summary s;
    for (int i = 0; i < 500; ++i)
        s.add(r.lognormal_median(5.0, 1.0));
    double prev = s.percentile(0);
    for (double p = 5; p <= 100; p += 5) {
        double cur = s.percentile(p);
        EXPECT_GE(cur, prev);
        prev = cur;
    }
    EXPECT_GE(s.mean(), s.min());
    EXPECT_LE(s.mean(), s.max());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SummaryPercentileProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/** Property: the simulator never runs events out of order. */
class EventOrderProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(EventOrderProperty, MonotoneClock)
{
    Rng r(static_cast<std::uint64_t>(GetParam()) * 977);
    Simulator s;
    Time last = -1;
    bool ok = true;
    for (int i = 0; i < 300; ++i) {
        Time when = static_cast<Time>(r.uniform_int(0, 10000));
        s.schedule_at(when, [&s, &last, &ok] {
            if (s.now() < last)
                ok = false;
            last = s.now();
        });
    }
    s.run();
    EXPECT_TRUE(ok);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventOrderProperty,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace hivemind::sim
