/**
 * @file
 * End-to-end determinism regression tests for the event kernel.
 *
 * The kernel overhaul (slab slots, inline callables, timer-wheel fast
 * lane) must preserve the ordering contract bit-for-bit: two runs of
 * the same scenario with the same seed produce identical metrics and
 * identical sample *traces* (insertion order included — Summary keeps
 * samples in the order events recorded them, so any kernel reordering
 * shows up as a checksum mismatch even when the sorted percentiles
 * would agree). The fig01-style scenario exercises every lane the
 * kernel has: short recurring timers (heartbeats, battery, link
 * ticks) ride the wheel, far-future guards sit on the heap, and retry
 * timeouts are cancelled when responses win the race.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "platform/metrics.hpp"
#include "platform/options.hpp"
#include "platform/scenario.hpp"
#include "platform/sharded_scenario.hpp"

namespace {

using namespace hivemind;

/** FNV-1a over a stream of 64-bit words. */
class Checksum
{
  public:
    void add(std::uint64_t word)
    {
        hash_ ^= word;
        hash_ *= 0x100000001b3ull;
    }

    void add(double value)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &value, sizeof bits);
        add(bits);
    }

    void add(const sim::Summary& s)
    {
        add(static_cast<std::uint64_t>(s.count()));
        for (double v : s.samples())
            add(v);  // Insertion order: an event-order trace.
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** Order-sensitive digest of everything a run measured. */
std::uint64_t
run_checksum(const platform::RunMetrics& m)
{
    Checksum c;
    c.add(m.task_latency_s);
    c.add(m.network_s);
    c.add(m.mgmt_s);
    c.add(m.data_s);
    c.add(m.exec_s);
    c.add(m.battery_pct);
    c.add(m.job_latency_s);
    c.add(m.bandwidth_MBps);
    c.add(m.completion_s);
    c.add(static_cast<std::uint64_t>(m.completed));
    c.add(m.goal_fraction);
    c.add(m.tasks_completed);
    c.add(m.tasks_shed);
    c.add(m.cold_starts);
    c.add(m.warm_starts);
    c.add(m.faults);
    c.add(m.respawns);
    c.add(m.cloud_rpc_cpu_s);
    return c.value();
}

/** Fig. 1 scenario A, shrunk to unit-test scale (same code paths). */
platform::ScenarioConfig
fig01_scenario()
{
    platform::ScenarioConfig sc;
    sc.kind = platform::ScenarioKind::StationaryItems;
    sc.field_size_m = 48.0;
    sc.targets = 6;
    sc.time_cap = 300 * sim::kSecond;
    return sc;
}

platform::DeploymentConfig
fig01_deployment(std::uint64_t seed)
{
    platform::DeploymentConfig cfg;
    cfg.devices = 8;
    cfg.servers = 4;
    cfg.cores_per_server = 8;
    cfg.seed = seed;
    return cfg;
}

platform::RunMetrics
run_once(const platform::PlatformOptions& opt, sim::Time inject_at)
{
    platform::ScenarioConfig sc = fig01_scenario();
    // A mid-run device crash exercises cancellation at scale: pending
    // heartbeats, retries and timers of the dead device are torn down
    // while wheel and heap events from the rest interleave.
    if (inject_at > 0)
        sc.faults.device_crash(inject_at, 2);
    return platform::run_scenario(sc, opt, fig01_deployment(42));
}

// The platform name is a std::string so the test name shows the value,
// not a pointer address that changes from run to run.
class DeterminismTest
    : public ::testing::TestWithParam<std::tuple<std::string, sim::Time>>
{
  protected:
    platform::PlatformOptions options() const
    {
        if (std::get<0>(GetParam()) == "hivemind")
            return platform::PlatformOptions::hivemind();
        return platform::PlatformOptions::centralized_faas();
    }
};

TEST_P(DeterminismTest, SameSeedRunsAreByteIdentical)
{
    const sim::Time inject_at = std::get<1>(GetParam());
    platform::RunMetrics a = run_once(options(), inject_at);
    platform::RunMetrics b = run_once(options(), inject_at);

    EXPECT_EQ(a.tasks_completed, b.tasks_completed);
    EXPECT_EQ(a.cold_starts, b.cold_starts);
    EXPECT_EQ(a.faults, b.faults);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_DOUBLE_EQ(a.completion_s, b.completion_s);
    EXPECT_EQ(run_checksum(a), run_checksum(b))
        << "same-seed runs diverged: the kernel broke (time, seq) "
           "ordering somewhere";
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, DeterminismTest,
    ::testing::Values(
        std::tuple<std::string, sim::Time>{"hivemind", 0},
        std::tuple<std::string, sim::Time>{"hivemind",
                                           60 * sim::kSecond},
        std::tuple<std::string, sim::Time>{"centralized", 0}));

/**
 * The sharded runtime extends the contract across kernels: the fig01
 * scenario on run_scenario_sharded produces the same checksum at
 * shard counts {1, 2, 4} — including a mid-run device crash whose
 * owner shard changes with N, and a controller failover whose
 * re-registration wave crosses every shard boundary. The deeper
 * shard_test.cpp suite varies the chaos; this is the byte-identity
 * gate next to the single-kernel one above.
 */
TEST(ShardDeterminismTest, ShardCountDoesNotChangeTheRun)
{
    platform::ScenarioConfig sc = fig01_scenario();
    sc.time_cap = 30 * sim::kSecond;
    sc.faults.device_crash(6 * sim::kSecond, 2, 8 * sim::kSecond);
    sc.faults.controller_crash(15 * sim::kSecond);
    auto run = [&sc](int shards) {
        return platform::run_scenario_sharded(
            sc, platform::PlatformOptions::hivemind(), fig01_deployment(42),
            shards);
    };
    platform::ShardedScenarioResult one = run(1);
    platform::ShardedScenarioResult two = run(2);
    platform::ShardedScenarioResult four = run(4);
    EXPECT_EQ(two.checksum, one.checksum);
    EXPECT_EQ(four.checksum, one.checksum);
    EXPECT_EQ(run_checksum(four.metrics), run_checksum(one.metrics));
    EXPECT_EQ(one.metrics.recovery.device_crashes, 1u);
    EXPECT_EQ(one.metrics.recovery.device_rejoins, 1u);
    EXPECT_EQ(one.metrics.recovery.controller_failovers, 1u);
}

/** Same seed, same shard count: the sharded engine replays exactly. */
TEST(ShardDeterminismTest, ShardedScenarioRepeatsByteIdentical)
{
    platform::ScenarioConfig sc = fig01_scenario();
    sc.shards = 2;
    platform::RunMetrics a = platform::run_scenario(
        sc, platform::PlatformOptions::hivemind(), fig01_deployment(42));
    platform::RunMetrics b = platform::run_scenario(
        sc, platform::PlatformOptions::hivemind(), fig01_deployment(42));
    EXPECT_EQ(run_checksum(a), run_checksum(b));
    EXPECT_GT(a.tasks_completed, 0u);
}

/**
 * Chaos on four shards replays exactly: the HA checkpoint RPCs, the
 * Gilbert-Elliott loss chains, and the degraded-mode drains all come
 * off seeded Rngs and shard-local event order, so two runs of the
 * same plan agree on the engine digest and on every recovery counter.
 */
TEST(ShardDeterminismTest, ShardedChaosReplaysByteIdentical)
{
    auto run = []() {
        platform::ScenarioConfig sc = fig01_scenario();
        sc.time_cap = 45 * sim::kSecond;
        sc.targets = 50;  // The cap ends the run.
        sc.faults.device_crash(3 * sim::kSecond, 2, 4 * sim::kSecond)
            .link_burst(5 * sim::kSecond, 6 * sim::kSecond, 0.9)
            .controller_crash(12 * sim::kSecond)
            .controller_partition(25 * sim::kSecond, 3 * sim::kSecond);
        return platform::run_scenario_sharded(
            sc, platform::PlatformOptions::hivemind(), fig01_deployment(42),
            4);
    };
    platform::ShardedScenarioResult a = run();
    platform::ShardedScenarioResult b = run();
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(run_checksum(a.metrics), run_checksum(b.metrics));
    const fault::RecoveryMetrics& ra = a.metrics.recovery;
    const fault::RecoveryMetrics& rb = b.metrics.recovery;
    EXPECT_EQ(ra.controller_failovers, rb.controller_failovers);
    EXPECT_EQ(ra.checkpoints_taken, rb.checkpoints_taken);
    EXPECT_EQ(ra.checkpoint_bytes, rb.checkpoint_bytes);
    EXPECT_EQ(ra.frames_buffered_degraded, rb.frames_buffered_degraded);
    EXPECT_EQ(ra.buffered_frames_drained, rb.buffered_frames_drained);
    EXPECT_EQ(ra.wireless_retransmissions, rb.wireless_retransmissions);
    ASSERT_EQ(ra.controller_mttr_s.count(), rb.controller_mttr_s.count());
    if (!ra.controller_mttr_s.empty()) {
        EXPECT_DOUBLE_EQ(ra.controller_mttr_s.mean(),
                         rb.controller_mttr_s.mean());
    }
    // The chaos actually ran.
    EXPECT_EQ(ra.controller_crashes, 1u);
    EXPECT_EQ(ra.link_burst_windows, 1u);
}

/** A small rover mission with a crash that interrupts a leg mid-drive. */
platform::ScenarioConfig
rover_scenario(platform::ScenarioKind kind)
{
    platform::ScenarioConfig sc;
    sc.kind = kind;
    sc.field_size_m = 48.0;
    sc.course_legs = 4;
    sc.maze_side = 5;
    sc.time_cap = 300 * sim::kSecond;
    sc.faults.device_crash(5 * sim::kSecond, 2, 6 * sim::kSecond);
    return sc;
}

/**
 * Rover missions replay byte-identically: leg state machines, the
 * crash/rejoin resume, and the pipeline round trips all come off
 * seeded Rngs and kernel event order.
 */
TEST(RoverDeterminismTest, SameSeedRoverRunsAreByteIdentical)
{
    for (platform::ScenarioKind kind :
         {platform::ScenarioKind::TreasureHunt,
          platform::ScenarioKind::RoverMaze}) {
        auto once = [kind]() {
            return platform::run(rover_scenario(kind),
                                 platform::PlatformOptions::hivemind(),
                                 fig01_deployment(42));
        };
        platform::RunResult a = once();
        platform::RunResult b = once();
        EXPECT_EQ(a.checksum, b.checksum) << platform::to_string(kind);
        EXPECT_EQ(run_checksum(a.metrics), run_checksum(b.metrics))
            << platform::to_string(kind);
        EXPECT_GT(a.metrics.job_latency_s.count(), 0u);
    }
}

}  // namespace
