/**
 * @file
 * Tests for the queueing primitives and the analytic swarm model
 * (src/analytic).
 */

#include <gtest/gtest.h>

#include "analytic/model.hpp"
#include "analytic/queueing.hpp"
#include "apps/appspec.hpp"
#include "platform/fnv.hpp"

namespace hivemind::analytic {
namespace {

TEST(Queueing, ErlangCBasics)
{
    // Single server: Erlang-C reduces to rho.
    EXPECT_NEAR(erlang_c(1, 0.5), 0.5, 1e-9);
    EXPECT_NEAR(erlang_c(1, 0.9), 0.9, 1e-9);
    // Overload saturates at 1.
    EXPECT_DOUBLE_EQ(erlang_c(2, 3.0), 1.0);
    // No load: no waiting.
    EXPECT_DOUBLE_EQ(erlang_c(4, 0.0), 0.0);
    // More servers at equal load wait less.
    EXPECT_LT(erlang_c(4, 2.0), erlang_c(2, 1.8));
}

TEST(Queueing, Mm1Sojourn)
{
    EXPECT_NEAR(mm1_sojourn(0.5, 1.0), 2.0, 1e-9);
    EXPECT_LT(mm1_sojourn(1.5, 1.0), 0.0);  // Unstable flagged.
}

TEST(Queueing, MmcMatchesMm1AtOneServer)
{
    EXPECT_NEAR(mmc_sojourn(0.5, 1.0, 1), mm1_sojourn(0.5, 1.0), 1e-9);
}

TEST(Queueing, MmcScalesWithServers)
{
    // 2 servers at half the per-server load wait less than 1.
    double one = mmc_sojourn(0.8, 1.0, 1);
    double two = mmc_sojourn(1.6, 1.0, 2);
    EXPECT_GT(one, 0.0);
    EXPECT_GT(two, 0.0);
    EXPECT_LT(two, one);
}

TEST(Queueing, ExponentialPercentile)
{
    EXPECT_NEAR(exponential_percentile(1.0, 50.0), 0.6931, 1e-3);
    EXPECT_NEAR(exponential_percentile(1.0, 99.0), 4.6052, 1e-3);
    EXPECT_DOUBLE_EQ(exponential_percentile(0.0, 99.0), 0.0);
}

TEST(Queueing, SaturatedSojournGrowsWithOverload)
{
    double stable = saturated_sojourn(0.5, 1.0, 1, 120.0);
    double near = saturated_sojourn(0.96, 1.0, 1, 120.0);
    double over = saturated_sojourn(2.0, 1.0, 1, 120.0);
    double way_over = saturated_sojourn(4.0, 1.0, 1, 120.0);
    EXPECT_LT(stable, near);
    EXPECT_LT(near, over);
    EXPECT_LT(over, way_over);
    EXPECT_GT(over, 30.0);  // Backlog over a 2-minute horizon.
}

/** The workload the model tests share: one 220 ms task per second on
 *  a 2 MiB frame, with a 16 KiB result and a 256 KiB hand-off. */
AnalyticInput
input_on(const platform::PlatformOptions& platform)
{
    AnalyticInput in;
    in.app.work_core_ms = 220.0;
    in.app.input_bytes = 2u << 20;
    in.app.output_bytes = 16u << 10;
    in.app.inter_bytes = 256u << 10;
    in.platform = platform;
    return in;
}

TEST(Model, CentralizedUsesMoreBandwidthThanHiveMind)
{
    auto centr =
        evaluate(input_on(platform::PlatformOptions::centralized_faas()));
    auto hive = evaluate(input_on(platform::PlatformOptions::hivemind()));
    auto distr =
        evaluate(input_on(platform::PlatformOptions::distributed_edge()));
    // Fig. 14b ordering: centralized > HiveMind > distributed.
    EXPECT_GT(centr.bandwidth_MBps, hive.bandwidth_MBps);
    EXPECT_GT(hive.bandwidth_MBps, distr.bandwidth_MBps);
}

TEST(Model, DistributedSlowerForHeavyCompute)
{
    AnalyticInput in = input_on(platform::PlatformOptions::distributed_edge());
    in.app.work_core_ms = 350.0;
    in.app.task_rate_hz = 0.4;  // Keep the edge core stable.
    auto distr = evaluate(in);
    AnalyticInput in2 = in;
    in2.platform = platform::PlatformOptions::centralized_faas();
    auto centr = evaluate(in2);
    EXPECT_GT(distr.mean_latency_s, centr.mean_latency_s);
}

TEST(Model, CentralizedCollapsesAtScale)
{
    // Fig. 1 / 17b: with 1000+ devices the centralized stack
    // saturates (controller + network), HiveMind does not.
    AnalyticInput in = input_on(platform::PlatformOptions::centralized_faas());
    in.devices = 1000;
    in.scale_infra = true;
    auto centr = evaluate(in);
    AnalyticInput in2 = in;
    in2.platform = platform::PlatformOptions::hivemind();
    auto hive = evaluate(in2);
    EXPECT_GT(centr.tail_latency_s, 10.0 * hive.tail_latency_s);
    EXPECT_GT(centr.max_utilization, 0.97);
    EXPECT_LT(hive.max_utilization, 0.97);
}

TEST(Model, TailAboveMean)
{
    for (auto opt : {platform::PlatformOptions::centralized_faas(),
                     platform::PlatformOptions::distributed_edge(),
                     platform::PlatformOptions::hivemind()}) {
        auto out = evaluate(input_on(opt));
        EXPECT_GT(out.tail_latency_s, out.mean_latency_s);
        EXPECT_GT(out.mean_latency_s, 0.0);
    }
}

TEST(Model, BatteryDominatedByMotion)
{
    auto out = evaluate(input_on(platform::PlatformOptions::hivemind()));
    // 80 W motion on a 60 kJ pack is ~8%/min; idle adds a little.
    EXPECT_GT(out.battery_pct_per_min, 7.0);
    EXPECT_LT(out.battery_pct_per_min, 12.0);
}

TEST(Analytic, OutputsArePinned)
{
    // Pins every output of the twin: S1-S10 on the four platform
    // kinds, at the testbed's 16 drones and at 1024 drones with the
    // infrastructure scaled. A change to any testbed number the twin
    // reads, or to the order of an expression, moves this digest.
    const platform::PlatformOptions presets[] = {
        platform::PlatformOptions::centralized_iaas(),
        platform::PlatformOptions::centralized_faas(),
        platform::PlatformOptions::distributed_edge(),
        platform::PlatformOptions::hivemind(),
    };
    std::uint64_t hash = platform::fnv::kBasis;
    for (const apps::AppSpec& app : apps::all_apps()) {
        for (const platform::PlatformOptions& options : presets) {
            for (std::size_t devices : {16u, 1024u}) {
                AnalyticInput in;
                in.devices = devices;
                in.scale_infra = devices > 16;
                in.app = app;
                in.platform = options;
                AnalyticOutput out = evaluate(in);
                for (double x : {out.mean_latency_s, out.tail_latency_s,
                                 out.bandwidth_MBps, out.battery_pct_per_min,
                                 out.max_utilization}) {
                    platform::fnv::mix(hash, platform::fnv::bits(x));
                }
            }
        }
    }
    EXPECT_EQ(hash, 0x0366e7a093e22414ull) << std::hex << "0x" << hash;
}

/** Property: latency is monotone in offered load (fixed capacity). */
class LoadMonotonicity : public ::testing::TestWithParam<int>
{
};

TEST_P(LoadMonotonicity, MoreDevicesNeverFaster)
{
    double prev = 0.0;
    platform::PlatformOptions opt =
        GetParam() == 0 ? platform::PlatformOptions::centralized_faas()
                        : platform::PlatformOptions::hivemind();
    for (std::size_t n : {4u, 8u, 16u, 32u, 64u}) {
        AnalyticInput in = input_on(opt);
        in.devices = n;
        auto out = evaluate(in);
        EXPECT_GE(out.mean_latency_s, prev * 0.999);
        prev = out.mean_latency_s;
    }
}

INSTANTIATE_TEST_SUITE_P(Platforms, LoadMonotonicity,
                         ::testing::Values(0, 1));

}  // namespace
}  // namespace hivemind::analytic
