/**
 * @file
 * Cross-cutting invariant sweeps: properties that must hold for every
 * platform, scenario, and application, checked with parameterized
 * gtest over the full configuration matrix.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "analytic/model.hpp"
#include "platform/scenario.hpp"
#include "platform/single_phase.hpp"

namespace hivemind {
namespace {

platform::PlatformOptions
platform_by_index(int i)
{
    switch (i) {
      case 0:
        return platform::PlatformOptions::centralized_iaas();
      case 1:
        return platform::PlatformOptions::centralized_faas();
      case 2:
        return platform::PlatformOptions::distributed_edge();
      default:
        return platform::PlatformOptions::hivemind();
    }
}

// ---------------------------------------------------------------------
// Single-phase invariants across (platform x app)
// ---------------------------------------------------------------------

// App ids are std::string, not const char*: gtest prints each parameter
// into the test name, and a pointer would print as a load address that
// changes from run to run.
class JobInvariants
    : public ::testing::TestWithParam<std::tuple<int, std::string>>
{
};

TEST_P(JobInvariants, MetricsAreWellFormed)
{
    auto [platform_idx, app_id] = GetParam();
    platform::PlatformOptions opt = platform_by_index(platform_idx);
    platform::DeploymentConfig dep;
    dep.devices = 6;
    dep.servers = 4;
    dep.cores_per_server = 16;
    dep.seed = 77;
    platform::JobConfig job;
    job.duration = 15 * sim::kSecond;
    job.drain = 30 * sim::kSecond;
    platform::RunMetrics m =
        platform::run_single_phase(apps::app_by_id(app_id), opt, dep, job);

    // Tasks complete and latencies are positive and ordered.
    ASSERT_GT(m.tasks_completed, 0u) << opt.label;
    EXPECT_GT(m.task_latency_s.min(), 0.0);
    EXPECT_LE(m.task_latency_s.median(), m.task_latency_s.p99());
    EXPECT_LE(m.task_latency_s.p99(), m.task_latency_s.max() + 1e-12);

    // Stage medians are non-negative and bounded by the total.
    for (const sim::Summary* s :
         {&m.network_s, &m.mgmt_s, &m.data_s, &m.exec_s}) {
        EXPECT_GE(s->min(), 0.0);
        EXPECT_LE(s->median(), m.task_latency_s.max() + 1e-9);
    }
    // Stage means compose the mean total (same task population).
    double parts = m.network_s.mean() + m.mgmt_s.mean() + m.data_s.mean() +
        m.exec_s.mean();
    EXPECT_NEAR(parts, m.task_latency_s.mean(),
                0.05 * m.task_latency_s.mean() + 1e-3);

    // Battery is a percentage per device.
    EXPECT_EQ(m.battery_pct.count(), 6u);
    EXPECT_GE(m.battery_pct.min(), 0.0);
    EXPECT_LE(m.battery_pct.max(), 100.0);

    // Bandwidth is non-negative and zero-ish only for distributed.
    EXPECT_GE(m.bandwidth_MBps.min(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, JobInvariants,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values("S1", "S4", "S7", "S10")),
    [](const ::testing::TestParamInfo<std::tuple<int, std::string>>& info) {
        return std::string(platform::to_string(
                   platform_by_index(std::get<0>(info.param)).kind)) +
            "_" + std::get<1>(info.param);
    });

// ---------------------------------------------------------------------
// Scenario invariants across (platform x scenario)
// ---------------------------------------------------------------------

class ScenarioInvariants
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(ScenarioInvariants, RunsToAWellFormedEnd)
{
    auto [platform_idx, scenario_idx] = GetParam();
    platform::PlatformOptions opt = platform_by_index(platform_idx);
    platform::ScenarioConfig sc;
    sc.kind = scenario_idx == 0 ? platform::ScenarioKind::StationaryItems
                                : platform::ScenarioKind::MovingPeople;
    sc.field_size_m = 48.0;
    sc.targets = 6;
    sc.time_cap = 400 * sim::kSecond;
    platform::DeploymentConfig dep;
    dep.devices = 6;
    dep.servers = 4;
    dep.cores_per_server = 16;
    dep.seed = 99;
    platform::RunMetrics m = platform::run_scenario(sc, opt, dep);

    EXPECT_GE(m.goal_fraction, 0.0);
    EXPECT_LE(m.goal_fraction, 1.0);
    EXPECT_GT(m.completion_s, 0.0);
    EXPECT_LE(m.completion_s, 400.0 + 11.0);
    if (m.completed) {
        EXPECT_DOUBLE_EQ(m.goal_fraction, 1.0);
    }
    EXPECT_GT(m.tasks_completed, 0u);
    EXPECT_LE(m.battery_pct.max(), 100.0);
    EXPECT_GE(m.detect_correct_pct, 0.0);
    EXPECT_LE(m.detect_correct_pct +
                  m.detect_fn_pct + m.detect_fp_pct,
              100.0 + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Matrix, ScenarioInvariants,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(0, 1)));

// ---------------------------------------------------------------------
// Determinism across the whole matrix
// ---------------------------------------------------------------------

class DeterminismSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(DeterminismSweep, IdenticalSeedsIdenticalRuns)
{
    platform::PlatformOptions opt = platform_by_index(GetParam());
    platform::DeploymentConfig dep;
    dep.devices = 5;
    dep.servers = 4;
    dep.cores_per_server = 16;
    dep.seed = 1234;
    platform::JobConfig job;
    job.duration = 10 * sim::kSecond;
    platform::RunMetrics a = platform::run_single_phase(
        apps::app_by_id("S5"), opt, dep, job);
    platform::RunMetrics b = platform::run_single_phase(
        apps::app_by_id("S5"), opt, dep, job);
    EXPECT_EQ(a.tasks_completed, b.tasks_completed);
    EXPECT_DOUBLE_EQ(a.task_latency_s.mean(), b.task_latency_s.mean());
    EXPECT_DOUBLE_EQ(a.task_latency_s.p99(), b.task_latency_s.p99());
    EXPECT_DOUBLE_EQ(a.battery_pct.mean(), b.battery_pct.mean());
    EXPECT_DOUBLE_EQ(a.bandwidth_MBps.mean(), b.bandwidth_MBps.mean());
}

INSTANTIATE_TEST_SUITE_P(Platforms, DeterminismSweep,
                         ::testing::Values(0, 1, 2, 3));

// ---------------------------------------------------------------------
// Analytic model sanity across the app matrix
// ---------------------------------------------------------------------

class AnalyticSweep
    : public ::testing::TestWithParam<std::tuple<int, std::string>>
{
};

TEST_P(AnalyticSweep, OutputsAreFiniteAndOrdered)
{
    auto [platform_idx, app_id] = GetParam();
    analytic::AnalyticInput in;
    in.app = apps::app_by_id(app_id);
    in.platform = platform_by_index(platform_idx);
    analytic::AnalyticOutput out = analytic::evaluate(in);
    EXPECT_GT(out.mean_latency_s, 0.0);
    EXPECT_GE(out.tail_latency_s, out.mean_latency_s);
    EXPECT_LT(out.tail_latency_s, 1e4);
    EXPECT_GE(out.bandwidth_MBps, 0.0);
    EXPECT_GT(out.battery_pct_per_min, 0.0);
    EXPECT_GE(out.max_utilization, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AnalyticSweep,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values("S1", "S3", "S6", "S9")));

}  // namespace
}  // namespace hivemind
