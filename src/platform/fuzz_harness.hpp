#pragma once

/**
 * @file
 * One fuzz case = one chaos run under oracle-friendly settings.
 *
 * run_fuzz_case() executes a FaultPlan on the scenario engine at any
 * shard count against a fixed HiveMind deployment tuned for invariant
 * checking: the mission goal is unattainable and the pass budget
 * unbounded, so every run is expected to reach its horizon — which
 * turns "the sim stopped early" into an oracle violation instead of a
 * legitimate finish. The returned fault::RunAudit feeds fault::OracleSuite; the
 * soak driver (bench/fuzz_soak.cpp) and the fuzz tests both build on
 * this entry point.
 */

#include <cstdint>

#include "fault/fuzz.hpp"
#include "fault/oracle.hpp"
#include "fault/plan.hpp"
#include "platform/scenario.hpp"

namespace hivemind::platform {

/** Deployment + shard-count knobs for one fuzz case. */
struct FuzzCaseOptions
{
    int shards = 1;            ///< Shard kernels (values < 1 run 1).
    std::uint64_t seed = 42;   ///< Deployment seed (world + traffic).
    std::size_t devices = 6;
    std::size_t servers = 2;
    sim::Time horizon = 60 * sim::kSecond;
    /** Scenario kind under fuzz: drone sweeps or rover missions (the
     *  rover course is sized to outlast the horizon, preserving the
     *  expect_full_horizon contract). */
    ScenarioKind kind = ScenarioKind::StationaryItems;
};

/** The fuzzer configuration matching @p opt's deployment envelope. */
fault::FuzzConfig fuzz_config_for(const FuzzCaseOptions& opt);

/**
 * Run @p plan under @p opt through platform::run() and return the
 * filled audit (the seed and expect_full_horizon are stamped in). A
 * plan with an event at or past the horizon, or with a device or
 * server target outside the deployment (run()'s check), throws
 * std::invalid_argument before the run starts.
 */
fault::RunAudit run_fuzz_case(const fault::FaultPlan& plan,
                              const FuzzCaseOptions& opt);

}  // namespace hivemind::platform
