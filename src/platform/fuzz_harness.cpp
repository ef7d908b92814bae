#include "platform/fuzz_harness.hpp"

#include "edge/device.hpp"
#include "platform/deployment.hpp"
#include "platform/options.hpp"
#include "platform/scenario.hpp"

namespace hivemind::platform {

fault::FuzzConfig
fuzz_config_for(const FuzzCaseOptions& opt)
{
    fault::FuzzConfig cfg;
    cfg.devices = opt.devices;
    cfg.servers = opt.servers;
    cfg.horizon = opt.horizon;
    return cfg;
}

fault::RunAudit
run_fuzz_case(const fault::FaultPlan& plan, const FuzzCaseOptions& opt)
{
    // The horizon is the harness's own bound: elsewhere a plan may
    // outlast time_cap. run() checks the device and server targets.
    fault::PlanBounds bounds;
    bounds.horizon = opt.horizon;
    plan.validate_or_throw(bounds);

    const bool rover = opt.kind == ScenarioKind::TreasureHunt ||
        opt.kind == ScenarioKind::RoverMaze;

    ScenarioConfig sc;
    sc.kind = opt.kind;
    sc.field_size_m = rover ? 48.0 : 96.0;
    // Unattainable goal + unbounded pass budget: the only legitimate
    // stop is the horizon (or a fully dead fleet), so early finishes
    // surface as liveness violations instead of hiding as successes.
    // For rover kinds the same contract comes from a course no 1 m/s
    // rover can drive inside the horizon.
    sc.targets = 200;
    sc.max_passes = 1'000'000;
    sc.course_legs = 64;
    sc.maze_side = 21;
    sc.time_cap = opt.horizon;
    sc.faults = plan;
    sc.shards = opt.shards;

    DeploymentConfig dep;
    dep.devices = opt.devices;
    dep.servers = opt.servers;
    dep.seed = opt.seed;
    if (rover)
        dep.device_spec = edge::DeviceSpec::rover();

    // HiveMind platform: the HA stack wires itself when the plan can
    // take the swarm controller down, matching the shipped scenarios.
    // The baselines reject such plans, so the harness is HiveMind-only.
    const PlatformOptions platform = PlatformOptions::hivemind();

    fault::RunAudit audit = run(sc, platform, dep).audit;
    audit.expect_full_horizon = true;
    return audit;
}

}  // namespace hivemind::platform
