#include "platform/scenario.hpp"

#include <algorithm>
#include <utility>

#include "platform/sharded_scenario.hpp"

namespace hivemind::platform {

const char*
to_string(ScenarioKind k)
{
    switch (k) {
      case ScenarioKind::StationaryItems:
        return "Scenario A (Stationary Items)";
      case ScenarioKind::MovingPeople:
        return "Scenario B (Moving People)";
      case ScenarioKind::TreasureHunt:
        return "Treasure Hunt";
      case ScenarioKind::RoverMaze:
        return "Maze";
    }
    return "?";
}

bool
plan_has_controller_faults(const fault::FaultPlan& plan)
{
    for (const fault::FaultEvent& e : plan.events) {
        if (e.kind == fault::FaultKind::ControllerCrash ||
            e.kind == fault::FaultKind::ControllerPartition)
            return true;
    }
    return false;
}

RunResult
run(const ScenarioConfig& scenario, const PlatformOptions& options,
    const DeploymentConfig& deployment_config)
{
    // Reject malformed chaos plans at the facade, before the engine
    // spins up a deployment for them. Horizon is deliberately left
    // unchecked: plans may legitimately outlast time_cap (events past
    // the stop simply never fire).
    fault::PlanBounds bounds;
    bounds.devices = deployment_config.devices;
    bounds.servers = deployment_config.servers;
    scenario.faults.validate_or_throw(bounds);

    const int shards = std::max(scenario.shards, 1);
    ShardedScenarioResult r =
        run_scenario_sharded(scenario, options, deployment_config, shards);
    RunResult out;
    out.metrics = std::move(r.metrics);
    out.checksum = r.checksum;
    out.shards_used = shards;
    out.wall_s = r.wall_s;
    out.epochs = r.epochs;
    return out;
}

RunMetrics
run_scenario(const ScenarioConfig& scenario, const PlatformOptions& options,
             const DeploymentConfig& deployment_config)
{
    return run(scenario, options, deployment_config).metrics;
}

}  // namespace hivemind::platform
