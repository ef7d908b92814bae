#include "platform/scenario.hpp"

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
    return run_scenario_sharded(scenario, options, deployment_config,
                                scenario.shards);
}

RunMetrics
run_scenario(const ScenarioConfig& scenario, const PlatformOptions& options,
             const DeploymentConfig& deployment_config)
{
    return run(scenario, options, deployment_config).metrics;
}

}  // namespace hivemind::platform
