#pragma once

/**
 * @file
 * End-to-end scenario runner.
 *
 * Drives the paper's four multi-phase scenarios to completion:
 *  - Scenario A (Stationary Items): locate N tennis balls in a field.
 *    The field is strip-partitioned, drones sweep their regions at
 *    4 m/s collecting frames, an on-board obstacle-avoidance engine
 *    always runs locally, and recognition (plus aggregation) runs
 *    wherever the platform places it. Misses are retried on later
 *    sweeps; retraining improves accuracy between passes.
 *  - Scenario B (Moving People): count M moving people; recognition
 *    feeds a deduplication stage (FaceNet-style), so the same person
 *    seen by two drones is counted once.
 *  - Treasure Hunt (rovers): each rover follows a chain of panels,
 *    photographing each and waiting for image-to-text results that
 *    reveal the next leg.
 *  - Rover Maze: each rover traverses a maze with a wall-follower
 *    planner invoked per step.
 *
 * The runner integrates battery (motion, compute, radio) once per
 * second; a device whose battery empties fails — its heartbeats stop,
 * and on HiveMind the controller repartitions its region (Fig. 10).
 * Scenarios end when the goal is met, the time cap expires, or no
 * device is left alive. Every run executes on the sharded engine
 * (platform/sharded_scenario.hpp), at one shard kernel or more, and
 * reports one RunResult: the engine's whole result, whichever entry
 * point (run() or run_scenario_sharded()) started it.
 */

#include <cstdint>

#include "apps/detection.hpp"
#include "core/ha.hpp"
#include "fault/oracle.hpp"
#include "fault/plan.hpp"
#include "fault/retry.hpp"
#include "fault/shard_chaos.hpp"
#include "platform/deployment.hpp"
#include "platform/metrics.hpp"
#include "platform/options.hpp"
#include "platform/scenario_kind.hpp"

namespace hivemind::platform {

/** Scenario parameters (defaults follow Sec. 2.1 / 5.5). */
struct ScenarioConfig
{
    ScenarioKind kind = ScenarioKind::StationaryItems;
    /** Operating area, meters. */
    double field_size_m = 96.0;
    /** Items (Scenario A: 15) or people (Scenario B: 25). */
    std::size_t targets = 15;
    /** Recognition tasks per device per second while sweeping. */
    double frame_task_rate_hz = 1.0;
    /** On-board obstacle-avoidance rate (always at the edge). */
    double obstacle_rate_hz = 2.0;
    /** Continuous-learning mode (Fig. 15). */
    apps::RetrainMode retrain = apps::RetrainMode::Swarm;
    apps::DetectionConfig detection;
    /** Retraining round period. */
    sim::Time retrain_interval = 10 * sim::kSecond;
    /** Give-up horizon. */
    sim::Time time_cap = 1500 * sim::kSecond;
    /** Maximum coverage sweeps before declaring failure. */
    int max_passes = 8;
    /** Treasure hunt: panels per rover. / Maze: side length. */
    int course_legs = 5;
    int maze_side = 9;
    /** Override the sensor frame size (0 = pipeline default). */
    std::uint64_t frame_bytes_override = 0;
    /** Declarative chaos plan, scheduled by fault::route_plan(). */
    fault::FaultPlan faults;
    /** Restore policy applied to cloud pipeline stages. */
    cloud::FaultRecovery recovery = cloud::FaultRecovery::Respawn;
    /** Edge->cloud offload retry / circuit-breaker tuning (Sec. 4.6). */
    fault::RetryConfig retry;
    /**
     * Swarm-controller HA tuning (Sec. 4.6-4.7). The HA stack spins up
     * iff the fault plan contains controller_crash /
     * controller_partition events, which only the HiveMind platform
     * accepts; every other run is byte-identical to the pre-HA
     * behavior.
     */
    core::HaConfig ha;
    /**
     * Simulation shards: device actors (all four scenario kinds)
     * spread over max(shards, 1) sim::SwarmRuntime kernels. The result
     * is checksum-identical for any shard count.
     */
    int shards = 1;
    /**
     * Use adaptive per-pair lookahead windows (see
     * sim::SwarmRuntime::set_adaptive_lookahead). Off pins the classic
     * global-lookahead epochs. A config knob rather than an env toggle
     * so sweeps can mix modes across concurrent runs.
     */
    bool adaptive_lookahead = true;

    bool operator==(const ScenarioConfig&) const = default;
};

/** Whether @p plan targets the swarm controller (needs the HA stack). */
bool plan_has_controller_faults(const fault::FaultPlan& plan);

/**
 * Everything one swarm run reports. platform::run() and
 * run_scenario_sharded() return this same struct (the latter under its
 * second name, ShardedScenarioResult).
 */
struct RunResult
{
    RunMetrics metrics;
    /**
     * FNV digest of the run's end state (device roster, ledgers,
     * completion) in device-id order, the same at every shard count.
     * Identical configs + seeds yield identical checksums — the fleet
     * determinism gate.
     */
    std::uint64_t checksum = 0;
    /** Shard kernels used. */
    int shards = 1;
    /** Host wall-clock spent inside the engine, seconds. */
    double wall_s = 0.0;
    std::uint64_t epochs = 0;     ///< Conservative-sync barrier rounds.
    std::uint64_t forwarded = 0;  ///< Cross-shard envelopes delivered.
    /** What fault::route_plan() scheduled from the plan. */
    fault::ShardChaosReport chaos;
    /** Everything the invariant oracles need about this run. */
    fault::RunAudit audit;
};

/**
 * The one entry point for scenario execution: run_scenario_sharded()
 * on max(scenario.shards, 1) kernels, so it rejects a plan that
 * targets a device or server outside the deployment, or a controller
 * fault on a platform without the HA stack. The fuzz harness, the
 * fleet driver, the examples and the benches without a shard axis
 * route through here.
 */
RunResult run(const ScenarioConfig& scenario, const PlatformOptions& options,
              const DeploymentConfig& deployment_config);

/** Run one scenario on one platform (metrics-only run() shorthand). */
RunMetrics run_scenario(const ScenarioConfig& scenario,
                        const PlatformOptions& options,
                        const DeploymentConfig& deployment_config);

}  // namespace hivemind::platform
