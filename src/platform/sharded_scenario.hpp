#pragma once

/**
 * @file
 * Paper scenarios on the sharded runtime.
 *
 * run_scenario_sharded() executes all four paper scenarios (Stationary
 * Items, Moving People, Treasure Hunt, Rover Maze) as a distributed
 * system on sim::SwarmRuntime:
 *
 *  - Each edge device is a shard-local actor (motion, sensing,
 *    on-board execution, offload decisions, battery, and the rover
 *    leg state machine) on shard `id % N`, with net::ShardLink
 *    uplinks for frames and control.
 *  - The swarm controller tier (load balancer, failure detector,
 *    learning coordinator, HA cluster, the ground-truth world) is
 *    pinned to shard 0 and reachable only through control-plane links.
 *  - The cloud tier (a platform::CloudTier: wired topology, FaaS
 *    runtime + DataStore, IaaS pool, scheduler) lives on its own shard
 *    (shard 1 when N > 1), with the data-plane radio links declared as
 *    runtime channels.
 *
 * All cross-actor interaction rides ShardLinks, so a run is
 * checksum-identical for any shard count (N = 1 included); the
 * invariance tests assert this with the result's FNV digest. The
 * engine models per-frame pipelines, retry/breaker offload,
 * heartbeat-driven repartitioning and continuous learning, and keeps
 * the recovery ledger of every injected fault — device crashes get
 * heartbeat MTTD/MTTR samples on shard 0.
 *
 * platform::run() forwards here, so this is the one implementation of
 * the scenario path: it holds the path's plan checks and returns the
 * one RunResult.
 */

#include "platform/deployment.hpp"
#include "platform/options.hpp"
#include "platform/scenario.hpp"

namespace hivemind::platform {

/** A second name for RunResult, which the repository benchmark and
 *  the shard-axis callers spell. */
using ShardedScenarioResult = RunResult;

/**
 * Run @p scenario (any ScenarioKind) on max(@p runtime_shards, 1)
 * shard kernels; the checksum (and metrics) are invariant in
 * @p runtime_shards. Both plan checks of the scenario path live here,
 * and both throw std::invalid_argument before the run starts:
 *  - before building anything, when the plan holds a ControllerCrash
 *    or ControllerPartition and @p options is not the HiveMind
 *    platform (the HA stack is HiveMind's controller, and the
 *    baselines have none);
 *  - once the cloud tier is built and before anything is scheduled,
 *    when the plan targets a device or server the deployment lacks.
 *    The server count is the one the cloud tier built, so scale_infra
 *    counts.
 */
RunResult run_scenario_sharded(const ScenarioConfig& scenario,
                               const PlatformOptions& options,
                               const DeploymentConfig& deployment_config,
                               int runtime_shards);

}  // namespace hivemind::platform
