#pragma once

/**
 * @file
 * Generic task-graph executor: runs any DSL TaskGraph under any
 * placement on a simulated deployment.
 *
 * This is the execution half of the compiler path (Sec. 4.1/4.2):
 * once the synthesis engine picks a placement, activations of the
 * graph flow through it — edge tasks on the device's on-board
 * executor, cloud tasks through the serverless runtime (with
 * intra-task parallelism and parent co-location), and every
 * cloud/edge boundary crossing over the wireless network. It also
 * serves as the measurement-backed Profiler for the
 * PlacementExplorer: instead of trusting the analytic cost model,
 * profile each candidate placement on the simulated swarm exactly the
 * way the paper profiles candidates on the real one.
 */

#include "dsl/graph.hpp"
#include "platform/deployment.hpp"
#include "platform/metrics.hpp"
#include "platform/options.hpp"
#include "platform/single_phase.hpp"
#include "synth/cost_model.hpp"
#include "synth/explorer.hpp"
#include "synth/placement.hpp"

namespace hivemind::platform {

/**
 * Run @p graph under @p placement, activated on every device at
 * @p activation_rate_hz (the single-phase runner's Poisson arrivals);
 * returns metrics where task_latency_s holds per-*activation*
 * end-to-end latencies (root sensor reading to last leaf completion)
 * and the stage summaries hold per-activation shares.
 */
RunMetrics run_task_graph(const dsl::TaskGraph& graph,
                          const synth::PlacementAssignment& placement,
                          const PlatformOptions& options,
                          const DeploymentConfig& deployment_config,
                          const JobConfig& job, double activation_rate_hz);

/**
 * A measurement-backed Profiler for synth::PlacementExplorer: runs a
 * short simulation of each candidate placement and reports observed
 * latency/energy (Sec. 4.2: "profiles the application on the target
 * swarm").
 */
synth::Profiler make_simulation_profiler(const PlatformOptions& options,
                                         const DeploymentConfig& deployment,
                                         const JobConfig& job,
                                         double activation_rate_hz);

}  // namespace hivemind::platform
