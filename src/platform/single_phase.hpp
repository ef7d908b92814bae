#pragma once

/**
 * @file
 * Runner for the single-phase applications S1-S10.
 *
 * Reproduces the paper's methodology (Sec. 2.3): each job runs for a
 * fixed duration under an open-loop arrival process (independent
 * per-device Poisson arrivals at the app's task rate), on one of the
 * four platforms. Per-task stage latencies, battery, and bandwidth are
 * collected into RunMetrics. The task-graph runner
 * (platform/graph_runner.hpp) shares the job config, the arrival
 * process and the end-of-run settlement.
 *
 * Every task runs one chain: an optional on-board stage, the uplink
 * to the next server (round robin), then an optional serverless stage
 * whose result is sent back down. A per-(app, platform) stage plan
 * says which stages run and how large they are:
 *  - Centralized (FaaS/IaaS): sensor payload uplink -> cloud task ->
 *    result downlink.
 *  - Distributed: on-board execution -> small result uplink.
 *  - HiveMind: edge-friendly jobs run on-board; heavy jobs run hybrid
 *    (an on-board pre-filter stage reduces the data crossing the
 *    wireless boundary, the remaining work runs serverless with
 *    intra-task parallelism under the HiveMind scheduler).
 */

#include <cstddef>
#include <functional>
#include <vector>

#include "apps/appspec.hpp"
#include "platform/deployment.hpp"
#include "platform/metrics.hpp"
#include "platform/options.hpp"

namespace hivemind::platform {

/** Job run parameters (single-phase apps and task graphs). */
struct JobConfig
{
    /** Generation window; tasks arriving before this are completed. */
    sim::Time duration = 120 * sim::kSecond;
    /** Extra time allowed for queued tasks to drain. */
    sim::Time drain = 120 * sim::kSecond;
    /** Count hover/drive energy in the battery numbers. */
    bool include_motion_energy = false;
};

/**
 * Independent per-device Poisson arrivals at @p rate_hz until
 * job.duration: device d's first arrival is uniform in
 * [0, 1 / rate_hz), each later one an exponential gap drawn after
 * @p arrive(d) runs, all from @p arrivals (which must outlive the
 * run).
 */
void install_poisson_arrivals(Deployment& dep, sim::Rng& arrivals,
                              double rate_hz, const JobConfig& job,
                              std::function<void(std::size_t)> arrive);

/** Settle device compute, idle, radio (and motion) energy at run end. */
void settle_energy(Deployment& dep, const JobConfig& job);

/** Add the shared-deployment totals (battery, bandwidth, cloud and
 *  radio counters) to @p metrics, after settle_energy(). */
void collect_shared(Deployment& dep, const JobConfig& job,
                    RunMetrics& metrics);

/** Run one application on one platform: run_multi_tenant() of one. */
RunMetrics run_single_phase(const apps::AppSpec& app,
                            const PlatformOptions& options,
                            const DeploymentConfig& deployment_config,
                            const JobConfig& job);

/**
 * Run several applications concurrently on ONE deployment — the
 * multi-tenant mode the platform supports (Sec. 2.1: "the platform
 * supports multi-tenancy"; the paper evaluates one service at a time
 * to eliminate interference, which is exactly what this entry point
 * lets you measure).
 *
 * Battery, bandwidth, and runtime counters are shared-deployment
 * totals and reported on every entry; per-task latency summaries are
 * per application.
 *
 * @return one RunMetrics per entry of @p app_list, in order.
 */
std::vector<RunMetrics>
run_multi_tenant(const std::vector<apps::AppSpec>& app_list,
                 const PlatformOptions& options,
                 const DeploymentConfig& deployment_config,
                 const JobConfig& job);

}  // namespace hivemind::platform
