#pragma once

/**
 * @file
 * Runner for the single-phase applications S1-S10.
 *
 * Reproduces the paper's methodology (Sec. 2.3): each job runs for a
 * fixed duration under an open-loop arrival process (per-device task
 * rate, or an aggregate LoadPattern for the elasticity experiments),
 * on one of the four platforms. Per-task stage latencies, battery,
 * and bandwidth are collected into RunMetrics.
 *
 * Platform task paths:
 *  - Centralized (FaaS/IaaS): sensor payload uplink -> cloud task ->
 *    result downlink.
 *  - Distributed: on-board execution -> small result uplink.
 *  - HiveMind: edge-friendly jobs run on-board; heavy jobs run hybrid
 *    (an on-board pre-filter stage reduces the data crossing the
 *    wireless boundary, the remaining work runs serverless with
 *    intra-task parallelism under the HiveMind scheduler).
 */

#include <vector>

#include "apps/appspec.hpp"
#include "apps/workload.hpp"
#include "platform/deployment.hpp"
#include "platform/metrics.hpp"
#include "platform/options.hpp"

namespace hivemind::platform {

/** Single-phase run parameters. */
struct JobConfig
{
    /** Generation window; tasks arriving before this are completed. */
    sim::Time duration = 120 * sim::kSecond;
    /** Extra time allowed for queued tasks to drain. */
    sim::Time drain = 120 * sim::kSecond;
    /** Aggregate arrival-rate override (elasticity experiments). */
    const apps::LoadPattern* pattern = nullptr;
    /** Count hover/drive energy in the battery numbers. */
    bool include_motion_energy = false;
};

/** Run one application on one platform; returns collected metrics. */
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
