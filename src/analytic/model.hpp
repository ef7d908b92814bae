#pragma once

/**
 * @file
 * Analytic queueing-network model of a swarm deployment.
 *
 * Plays the role the validated simulator plays in the paper: a fast
 * estimator used for the large-swarm sweeps (Fig. 17b), validated
 * against the detailed DES (Fig. 18). The network is a feed-forward
 * chain of stations — device radio, shared routers, OpenWhisk
 * controller, invoker cores, data store — each approximated as an
 * M/M/c queue; per-task latency is the sum of station sojourns plus
 * the fixed overheads (cold-start amortization, sharing protocol).
 *
 * The testbed is the DES's own: link rates, cluster size, controller
 * throughput, the drone's CPU, queue and battery, and the job window
 * come from the simulator's default settings, and the infrastructure
 * scaling, controller replicas and hybrid split from the rules the
 * DES applies. Only the station approximations' calibrations are the
 * model's own.
 */

#include <cstddef>

#include "apps/appspec.hpp"
#include "platform/options.hpp"

namespace hivemind::analytic {

/** Workload and swarm size for the analytic model. */
struct AnalyticInput
{
    std::size_t devices = 16;
    /** Scale routers/ToR/servers with the swarm
     *  (platform::infra_scale, Sec. 5.6). */
    bool scale_infra = false;
    /** The job every device runs (rate, payloads, work, fan-out). */
    apps::AppSpec app;
    /** The platform and its feature flags. */
    platform::PlatformOptions platform;
};

/** Analytic predictions. */
struct AnalyticOutput
{
    double mean_latency_s = 0.0;
    double tail_latency_s = 0.0;   ///< 99th percentile estimate.
    double bandwidth_MBps = 0.0;   ///< Aggregate over-the-air traffic.
    /** Battery percent consumed per minute of operation, per device. */
    double battery_pct_per_min = 0.0;
    /** Bottleneck utilization (max rho across stations). */
    double max_utilization = 0.0;
};

/** Evaluate the model. */
AnalyticOutput evaluate(const AnalyticInput& input);

}  // namespace hivemind::analytic
