#include "analytic/model.hpp"

#include <algorithm>
#include <cmath>

#include "analytic/queueing.hpp"
#include "cloud/faas.hpp"
#include "edge/device.hpp"
#include "net/topology.hpp"
#include "platform/deployment.hpp"
#include "platform/pipeline_spec.hpp"
#include "platform/single_phase.hpp"
#include "sim/time.hpp"

namespace hivemind::analytic {

namespace {

// The model's own calibrations; everything else is the DES's testbed.

/** Per-task serverless overhead (management + amortized start), s. */
constexpr double kFaasOverheadS = 0.062;
/** Extra instantiation paid at the tail (the cold-start mix), s. */
constexpr double kFaasOverheadTailS = 0.140;
/** The same two under the HiveMind scheduler: warm reuse under the
 *  10-30 s keep-alive removes most of the instantiation overhead, at
 *  median and tail alike. */
constexpr double kWarmFaasOverheadS = 0.022;
constexpr double kWarmFaasOverheadTailS = 0.055;
/** Base data-sharing latency per hand-off (CouchDB base + lookup), s. */
constexpr double kSharingS = 0.016;
/** Data-sharing payload bandwidth, bytes/second. */
constexpr double kSharingBps = 150e6;
/** The same two on the remote-memory fabric: an RDMA-scale hand-off. */
constexpr double kRemoteMemSharingS = 3.0e-6;
constexpr double kRemoteMemSharingBps = 11.0e9;
/** p99/mean multiplier of a stable station's queueing part. */
constexpr double kStableTailFactor = 3.0;
/** p99/mean multiplier of the execution jitter + stragglers. */
constexpr double kExecTailFactor = 1.7;

/** Mean + tail-extra accumulator across the station chain. */
struct Accum
{
    double mean = 0.0;
    double extra = 0.0;  // Sum of (p99 - mean) station contributions.

    void
    add(double mean_s, double extra_s)
    {
        mean += mean_s;
        extra += extra_s;
    }
};

}  // namespace

AnalyticOutput
evaluate(const AnalyticInput& in)
{
    // The testbed, as the DES builds it.
    const net::TopologyConfig topology;
    const platform::DeploymentConfig deployment;
    const cloud::FaasConfig faas;
    const edge::DeviceSpec drone = edge::DeviceSpec::drone();
    const platform::JobConfig job;
    const double horizon_s = sim::to_seconds(job.duration);
    const double drain_s = sim::to_seconds(job.drain);

    const apps::AppSpec& app = in.app;
    const platform::PlatformOptions& opt = in.platform;
    const bool smart = opt.smart_scheduler;
    const int controllers = smart
        ? platform::hivemind_controllers(in.devices)
        : faas.controllers;
    const double faas_overhead_s = smart ? kWarmFaasOverheadS
                                         : kFaasOverheadS;
    const double faas_overhead_tail_s = smart ? kWarmFaasOverheadTailS
                                              : kFaasOverheadTailS;
    const double sharing_s = opt.remote_mem_accel ? kRemoteMemSharingS
                                                  : kSharingS;
    const double sharing_Bps = opt.remote_mem_accel ? kRemoteMemSharingBps
                                                    : kSharingBps;

    AnalyticOutput out;
    double n = static_cast<double>(in.devices);
    double lambda_total = n * app.task_rate_hz;
    double infra = platform::infra_scale(in.devices, in.scale_infra);

    bool distributed = opt.kind == platform::PlatformKind::DistributedEdge;
    bool hive = opt.kind == platform::PlatformKind::HiveMind;
    // HiveMind keeps the edge-friendly jobs (S3/S4/S7) on board.
    bool on_edge = distributed || (hive && app.edge_friendly);

    auto note_rho = [&out](double lambda, double capacity) {
        if (capacity > 0.0) {
            out.max_utilization =
                std::max(out.max_utilization, lambda / capacity);
        }
    };

    // --- Bytes crossing the air per task ---
    double up_bytes;
    if (on_edge) {
        up_bytes = static_cast<double>(app.output_bytes);
    } else if (hive) {
        up_bytes = static_cast<double>(app.input_bytes) *
                platform::kHybridUplinkFraction +
            static_cast<double>(app.output_bytes);
    } else {
        up_bytes = static_cast<double>(app.input_bytes) +
            static_cast<double>(app.output_bytes);
    }
    double air_Bps = lambda_total * up_bytes;
    out.bandwidth_MBps = air_Bps / 1e6;

    Accum acc;

    // --- Edge compute station (per device, M/M/1 with shedding) ---
    double edge_work_s = 0.0;
    if (on_edge) {
        edge_work_s = app.work_core_ms / 1000.0 * app.edge_work_factor /
            drone.cpu_speed_factor;
    } else if (hive) {
        edge_work_s = app.work_core_ms / 1000.0 *
            platform::kHybridPrefilterShare / drone.cpu_speed_factor;
    }
    if (edge_work_s > 0.0) {
        double mu = 1.0 / edge_work_s;
        note_rho(app.task_rate_hz, mu);
        double rho = app.task_rate_hz / mu;
        if (rho < 0.97) {
            double soj = mmc_sojourn(app.task_rate_hz, mu, 1);
            if (soj < 0.0)
                soj = edge_work_s;
            acc.add(soj, (kStableTailFactor - 1.0) * (soj - edge_work_s) +
                        0.35 * edge_work_s);
        } else {
            // Saturated bounded queue. Three effects shape what the
            // DES (and a real run) measures: (1) the deterministic
            // backlog ramp over the observation window, bounded by
            // the drop-oldest queue limit; (2) diffusion — Poisson
            // burstiness makes the backlog fluctuate ~sqrt(lambda*T);
            // (3) censoring — waits longer than the drain window are
            // never observed as completions.
            double excess = app.task_rate_hz - mu;
            double raw_full = std::min(excess * horizon_s,
                                       static_cast<double>(
                                           drone.queue_limit)) *
                edge_work_s;
            double diff = std::sqrt(app.task_rate_hz * horizon_s) *
                edge_work_s;
            double mean_wait =
                0.5 * std::min(raw_full, 0.7 * drain_s) + 0.35 * diff;
            double tail_wait = std::min(raw_full + 1.3 * diff, drain_s);
            if (tail_wait < mean_wait)
                tail_wait = mean_wait;
            acc.add(mean_wait + edge_work_s, tail_wait - mean_wait);
        }
    }

    // --- Wireless stations ---
    if (up_bytes > 0.0) {
        double radio_s = up_bytes * 8.0 / topology.device_radio_bps;
        double mu_radio = 1.0 / radio_s;
        note_rho(app.task_rate_hz, mu_radio);
        double soj = saturated_sojourn(app.task_rate_hz, mu_radio, 1,
                                       horizon_s);
        acc.add(soj, (kStableTailFactor - 1.0) * (soj - radio_s));

        double router_bps = topology.router_bps * infra;
        double router_s = up_bytes * 8.0 / router_bps;
        double mu_router = 1.0 / router_s;
        note_rho(lambda_total,
                 mu_router * static_cast<double>(topology.routers));
        double rsoj = saturated_sojourn(lambda_total, mu_router,
                                        static_cast<int>(topology.routers),
                                        horizon_s);
        acc.add(rsoj, (kStableTailFactor - 1.0) * (rsoj - router_s));
        acc.add(0.008, 0.0);  // Wireless propagation, both directions.
    }

    // --- Cloud stations ---
    if (!on_edge) {
        double mu_ctl = faas.controller_rps;
        note_rho(lambda_total, mu_ctl * static_cast<double>(controllers));
        double csoj = saturated_sojourn(lambda_total, mu_ctl, controllers,
                                        horizon_s);
        acc.add(csoj, (kStableTailFactor - 1.0) * (csoj - 1.0 / mu_ctl));
        acc.add(faas_overhead_s, faas_overhead_tail_s);

        double cloud_work_ms = hive
            ? app.work_core_ms * (1.0 - platform::kHybridPrefilterShare)
            : app.work_core_ms;
        int ways = hive ? std::max(1, app.parallelism) : 1;
        double fn_service_s =
            cloud_work_ms / 1000.0 / static_cast<double>(ways);
        double fn_lambda = lambda_total * static_cast<double>(ways);
        int cores = static_cast<int>(
            static_cast<double>(deployment.servers) * infra *
            static_cast<double>(deployment.cores_per_server));
        double mu_core = 1.0 / fn_service_s;
        note_rho(fn_lambda, mu_core * static_cast<double>(cores));
        double fsoj = saturated_sojourn(fn_lambda, mu_core, cores,
                                        horizon_s);
        // Execution jitter + stragglers stretch the tail of the
        // service time itself.
        acc.add(fsoj, (kExecTailFactor - 1.0) * fn_service_s +
                    (kStableTailFactor - 1.0) * (fsoj - fn_service_s));

        // Data-sharing hand-offs (input fetch + output publish).
        double share_s = sharing_s +
            static_cast<double>(app.inter_bytes) / sharing_Bps;
        acc.add(2.0 * share_s, 1.2 * share_s);
    } else {
        // On-board execution jitter tail.
        acc.add(0.0, (kExecTailFactor - 1.0) * 0.15 * edge_work_s);
    }

    out.mean_latency_s = acc.mean;
    out.tail_latency_s = acc.mean + acc.extra;

    // --- Battery (percent of the drone's pack per minute) ---
    const edge::PowerModel& power = drone.power;
    double per_s = power.idle_w + power.motion_w +
        app.task_rate_hz * (edge_work_s * power.compute_w +
                            up_bytes * power.radio_j_per_byte);
    out.battery_pct_per_min = per_s * 60.0 / drone.battery_j * 100.0;
    return out;
}

}  // namespace hivemind::analytic
