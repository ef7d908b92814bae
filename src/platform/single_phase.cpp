#include "platform/single_phase.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>

#include "platform/pipeline_spec.hpp"

namespace hivemind::platform {

namespace {

/**
 * Where one task's stages run: an optional on-board stage, the uplink
 * to a server, then an optional serverless stage whose result is sent
 * back down. The platforms differ only in this plan (Sec. 2.3).
 */
struct StagePlan
{
    double onboard_ms = 0.0;  ///< On-board work; 0 skips the stage.
    std::uint64_t uplink_bytes = 0;
    double cloud_ms = 0.0;    ///< Serverless work; 0 ends at the uplink.
    int parallelism = 1;      ///< Intra-task fan-out of the cloud stage.
};

StagePlan
plan_stages(const apps::AppSpec& app, PlatformKind kind)
{
    if (kind == PlatformKind::CentralizedFaas ||
        kind == PlatformKind::CentralizedIaas) {
        // Uplink the sensor payload, run the whole task serverless.
        return {0.0, app.input_bytes, app.work_core_ms, 1};
    }
    if (kind == PlatformKind::DistributedEdge || app.edge_friendly) {
        // Run on-board and uplink only the result; HiveMind's hybrid
        // placement keeps S3/S4/S7 here too.
        return {app.work_core_ms * app.edge_work_factor, app.output_bytes,
                0.0, 1};
    }
    // Hybrid split: an on-board pre-filter shrinks the sensor payload,
    // the heavy stage runs serverless with intra-task parallelism.
    return {app.work_core_ms * kHybridPrefilterShare,
            static_cast<std::uint64_t>(static_cast<double>(app.input_bytes) *
                                       kHybridUplinkFraction),
            app.work_core_ms * (1.0 - kHybridPrefilterShare),
            app.parallelism};
}

/** Mutable state shared by the run's callbacks. */
struct JobHarness
{
    Deployment* dep;
    const apps::AppSpec* app;
    cloud::AppId app_id;  ///< The app on the deployment's runtime.
    StagePlan plan;
    RunMetrics metrics;
    std::size_t next_server = 0;
    sim::Rng arrivals;

    JobHarness(Deployment& d, const apps::AppSpec& a)
        : dep(&d),
          app(&a),
          app_id(d.faas().intern(a.id)),
          plan(plan_stages(a, d.options().kind)),
          arrivals(d.rng().fork())
    {
    }

    void handle_task(std::size_t device);
    /** Uplink to the next server once the on-board stage (if any)
     *  ended at @p t_up after @p onboard_exec_s of execution. */
    void uplink(std::size_t device, sim::Time t0, sim::Time t_up,
                double onboard_exec_s);
};

void
JobHarness::handle_task(std::size_t device)
{
    sim::Time t0 = dep->simulator().now();
    if (plan.onboard_ms <= 0.0) {
        uplink(device, t0, t0, 0.0);
        return;
    }
    dep->device(device).executor().submit(
        plan.onboard_ms, [this, device, t0](double exec_s) {
            uplink(device, t0, dep->simulator().now(), exec_s);
        });
}

void
JobHarness::uplink(std::size_t device, sim::Time t0, sim::Time t_up,
                   double onboard_exec_s)
{
    std::size_t server = next_server;
    next_server = (next_server + 1) % dep->config().servers;
    dep->network().send_uplink(
        device, server, plan.uplink_bytes,
        [this, device, server, t0, t_up, onboard_exec_s](sim::Time t1) {
            // A transfer whose retransmit budget ran out loses the
            // task: nothing is recorded and no later stage runs.
            if (t1 == net::kDropped)
                return;
            if (plan.cloud_ms <= 0.0) {
                // The uplink carried the result. With no serverless
                // stage, the on-board queue is the management share.
                double queue_s = sim::to_seconds(t_up - t0) - onboard_exec_s;
                if (queue_s < 0.0)
                    queue_s = 0.0;
                metrics.record_task(sim::to_seconds(t1 - t0),
                                    sim::to_seconds(t1 - t_up), queue_s, 0.0,
                                    onboard_exec_s);
                return;
            }
            // Dependent-function exchange: the task reads its frame
            // bundle and writes results through the sharing fabric.
            cloud::InvokeRequest req;
            req.app = app_id;
            req.work_core_ms = plan.cloud_ms;
            req.memory_mb = app->memory_mb;
            req.input_bytes = app->inter_bytes;
            req.output_bytes = app->inter_bytes;
            dep->cloud_invoke(
                req, plan.parallelism,
                [this, device, server, t0, t_up, t1,
                 onboard_exec_s](const CloudResult& r) {
                    sim::Time t2 = r.done;
                    dep->network().send_downlink(
                        server, device, app->output_bytes,
                        [this, t0, t_up, t1, t2, onboard_exec_s,
                         r](sim::Time t3) {
                            if (t3 == net::kDropped)
                                return;
                            double network = sim::to_seconds(t1 - t_up) +
                                sim::to_seconds(t3 - t2);
                            metrics.record_task(sim::to_seconds(t3 - t0),
                                                network, r.mgmt_s, r.data_s,
                                                onboard_exec_s + r.exec_s);
                        });
                });
        });
}

}  // namespace

void
install_poisson_arrivals(Deployment& dep, sim::Rng& arrivals, double rate_hz,
                         const JobConfig& job,
                         std::function<void(std::size_t)> arrive)
{
    sim::Simulator& simulator = dep.simulator();
    for (std::size_t d = 0; d < dep.device_count(); ++d) {
        sim::recurring(
            simulator,
            sim::from_seconds(arrivals.uniform(0.0, 1.0 / rate_hz)),
            [&simulator, &arrivals, &job, arrive, d,
             rate_hz](const sim::Recur& self) {
                if (simulator.now() >= job.duration)
                    return;
                arrive(d);
                self.again_in(sim::from_seconds(
                    arrivals.exponential(1.0 / rate_hz)));
            });
    }
}

void
settle_energy(Deployment& dep, const JobConfig& job)
{
    sim::Simulator& simulator = dep.simulator();
    dep.settle_radio_energy();
    double active_s = sim::to_seconds(
        std::min(simulator.now(), job.duration + job.drain));
    for (std::size_t d = 0; d < dep.device_count(); ++d) {
        edge::Device& dev = dep.device(d);
        dev.account_compute(dev.executor().busy_seconds());
        dev.account_idle(active_s);
        if (job.include_motion_energy)
            dev.account_motion(active_s);
    }
}

void
collect_shared(Deployment& dep, const JobConfig& job, RunMetrics& metrics)
{
    for (std::size_t d = 0; d < dep.device_count(); ++d) {
        edge::Device& dev = dep.device(d);
        metrics.battery_pct.add(dev.battery().consumed_percent());
        metrics.tasks_shed += dev.executor().shed();
    }
    sim::Summary bw = dep.network().air_meter().rate_summary(job.duration);
    for (double r : bw.samples())
        metrics.bandwidth_MBps.add(r / 1e6);
    metrics.cold_starts = dep.faas().cold_starts();
    metrics.warm_starts = dep.faas().warm_starts();
    metrics.faults = dep.faas().faults();
    if (dep.scheduler())
        metrics.respawns = dep.scheduler()->respawns();
    metrics.cloud_rpc_cpu_s = dep.network().cloud_rpc_cpu_seconds();
    metrics.recovery.frames_dropped = dep.network().frames_dropped();
    metrics.recovery.wireless_retransmissions =
        dep.network().retransmissions();
}

RunMetrics
run_single_phase(const apps::AppSpec& app, const PlatformOptions& options,
                 const DeploymentConfig& deployment_config,
                 const JobConfig& job)
{
    return run_multi_tenant({app}, options, deployment_config, job).front();
}

std::vector<RunMetrics>
run_multi_tenant(const std::vector<apps::AppSpec>& app_list,
                 const PlatformOptions& options,
                 const DeploymentConfig& deployment_config,
                 const JobConfig& job)
{
    Deployment dep(deployment_config, options);
    std::vector<std::unique_ptr<JobHarness>> harnesses;
    harnesses.reserve(app_list.size());
    for (const apps::AppSpec& app : app_list) {
        harnesses.push_back(std::make_unique<JobHarness>(dep, app));
        JobHarness* h = harnesses.back().get();
        install_poisson_arrivals(dep, h->arrivals, app.task_rate_hz, job,
                                 [h](std::size_t d) { h->handle_task(d); });
    }
    dep.simulator().run_until(job.duration + job.drain);
    settle_energy(dep, job);
    std::vector<RunMetrics> out;
    out.reserve(app_list.size());
    for (auto& h : harnesses) {
        collect_shared(dep, job, h->metrics);
        out.push_back(h->metrics);
    }
    return out;
}

}  // namespace hivemind::platform
