#include "platform/single_phase.hpp"

#include <algorithm>
#include <memory>

namespace hivemind::platform {

namespace {

/** Fraction of work HiveMind's hybrid pre-filter runs on-board. */
constexpr double kHybridPrefilterShare = 0.10;
/** Fraction of sensor bytes still uplinked after pre-filtering. */
constexpr double kHybridUplinkFraction = 0.30;

/** Mutable state shared by the run's callbacks. */
struct JobHarness
{
    Deployment* dep;
    const apps::AppSpec* app;
    RunMetrics metrics;
    std::size_t next_server = 0;
    sim::Rng arrivals;

    JobHarness(Deployment& d, const apps::AppSpec& a)
        : dep(&d), app(&a), arrivals(d.rng().fork())
    {
    }

    std::size_t
    pick_server()
    {
        std::size_t s = next_server;
        next_server = (next_server + 1) % dep->config().servers;
        return s;
    }

    void
    record(double total, double network, double mgmt, double data,
           double exec)
    {
        metrics.task_latency_s.add(total);
        metrics.network_s.add(network);
        metrics.mgmt_s.add(mgmt);
        metrics.data_s.add(data);
        metrics.exec_s.add(exec);
        ++metrics.tasks_completed;
    }

    cloud::InvokeRequest
    cloud_request(double work_ms, std::uint64_t inter_in,
                  std::uint64_t inter_out) const
    {
        cloud::InvokeRequest req;
        req.app = app->id;
        req.work_core_ms = work_ms;
        req.memory_mb = app->memory_mb;
        req.input_bytes = inter_in;
        req.output_bytes = inter_out;
        return req;
    }

    void handle_task(std::size_t device);
    void run_centralized(std::size_t device);
    void run_distributed(std::size_t device);
    void run_hivemind(std::size_t device);
};

void
JobHarness::run_centralized(std::size_t device)
{
    sim::Time t0 = dep->simulator().now();
    std::size_t server = pick_server();
    dep->network().send_uplink(
        device, server, app->input_bytes,
        [this, device, server, t0](sim::Time t1) {
            // Dependent-function exchange: the task reads its frame
            // bundle and writes results through the sharing fabric.
            cloud::InvokeRequest req = cloud_request(
                app->work_core_ms, app->inter_bytes, app->inter_bytes);
            dep->cloud_invoke(req, 1, [this, device, server, t0,
                                       t1](const CloudResult& r) {
                sim::Time t2 = r.done;
                dep->network().send_downlink(
                    server, device, app->output_bytes,
                    [this, t0, t1, t2, r](sim::Time t3) {
                        double network = sim::to_seconds(t1 - t0) +
                            sim::to_seconds(t3 - t2);
                        record(sim::to_seconds(t3 - t0), network, r.mgmt_s,
                               r.data_s, r.exec_s);
                    });
            });
        });
}

void
JobHarness::run_distributed(std::size_t device)
{
    sim::Time t0 = dep->simulator().now();
    edge::Device& dev = dep->device(device);
    double work = app->work_core_ms * app->edge_work_factor;
    dev.executor().submit(work, [this, device, t0](double exec_s) {
        sim::Time t1 = dep->simulator().now();
        std::size_t server = pick_server();
        dep->network().send_uplink(
            device, server, app->output_bytes,
            [this, t0, t1, exec_s](sim::Time t2) {
                double queue_s = sim::to_seconds(t1 - t0) - exec_s;
                if (queue_s < 0.0)
                    queue_s = 0.0;
                record(sim::to_seconds(t2 - t0), sim::to_seconds(t2 - t1),
                       queue_s, 0.0, exec_s);
            });
    });
}

void
JobHarness::run_hivemind(std::size_t device)
{
    if (app->edge_friendly) {
        // S3/S4/S7: hybrid placement keeps these on-board (Sec. 2.3).
        run_distributed(device);
        return;
    }
    // Hybrid split: an on-board pre-filter shrinks the sensor payload,
    // the heavy stage runs serverless with intra-task parallelism.
    sim::Time t0 = dep->simulator().now();
    edge::Device& dev = dep->device(device);
    double pre_work = app->work_core_ms * kHybridPrefilterShare;
    dev.executor().submit(pre_work, [this, device, t0](double pre_exec_s) {
        sim::Time t_pre = dep->simulator().now();
        std::size_t server = pick_server();
        std::uint64_t uplink_bytes = static_cast<std::uint64_t>(
            static_cast<double>(app->input_bytes) *
            kHybridUplinkFraction);
        dep->network().send_uplink(
            device, server, uplink_bytes,
            [this, device, server, t0, t_pre,
             pre_exec_s](sim::Time t1) {
                double cloud_work =
                    app->work_core_ms * (1.0 - kHybridPrefilterShare);
                cloud::InvokeRequest req = cloud_request(
                    cloud_work, app->inter_bytes, app->inter_bytes);
                dep->cloud_invoke(
                    req, app->parallelism,
                    [this, device, server, t0, t_pre, t1, pre_exec_s](
                        const CloudResult& r) {
                        sim::Time t2 = r.done;
                        dep->network().send_downlink(
                            server, device, app->output_bytes,
                            [this, t0, t_pre, t1, t2, pre_exec_s,
                             r](sim::Time t3) {
                                double network =
                                    sim::to_seconds(t1 - t_pre) +
                                    sim::to_seconds(t3 - t2);
                                record(sim::to_seconds(t3 - t0), network,
                                       r.mgmt_s, r.data_s,
                                       pre_exec_s + r.exec_s);
                            });
                    });
            });
    });
}

void
JobHarness::handle_task(std::size_t device)
{
    switch (dep->options().kind) {
      case PlatformKind::CentralizedFaas:
      case PlatformKind::CentralizedIaas:
        run_centralized(device);
        break;
      case PlatformKind::DistributedEdge:
        run_distributed(device);
        break;
      case PlatformKind::HiveMind:
        run_hivemind(device);
        break;
    }
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
