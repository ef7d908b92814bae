#include "platform/graph_runner.hpp"

#include <map>
#include <memory>

namespace hivemind::platform {

namespace {

/** State of one in-flight graph activation. */
struct Activation
{
    std::size_t device;
    sim::Time start = 0;
    /** Tasks whose outputs are ready, with completion times. */
    std::map<std::string, sim::Time> finished;
    /** Remaining unmet parent count per task. */
    std::map<std::string, int> waiting;
    /** Server that ran each cloud task (co-location hints). */
    std::map<std::string, std::size_t> servers;
    /** Accumulated stage shares. */
    double network_s = 0.0;
    double mgmt_s = 0.0;
    double data_s = 0.0;
    double exec_s = 0.0;
    int remaining = 0;    ///< Tasks not yet finished.
    /** A crossing ran out of retransmits: the activation is lost, so
     *  nothing is recorded and no later task starts. */
    bool dropped = false;
};

/** The whole run's mutable state. */
struct GraphHarness
{
    Deployment* dep;
    const dsl::TaskGraph* graph;
    const synth::PlacementAssignment* placement;
    RunMetrics metrics;
    sim::Rng arrivals;
    std::size_t next_server = 0;
    /** Each task's app ("graph:task") on the deployment's runtime. */
    std::map<std::string, cloud::AppId> apps;

    GraphHarness(Deployment& d, const dsl::TaskGraph& g,
                 const synth::PlacementAssignment& p)
        : dep(&d), graph(&g), placement(&p), arrivals(d.rng().fork())
    {
        for (const std::string& name : g.task_names())
            apps[name] = d.faas().intern(g.name() + ":" + name);
    }

    void start_activation(std::size_t device);
    void launch_task(const std::shared_ptr<Activation>& act,
                     const std::string& name, sim::Time ready_at);
    void task_finished(const std::shared_ptr<Activation>& act,
                       const std::string& name);
};

void
GraphHarness::start_activation(std::size_t device)
{
    auto act = std::make_shared<Activation>();
    act->device = device;
    act->start = dep->simulator().now();
    act->remaining = static_cast<int>(graph->size());
    for (const std::string& name : graph->task_names()) {
        act->waiting[name] =
            static_cast<int>(graph->task(name).parents.size());
    }
    for (const std::string& root : graph->roots())
        launch_task(act, root, act->start);
}

void
GraphHarness::launch_task(const std::shared_ptr<Activation>& act,
                          const std::string& name, sim::Time ready_at)
{
    const dsl::TaskDef& task = graph->task(name);
    synth::Location loc = placement->at(name);

    // Latest-finishing parent determines the data source.
    sim::Time parents_done = ready_at;
    std::string latest_parent;
    for (const std::string& p : task.parents) {
        auto it = act->finished.find(p);
        if (it != act->finished.end() && it->second >= parents_done) {
            parents_done = it->second;
            latest_parent = p;
        }
    }

    auto self = this;
    if (loc == synth::Location::Edge) {
        // Crossing cloud -> edge first? Ship the parent output down.
        auto run_local = [self, act, name, task]() {
            edge::Device& dev = self->dep->device(act->device);
            dev.executor().submit(
                task.work_core_ms, [self, act, name](double exec_s) {
                    act->exec_s += exec_s;
                    self->task_finished(act, name);
                });
        };
        bool parent_in_cloud = !latest_parent.empty() &&
            placement->at(latest_parent) == synth::Location::Cloud;
        if (parent_in_cloud) {
            std::size_t from = act->servers.count(latest_parent)
                ? act->servers[latest_parent]
                : act->device % dep->config().servers;
            sim::Time t0 = dep->simulator().now();
            dep->network().send_downlink(
                from, act->device, task.input_bytes,
                [self, act, t0, run_local](sim::Time t1) {
                    if (t1 == net::kDropped) {
                        act->dropped = true;
                        return;
                    }
                    act->network_s += sim::to_seconds(t1 - t0);
                    run_local();
                });
        } else {
            run_local();
        }
        return;
    }

    // Cloud task. If the latest parent ran at the edge, the input
    // crosses the wireless boundary; if it ran in the cloud, the
    // sharing fabric inside the runtime handles the hand-off.
    bool parent_at_edge = latest_parent.empty() ||
        placement->at(latest_parent) == synth::Location::Edge;
    cloud::InvokeRequest req;
    req.app = apps.at(name);
    req.work_core_ms = task.work_core_ms;
    req.memory_mb = 256;
    req.input_bytes = parent_at_edge ? 0 : task.input_bytes;
    req.output_bytes = task.persist ? task.output_bytes : 0;
    if (task.restore == dsl::RestorePolicy::Checkpoint)
        req.recovery = cloud::FaultRecovery::Checkpoint;
    else if (task.restore == dsl::RestorePolicy::None)
        req.recovery = cloud::FaultRecovery::None;
    req.isolate = task.isolate;
    req.priority = task.priority;
    if (!latest_parent.empty() && !parent_at_edge &&
        dep->options().smart_scheduler &&
        act->servers.count(latest_parent)) {
        req.preferred_server = act->servers[latest_parent];
        req.colocate_with_parent = true;
    }
    int par = dep->options().smart_scheduler
        ? std::max(1, task.parallelism)
        : 1;

    auto invoke_cloud = [self, act, name, req, par]() {
        self->dep->cloud_invoke(
            req, par, [self, act, name](const CloudResult& r) {
                act->mgmt_s += r.mgmt_s;
                act->data_s += r.data_s;
                act->exec_s += r.exec_s;
                if (r.server != cloud::kNoServer)
                    act->servers[name] = r.server;
                self->task_finished(act, name);
            });
    };
    if (parent_at_edge) {
        std::size_t server = next_server;
        next_server = (next_server + 1) % dep->config().servers;
        sim::Time t0 = dep->simulator().now();
        dep->network().send_uplink(
            act->device, server, task.input_bytes,
            [self, act, t0, invoke_cloud](sim::Time t1) {
                if (t1 == net::kDropped) {
                    act->dropped = true;
                    return;
                }
                act->network_s += sim::to_seconds(t1 - t0);
                invoke_cloud();
            });
    } else {
        invoke_cloud();
    }
}

void
GraphHarness::task_finished(const std::shared_ptr<Activation>& act,
                            const std::string& name)
{
    if (act->dropped)
        return;
    sim::Time now = dep->simulator().now();
    act->finished[name] = now;
    --act->remaining;
    for (const std::string& child : graph->task(name).children) {
        if (--act->waiting[child] == 0)
            launch_task(act, child, now);
    }
    if (act->remaining == 0) {
        metrics.record_task(sim::to_seconds(now - act->start), act->network_s,
                            act->mgmt_s, act->data_s, act->exec_s);
    }
}

}  // namespace

RunMetrics
run_task_graph(const dsl::TaskGraph& graph,
               const synth::PlacementAssignment& placement,
               const PlatformOptions& options,
               const DeploymentConfig& deployment_config,
               const JobConfig& job, double activation_rate_hz)
{
    Deployment dep(deployment_config, options);
    GraphHarness harness(dep, graph, placement);
    install_poisson_arrivals(
        dep, harness.arrivals, activation_rate_hz, job,
        [&harness](std::size_t d) { harness.start_activation(d); });
    dep.simulator().run_until(job.duration + job.drain);
    settle_energy(dep, job);
    collect_shared(dep, job, harness.metrics);
    return harness.metrics;
}

synth::Profiler
make_simulation_profiler(const PlatformOptions& options,
                         const DeploymentConfig& deployment,
                         const JobConfig& job, double activation_rate_hz)
{
    return [options, deployment, job, activation_rate_hz](
               const dsl::TaskGraph& graph,
               const synth::PlacementAssignment& placement) {
        RunMetrics m = run_task_graph(graph, placement, options, deployment,
                                      job, activation_rate_hz);
        synth::PlacementEstimate est;
        est.latency_s = m.task_latency_s.mean();
        // Joules per activation per device.
        double activations = static_cast<double>(m.tasks_completed);
        if (activations > 0.0) {
            double total_j = 0.0;
            // battery_pct holds one entry per device; convert back.
            for (double pct : m.battery_pct.samples()) {
                total_j +=
                    pct / 100.0 * deployment.device_spec.battery_j;
            }
            est.edge_energy_j = total_j / activations;
        }
        est.crossing_bytes = static_cast<std::uint64_t>(
            m.bandwidth_MBps.mean() * 1e6 /
            std::max(1e-9,
                     activations /
                         sim::to_seconds(job.duration)));
        return est;
    };
}

}  // namespace hivemind::platform
