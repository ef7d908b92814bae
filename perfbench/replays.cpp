/**
 * @file
 * Layer replays: each layer's public calls, fed the traffic that the
 * workload's own untraced run reported, timed from benchmark code.
 *
 *  - cloud: Deployment::cloud_invoke with the scenario pipeline's
 *    request shape and parallelism at the measured task rate, advanced
 *    with Simulator::run_until one simulated second at a time.
 *  - net: SwarmTopology::send_uplink_wired / send_downlink_wired at
 *    the same frame rate with the sizes the engine offloads.
 *  - sim: a SwarmRuntime at the workload's shard count posting no-op
 *    envelopes at the measured cross-shard rate, and a hold-model
 *    kernel at the replays' pending depth.
 */

#include <cmath>

#include "bench.hpp"
#include "platform/deployment.hpp"
#include "platform/pipeline_spec.hpp"
#include "sim/swarm_runtime.hpp"

namespace perfbench {

using namespace hivemind;

namespace {

/** Keep the compiler from folding repeated pure calls. */
template <typename T>
void
escape(const T& value)
{
    asm volatile("" : : "r"(&value) : "memory");
}

/** Offload payload the engine uplinks per frame for this preset. */
std::uint64_t
uplink_bytes(const platform::PlatformOptions& opt,
             const platform::PipelineSpec& pipe)
{
    if (opt.kind == platform::PlatformKind::DistributedEdge)
        return pipe.result_bytes;
    const double raw = static_cast<double>(pipe.frame_bytes);
    if (opt.kind == platform::PlatformKind::HiveMind)
        return static_cast<std::uint64_t>(
            std::min(raw, 4.0 * 1024.0 * 1024.0 + 0.02 * raw));
    return pipe.frame_bytes;
}

/** Result (or edge-ack) payload sent back per frame. */
std::uint64_t
downlink_bytes(const platform::PlatformOptions& opt,
               const platform::PipelineSpec& pipe)
{
    return opt.kind == platform::PlatformKind::DistributedEdge
        ? 64
        : pipe.result_bytes;
}

/** Frames per simulated second, rounded; 0 means no traffic. */
std::uint64_t
per_second(double rate)
{
    return rate > 0.0 ? static_cast<std::uint64_t>(std::llround(rate)) : 0;
}

/** Arrival time of frame @p k of @p n inside second @p s. */
sim::Time
arrival(int s, std::uint64_t k, std::uint64_t n)
{
    return s * sim::kSecond +
        static_cast<sim::Time>(k) * (sim::kSecond / static_cast<sim::Time>(n));
}

/** Issues the scenario pipeline on a Deployment, timing each call. */
struct CloudLoad
{
    platform::Deployment& dep;
    platform::PipelineSpec pipe;
    cloud::FaultRecovery recovery;
    int parallelism;
    bool colocate;
    CloudReplay& acc;

    void invoke(const cloud::InvokeRequest& req,
                std::function<void(const platform::CloudResult&)> done)
    {
        SpanRecorder::Scope span(spans(), "cloud.invoke");
        const double t0 = now_s();
        dep.cloud_invoke(req, parallelism, std::move(done));
        acc.invoke_s += now_s() - t0;
        ++acc.invokes;
    }

    void frame()
    {
        cloud::InvokeRequest rec;
        rec.app = pipe.rec_app;
        rec.work_core_ms = pipe.rec_work_ms;
        rec.memory_mb = pipe.memory_mb;
        rec.input_bytes = pipe.inter_bytes;
        rec.output_bytes = pipe.inter_bytes;
        rec.recovery = recovery;
        invoke(rec, [this](const platform::CloudResult& r1) {
            if (pipe.dedup_work_ms <= 0.0)
                return;
            cloud::InvokeRequest dd;
            dd.app = pipe.dedup_app;
            dd.work_core_ms = pipe.dedup_work_ms;
            dd.memory_mb = pipe.memory_mb;
            dd.input_bytes = pipe.inter_bytes;
            dd.output_bytes = pipe.result_bytes;
            dd.recovery = recovery;
            if (colocate && r1.server != cloud::kNoServer) {
                dd.preferred_server = r1.server;
                dd.colocate_with_parent = true;
            }
            invoke(dd, nullptr);
        });
    }
};

}  // namespace

void
replay_cloud(const Traffic& t, CloudReplay& acc)
{
    SpanRecorder::Scope span(spans(), "cloud.replay");
    const platform::PlatformOptions opt =
        platform::platform_from_name(t.preset);
    platform::Deployment dep(t.deployment, opt);
    sim::Simulator& sim = dep.simulator();
    // DistributedEdge runs every stage on board: its cloud only ingests.
    const std::uint64_t n =
        opt.kind == platform::PlatformKind::DistributedEdge
        ? 0
        : per_second(t.tasks_per_sim_s);
    CloudLoad load{dep,
                       platform::pipeline_for(t.scenario.kind,
                                              t.scenario.frame_bytes_override),
                       t.scenario.recovery,
                       1,
                       opt.smart_scheduler,
                       acc};
    if (opt.kind == platform::PlatformKind::HiveMind)
        load.parallelism = load.pipe.parallelism;

    for (int s = 0; s < t.sim_seconds; ++s) {
        for (std::uint64_t k = 0; k < n; ++k)
            sim.schedule_at(arrival(s, k, n), [&load] { load.frame(); });
        SpanRecorder::Scope adv(spans(), "cloud.advance");
        const double invoke0 = acc.invoke_s;
        const std::uint64_t ev0 = sim.executed();
        const double w0 = now_s();
        sim.run_until((s + 1) * sim::kSecond);
        acc.advance_s += now_s() - w0 - (acc.invoke_s - invoke0);
        acc.events += sim.executed() - ev0 - n;  // Minus arrival events.
        acc.pending_sum += static_cast<double>(sim.pending());
        ++acc.pending_samples;
    }
    acc.sim_s += t.sim_seconds;
    acc.cold += dep.faas().cold_starts();
    acc.warm += dep.faas().warm_starts();
    if (dep.scheduler())
        acc.respawns += dep.scheduler()->respawns();

    // Placement scans on the replay's end state.
    SpanRecorder::Scope ll(spans(), "cloud.least_loaded");
    const cloud::Cluster& cluster = dep.cluster();
    const int calls = 2000;
    const double w0 = now_s();
    for (int i = 0; i < calls; ++i) {
        escape(cluster);
        const std::optional<std::size_t> best =
            cluster.least_loaded(load.pipe.memory_mb);
        escape(best);
    }
    acc.least_loaded_s += now_s() - w0;
    acc.least_loaded_calls += calls;
}

void
replay_net(const Traffic& t, NetReplay& acc)
{
    SpanRecorder::Scope span(spans(), "net.replay");
    const platform::PlatformOptions opt =
        platform::platform_from_name(t.preset);
    platform::Deployment dep(t.deployment, opt);
    sim::Simulator& sim = dep.simulator();
    net::SwarmTopology& topo = dep.network();
    const platform::PipelineSpec pipe =
        platform::pipeline_for(t.scenario.kind, t.scenario.frame_bytes_override);
    const std::uint64_t up = uplink_bytes(opt, pipe);
    const std::uint64_t down = downlink_bytes(opt, pipe);
    const std::size_t devices = dep.device_count();
    const std::size_t servers = dep.config().servers;
    const std::uint64_t n = per_second(t.tasks_per_sim_s);

    auto timed = [&acc](auto&& send) {
        SpanRecorder::Scope s(spans(), "net.send");
        const double t0 = now_s();
        send();
        acc.send_s += now_s() - t0;
        ++acc.sends;
    };
    for (int s = 0; s < t.sim_seconds; ++s) {
        for (std::uint64_t k = 0; k < n; ++k) {
            const std::size_t device = static_cast<std::size_t>(k) % devices;
            const std::size_t server = device % servers;
            sim.schedule_at(arrival(s, k, n), [&, device, server] {
                timed([&] {
                    topo.send_uplink_wired(
                        device, server, up, [&, device, server](sim::Time) {
                            timed([&] {
                                topo.send_downlink_wired(
                                    server, device, down, [](sim::Time) {});
                            });
                        });
                });
            });
        }
        SpanRecorder::Scope adv(spans(), "net.advance");
        const double send0 = acc.send_s;
        const double w0 = now_s();
        sim.run_until((s + 1) * sim::kSecond);
        acc.advance_s += now_s() - w0 - (acc.send_s - send0);
        acc.pending_sum += static_cast<double>(sim.pending());
        ++acc.pending_samples;
    }
    acc.sim_s += t.sim_seconds;
    acc.flows_high_water = std::max<std::uint64_t>(
        acc.flows_high_water, topo.flows().high_water());
}

RuntimeReplay
replay_runtime(int shards, double envelopes_per_sim_s, int sim_seconds,
               std::uint64_t seed)
{
    SpanRecorder::Scope span(spans(), "sim.runtime_replay");
    sim::SwarmRuntime rt(shards);
    const sim::Time channel = sim::from_millis(2.0);
    for (int a = 0; a < shards; ++a)
        for (int b = 0; b < shards; ++b)
            rt.declare_channel(a, b, channel);
    // Cross-shard traffic only exists with more than one shard; a
    // same-shard post is delivered directly and never forwarded.
    const std::uint64_t n = shards > 1 ? per_second(envelopes_per_sim_s) : 0;
    sim::Rng rng(seed);
    RuntimeReplay r;
    for (int s = 0; s < sim_seconds; ++s) {
        for (std::uint64_t k = 0; k < n; ++k) {
            const int src = static_cast<int>(rng.pick(shards));
            const int dst = (src + 1 + static_cast<int>(rng.pick(shards - 1))) %
                shards;
            rt.post(src, dst, channel + arrival(s, k, n), k, [] {});
        }
        SpanRecorder::Scope slice(spans(), "sim.run_until");
        const double w0 = now_s();
        const sim::SwarmRuntime::Report rep =
            rt.run_until((s + 1) * sim::kSecond);
        r.wall_s += now_s() - w0;
        r.epochs += rep.epochs;
        r.forwarded += rep.forwarded;
    }
    r.sim_s = sim_seconds;
    return r;
}

double
replay_kernel(std::size_t pending, std::uint64_t seed)
{
    SpanRecorder::Scope span(spans(), "sim.kernel_replay");
    // Hold model: `pending` events, each re-arming itself a uniform
    // delay ahead, so the queue depth stays constant while it runs.
    sim::Simulator k;
    sim::Rng rng(seed);
    pending = std::max<std::size_t>(pending, 1);
    const sim::Time horizon = 2 * sim::kSecond;
    for (std::size_t i = 0; i < pending; ++i)
        k.schedule_at(rng.uniform_int(0, horizon), [&k, &rng] {
            k.rearm_in(rng.uniform_int(1, horizon));
        });
    // About two million events: pending events per simulated second.
    const double sim_span_s = 2e6 / static_cast<double>(pending);
    const std::uint64_t ev0 = k.executed();
    const double w0 = now_s();
    k.run_until(static_cast<sim::Time>(sim_span_s * 1e9));
    const double wall = now_s() - w0;
    const std::uint64_t events = k.executed() - ev0;
    return events > 0 ? wall * 1e9 / static_cast<double>(events) : 0.0;
}

}  // namespace perfbench
