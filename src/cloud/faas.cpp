#include "cloud/faas.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

namespace hivemind::cloud {

FaasRuntime::FaasRuntime(sim::Simulator& simulator, sim::Rng& rng,
                         Cluster& cluster, DataStore& store,
                         const FaasConfig& config)
    : simulator_(&simulator),
      rng_(rng.fork()),
      cluster_(&cluster),
      config_(config),
      sharing_(simulator, rng, store)
{
    for (int r = 0; r < std::max(config.controllers, 1); ++r)
        controller_free_.push(0);
    intern("");  // AppId{}: requests that name no app.
}

AppId
FaasRuntime::intern(std::string_view name)
{
    for (std::size_t i = 0; i < app_names_.size(); ++i) {
        if (app_names_[i] == name)
            return AppId{static_cast<std::uint32_t>(i)};
    }
    app_names_.emplace_back(name);
    return AppId{static_cast<std::uint32_t>(app_names_.size() - 1)};
}

void
FaasRuntime::set_placement_policy(PlacementPolicy policy)
{
    policy_ = std::move(policy);
}

void
FaasRuntime::complete_invocation(std::uint32_t slot)
{
    Invocation& inv = invocations_[slot];
    InvokeCallback done = std::move(inv.done);
    const InvocationTrace trace = inv.trace;
    inv.done = nullptr;
    invocations_.release(slot);
    if (done)
        done(trace);
}

bool
FaasRuntime::container_lost(const Invocation& inv) const
{
    return inv.trace.server != kNoServer &&
        cluster_->server(inv.trace.server).epoch() != inv.epoch;
}

void
FaasRuntime::crash_server(std::size_t server)
{
    if (server >= cluster_->size())
        return;
    Server& srv = cluster_->server(server);
    if (srv.down())
        return;
    srv.set_down(true);
    srv.bump_epoch();

    // Warm containers on the host die with it: drop their pool entries
    // and cancel the keep-alive expiries. Their memory claims (and the
    // ones of every in-flight container) are wiped wholesale below, so
    // per-entry releases would double-free. The sweep runs in app id
    // order; the order cannot matter, since it only cancels expiries
    // and frees pool slots, and which kernel or pool slot a later
    // event or container takes decides nothing about the order things
    // run in.
    for (WarmApp& pool : warm_) {
        if (pool.newest_on.empty())
            continue;  // The app never parked a container.
        while (pool.newest_on[server] != kNil) {
            std::uint32_t slot = pool.newest_on[server];
            simulator_->cancel(warm_slots_[slot].expiry);
            unpark(slot);
        }
    }
    srv.reset_occupancy();

    // Kill the bodies executing on the host and re-drive each through
    // its Restore policy, in body start order so recovery runs are
    // bit-identical. Invocations caught in another phase
    // (instantiation, data sharing) notice the epoch bump when their
    // callback fires.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> victims;
    for (std::uint32_t slot = 0; slot < invocations_.size(); ++slot) {
        const Invocation& inv = invocations_[slot];
        if (inv.body_event != 0 && inv.trace.server == server)
            victims.emplace_back(inv.body_id, slot);
    }
    std::sort(victims.begin(), victims.end());
    for (const auto& [body_id, slot] : victims) {
        (void)body_id;
        Invocation& inv = invocations_[slot];
        simulator_->cancel(inv.body_event);
        inv.body_event = 0;
        double elapsed_ms =
            sim::to_millis(simulator_->now() - inv.exec_start);
        double frac = inv.full_exec_ms > 0.0
            ? std::clamp(elapsed_ms / inv.full_exec_ms, 0.0, 1.0)
            : 1.0;
        double progressed = inv.completed_fraction +
            (1.0 - inv.completed_fraction) * frac;
        redrive_after_crash(slot, progressed);
    }
}

void
FaasRuntime::restore_server(std::size_t server)
{
    if (server >= cluster_->size())
        return;
    Server& srv = cluster_->server(server);
    if (!srv.down())
        return;
    srv.set_down(false);
    drain_queue();
}

void
FaasRuntime::redrive_after_crash(std::uint32_t slot, double progressed)
{
    --running_;
    ++killed_invocations_;
    recover(slot, progressed);
}

void
FaasRuntime::recover(std::uint32_t slot, double progressed)
{
    Invocation& inv = invocations_[slot];
    double saved = inv.completed_fraction;
    if (inv.request.recovery == FaultRecovery::Checkpoint) {
        // Work up to the last checkpoint boundary survives.
        double g = inv.request.checkpoint_granularity;
        if (g > 0.0)
            saved = std::max(saved, std::floor(progressed / g) * g);
    }
    const double redone = (progressed - saved) * inv.request.work_core_ms;
    work_lost_core_ms_ += redone;
    drain_queue();
    if (inv.request.recovery == FaultRecovery::None) {
        // Lost: report once so callers can count misses.
        ++lost_;
        inv.trace.lost = true;
        inv.trace.exec_done = simulator_->now();
        inv.trace.done = inv.trace.exec_done;
        ++completed_;
        --active_;
        complete_invocation(slot);
        return;
    }
    reexecuted_core_ms_ += redone;
    inv.completed_fraction = saved;
    inv.trace.attempts += 1;
    // Retry skips the front-end but re-enters scheduling.
    simulator_->schedule_in(config_.sched_overhead + config_.bus_delay,
                            [this, slot]() { scheduled(slot); });
}

void
FaasRuntime::invoke(const InvokeRequest& request, InvokeCallback done)
{
    const std::uint32_t slot = invocations_.acquire();
    Invocation& inv = invocations_[slot];
    inv.request = request;
    inv.done = std::move(done);
    inv.trace = InvocationTrace{};
    inv.trace.submit = simulator_->now();
    inv.completed_fraction = 0.0;
    inv.epoch = 0;
    ++active_;

    // Front-end: NGINX + controller authentication against the DB,
    // then the scheduling decision and the Kafka hop. The controller
    // replicas form a FIFO service queue whose saturation is the
    // centralized-scalability bottleneck of Sec. 5.6.
    double fe_ms = rng_.lognormal_median(
        sim::to_millis(config_.front_end_median), config_.front_end_sigma);
    sim::Time service = sim::from_seconds(1.0 / config_.controller_rps);
    sim::Time start = std::max(controller_free_.top(), simulator_->now());
    controller_free_.pop();
    controller_free_.push(start + service);
    sim::Time decided = start + service + sim::from_millis(fe_ms) +
        config_.sched_overhead + config_.bus_delay;
    simulator_->schedule_at(decided, [this, slot]() { scheduled(slot); });
}

void
FaasRuntime::scheduled(std::uint32_t slot)
{
    invocations_[slot].trace.scheduled = simulator_->now();
    try_start(slot);
}

std::optional<std::size_t>
FaasRuntime::peek_warm(AppId app, std::size_t preferred) const
{
    if (app.index >= warm_.size() || warm_[app.index].newest == kNil)
        return std::nullopt;
    const WarmApp& pool = warm_[app.index];
    if (preferred < pool.newest_on.size() && pool.newest_on[preferred] != kNil)
        return preferred;
    return warm_slots_[pool.newest].server;
}

std::optional<std::size_t>
FaasRuntime::claim_warm(AppId app, std::size_t preferred)
{
    if (app.index >= warm_.size())
        return std::nullopt;
    const WarmApp& pool = warm_[app.index];
    auto usable = [this](std::size_t server) {
        const Server& s = cluster_->server(server);
        return !s.down() && s.free_cores() > 0 && !s.on_probation();
    };
    std::uint32_t slot = kNil;
    if (preferred < pool.newest_on.size() &&
        pool.newest_on[preferred] != kNil && usable(preferred)) {
        slot = pool.newest_on[preferred];
    } else {
        for (std::uint32_t s = pool.newest; s != kNil;
             s = warm_slots_[s].older) {
            if (usable(warm_slots_[s].server)) {
                slot = s;
                break;
            }
        }
    }
    if (slot == kNil)
        return std::nullopt;
    const WarmEntry e = warm_slots_[slot];
    unpark(slot);
    simulator_->cancel(e.expiry);
    // Memory stays reserved; the container transitions idle -> active.
    cluster_->server(e.server).release_memory(e.memory_mb);
    return e.server;
}

void
FaasRuntime::enqueue(std::uint32_t slot)
{
    queue_[invocations_[slot].request.priority].push_back(slot);
}

bool
FaasRuntime::try_start(std::uint32_t slot)
{
    if (running_ >= config_.max_concurrency) {
        // User concurrency limit: park until capacity frees up.
        enqueue(slot);
        return false;
    }

    const InvokeRequest& request = invocations_[slot].request;
    std::optional<std::size_t> warm_server = request.isolate
        ? std::nullopt
        : peek_warm(request.app, request.preferred_server);

    std::optional<std::size_t> target;
    if (policy_) {
        target = policy_(request, *cluster_, warm_server);
    } else {
        // Stock policy: prefer a warm container, else least loaded.
        if (warm_server &&
            cluster_->server(*warm_server).free_cores() > 0 &&
            !cluster_->server(*warm_server).on_probation()) {
            target = warm_server;
        } else {
            target = cluster_->least_loaded(request.memory_mb);
        }
    }

    if (!target) {
        enqueue(slot);
        return false;
    }

    bool reuse = false;
    if (warm_server && *target == *warm_server) {
        auto claimed = claim_warm(request.app, *target);
        if (claimed && *claimed == *target)
            reuse = true;
        else if (claimed) {
            // Claimed a warm container elsewhere; follow it.
            target = claimed;
            reuse = true;
        }
    }
    if (!reuse && !cluster_->server(*target).can_host(request.memory_mb)) {
        enqueue(slot);
        return false;
    }
    start_on_server(slot, *target, reuse);
    return true;
}

void
FaasRuntime::start_on_server(std::uint32_t slot, std::size_t server,
                             bool reuse_warm)
{
    Invocation& inv = invocations_[slot];
    Server& srv = cluster_->server(server);
    srv.acquire_core();
    srv.acquire_memory(inv.request.memory_mb);
    ++running_;
    inv.trace.server = server;
    inv.epoch = srv.epoch();

    sim::Time start_latency;
    if (reuse_warm) {
        ++warm_starts_;
        inv.trace.cold_start = false;
        inv.trace.colocated = inv.request.colocate_with_parent &&
            server == inv.request.preferred_server;
        start_latency = config_.warm_start;
    } else {
        ++cold_starts_;
        inv.trace.cold_start = true;
        start_latency = sim::from_millis(rng_.lognormal_median(
            sim::to_millis(config_.cold_start_median),
            config_.cold_start_sigma));
    }
    simulator_->schedule_in(start_latency,
                            [this, slot]() { container_started(slot); });
}

void
FaasRuntime::container_started(std::uint32_t slot)
{
    Invocation& inv = invocations_[slot];
    if (container_lost(inv)) {
        // The host crashed while the container was starting.
        redrive_after_crash(slot, inv.completed_fraction);
        return;
    }
    inv.trace.container_ready = simulator_->now();
    // Fetch input produced by a parent function, if any.
    if (inv.request.input_bytes > 0) {
        SharingProtocol proto = inv.trace.colocated
            ? SharingProtocol::InMemory
            : config_.sharing;
        sharing_.share(proto, inv.request.input_bytes, [this, slot]() {
            invocations_[slot].trace.input_ready = simulator_->now();
            run_body(slot);
        });
    } else {
        inv.trace.input_ready = inv.trace.container_ready;
        run_body(slot);
    }
}

void
FaasRuntime::run_body(std::uint32_t slot)
{
    Invocation& inv = invocations_[slot];
    if (container_lost(inv)) {
        // The host crashed while the input was being fetched.
        redrive_after_crash(slot, inv.completed_fraction);
        return;
    }
    const Server& srv = cluster_->server(inv.trace.server);
    // Interference scales with how full the host is (Sec. 3.3);
    // optional performance isolation (cache/bandwidth partitioning,
    // Sec. 4.3) removes the load-dependent part.
    double sigma = config_.interference_base_sigma +
        (config_.performance_isolation
             ? 0.0
             : config_.interference_load_sigma * srv.occupancy());
    double factor = rng_.lognormal_median(1.0, sigma);
    if (rng_.chance(config_.straggler_prob)) {
        factor *= rng_.bounded_pareto(1.5, config_.straggler_max_factor, 1.2);
    }
    double remaining = 1.0 - inv.completed_fraction;
    double exec_ms = inv.request.work_core_ms * factor * remaining;

    // The body is marked running (body_event) so a server crash can
    // kill it (cancel the event, measure progress, re-drive). A
    // self-fault (fault_prob, Listing 2 / Sec. 3.2) schedules the
    // death instead of the completion; a crash arriving first wins
    // either way.
    bool self_fault = rng_.chance(config_.fault_prob * remaining);
    double dead_frac = 0.0;
    if (self_fault) {
        dead_frac = rng_.uniform(0.05, 0.95);
        ++faults_;
    }
    sim::Time fire_in =
        sim::from_millis(self_fault ? exec_ms * dead_frac : exec_ms);

    inv.body_id = next_body_id_++;
    inv.body_event = simulator_->schedule_in(
        fire_in, [this, slot]() { body_ended(slot); });
    inv.exec_start = simulator_->now();
    inv.full_exec_ms = exec_ms;
    inv.self_fault = self_fault;
    inv.dead_frac = dead_frac;
}

void
FaasRuntime::body_ended(std::uint32_t slot)
{
    Invocation& inv = invocations_[slot];
    inv.body_event = 0;
    if (inv.self_fault) {
        body_self_fault(slot);
    } else {
        inv.trace.exec_done = simulator_->now();
        finish(slot);
    }
}

void
FaasRuntime::body_self_fault(std::uint32_t slot)
{
    // The function dies partway through on a live host: its core and
    // memory come back before the Restore policy runs.
    const Invocation& inv = invocations_[slot];
    Server& s = cluster_->server(inv.trace.server);
    s.release_core();
    s.release_memory(inv.request.memory_mb);
    --running_;
    double progressed = inv.completed_fraction +
        (1.0 - inv.completed_fraction) * inv.dead_frac;
    recover(slot, progressed);
}

void
FaasRuntime::finish(std::uint32_t slot)
{
    const Invocation& inv = invocations_[slot];
    if (inv.request.output_bytes > 0) {
        SharingProtocol proto = inv.trace.colocated
            ? SharingProtocol::InMemory
            : config_.sharing;
        sharing_.share(proto, inv.request.output_bytes,
                       [this, slot]() { output_published(slot); });
    } else {
        output_published(slot);
    }
}

void
FaasRuntime::output_published(std::uint32_t slot)
{
    Invocation& inv = invocations_[slot];
    if (container_lost(inv)) {
        // The host crashed while the output was being published; the
        // work itself finished, so progress is 1.0 and a Checkpoint
        // re-drive only re-publishes.
        redrive_after_crash(slot, 1.0);
        return;
    }
    Server& srv = cluster_->server(inv.trace.server);
    srv.release_core();
    srv.release_memory(inv.request.memory_mb);
    --running_;
    // Park the now-idle container for warm reuse — unless the task
    // demanded a dedicated container (Isolate directive).
    if (!inv.request.isolate)
        park_warm(inv.request.app, inv.trace.server, inv.request.memory_mb);
    inv.trace.done = simulator_->now();
    ++completed_;
    --active_;
    drain_queue();
    complete_invocation(slot);
}

void
FaasRuntime::park_warm(AppId app, std::size_t server, std::uint64_t memory_mb)
{
    if (config_.keepalive <= 0)
        return;
    Server& srv = cluster_->server(server);
    if (!srv.has_memory(memory_mb))
        return;  // Under memory pressure, tear down instead.
    srv.acquire_memory(memory_mb);
    std::uint32_t slot = warm_free_;
    if (slot == kNil) {
        slot = static_cast<std::uint32_t>(warm_slots_.size());
        warm_slots_.emplace_back();
    } else {
        warm_free_ = warm_slots_[slot].older;
    }
    std::uint32_t generation = warm_slots_[slot].generation;
    sim::EventId expiry = simulator_->schedule_in(
        config_.keepalive, [this, slot, generation]() {
            expire_warm(slot, generation);
        });

    if (app.index >= warm_.size())
        warm_.resize(app.index + 1);
    WarmApp& pool = warm_[app.index];
    if (pool.newest_on.empty())
        pool.newest_on.assign(cluster_->size(), kNil);
    WarmEntry& e = warm_slots_[slot];
    e.memory_mb = memory_mb;
    e.expiry = expiry;
    e.server = server;
    e.app = app;
    e.newer = kNil;
    e.older = pool.newest;
    e.newer_here = kNil;
    e.older_here = pool.newest_on[server];
    if (e.older != kNil)
        warm_slots_[e.older].newer = slot;
    if (e.older_here != kNil)
        warm_slots_[e.older_here].newer_here = slot;
    pool.newest = slot;
    pool.newest_on[server] = slot;
}

void
FaasRuntime::expire_warm(std::uint32_t slot, std::uint32_t generation)
{
    const WarmEntry& e = warm_slots_[slot];
    if (e.generation != generation)
        return;  // Claimed, or died in a crash, first.
    cluster_->server(e.server).release_memory(e.memory_mb);
    unpark(slot);
    // Freed memory may unblock queued invocations.
    drain_queue();
}

void
FaasRuntime::unpark(std::uint32_t slot)
{
    WarmEntry& e = warm_slots_[slot];
    WarmApp& pool = warm_[e.app.index];
    (e.newer == kNil ? pool.newest : warm_slots_[e.newer].older) = e.older;
    if (e.older != kNil)
        warm_slots_[e.older].newer = e.newer;
    (e.newer_here == kNil ? pool.newest_on[e.server]
                          : warm_slots_[e.newer_here].older_here) =
        e.older_here;
    if (e.older_here != kNil)
        warm_slots_[e.older_here].newer_here = e.newer_here;
    ++e.generation;
    e.older = warm_free_;
    warm_free_ = slot;
}

void
FaasRuntime::drain_queue()
{
    // One bounded sweep in priority order: try_start re-queues at the
    // back on failure. Under deep backlogs requests are homogeneous,
    // so a run of consecutive placement failures means the sweep
    // should stop — without the bound a per-completion full-queue
    // scan turns the saturated regime quadratic.
    int consecutive_failures = 0;
    for (auto& [prio, q] : queue_) {
        (void)prio;
        std::size_t n = q.size();
        for (std::size_t i = 0; i < n && !q.empty(); ++i) {
            const std::uint32_t slot = q.front();
            q.pop_front();
            if (try_start(slot)) {
                consecutive_failures = 0;
            } else if (++consecutive_failures >= 16) {
                return;
            }
        }
    }
}

void
FaasRuntime::invoke_fan_out(const InvokeRequest& request, int ways,
                            const PartInvoker& invoke_part,
                            JoinCallback done)
{
    const int parts = std::max(ways, 1);
    const std::uint32_t slot = joins_.acquire();
    Join& join = joins_[slot];
    join.done = std::move(done);
    join.remaining = parts;
    join.first = true;
    auto part_done = [this, slot](const InvocationTrace& t) {
        join_part(slot, t);
    };
    if (parts == 1) {
        invoke_part(request, part_done);
        return;
    }
    // Fan out: each worker gets an equal slice of the work plus its
    // share of the input; fan-in pays one aggregation hand-off per
    // worker (distributing work and aggregating results "incurs
    // overheads from data sharing and synchronization", Sec. 3.2).
    InvokeRequest part = request;
    part.work_core_ms = request.work_core_ms / static_cast<double>(parts);
    part.input_bytes = request.input_bytes / static_cast<std::uint64_t>(parts);
    part.output_bytes =
        request.output_bytes / static_cast<std::uint64_t>(parts);
    for (int w = 0; w < parts; ++w)
        invoke_part(part, part_done);
}

void
FaasRuntime::join_part(std::uint32_t slot, const InvocationTrace& t)
{
    Join& join = joins_[slot];
    if (join.first) {
        join.merged = t;
        join.first = false;
    } else {
        // The merged trace spans the slowest path.
        InvocationTrace& m = join.merged;
        m.scheduled = std::max(m.scheduled, t.scheduled);
        m.container_ready = std::max(m.container_ready, t.container_ready);
        m.input_ready = std::max(m.input_ready, t.input_ready);
        m.exec_done = std::max(m.exec_done, t.exec_done);
        m.done = std::max(m.done, t.done);
        m.submit = std::min(m.submit, t.submit);
        m.cold_start |= t.cold_start;
        m.lost |= t.lost;  // One lost part loses the whole task.
    }
    if (--join.remaining > 0)
        return;
    // Free the record before the callback, which may fan out again.
    JoinCallback done = std::move(join.done);
    const InvocationTrace merged = join.merged;
    join.done = nullptr;
    joins_.release(slot);
    if (done)
        done(merged);
}

void
FaasRuntime::invoke_parallel(const InvokeRequest& request, int ways,
                             InvokeCallback done)
{
    invoke_fan_out(
        request, ways,
        [this](const InvokeRequest& part, InvokeCallback cb) {
            invoke(part, std::move(cb));
        },
        std::move(done));
}

}  // namespace hivemind::cloud
