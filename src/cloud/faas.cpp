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
      sharing_(simulator, rng, store, SharingConfig{})
{
    for (int r = 0; r < std::max(config.controllers, 1); ++r)
        controller_free_.push(0);
}

void
FaasRuntime::set_placement_policy(PlacementPolicy policy)
{
    policy_ = std::move(policy);
}

bool
FaasRuntime::container_lost(const PendingInvocation& inv) const
{
    return inv.trace.server != kNoServer &&
        cluster_->server(inv.trace.server).epoch() != inv.epoch;
}

void
FaasRuntime::crash_server(std::size_t server, sim::Time down_for)
{
    if (server >= cluster_->size())
        return;
    Server& srv = cluster_->server(server);
    if (srv.down())
        return;
    ++server_crashes_;
    srv.set_down(true);
    srv.bump_epoch();

    // Warm containers on the host die with it: drop their pool entries
    // and cancel the keep-alive expiries. Their memory claims (and the
    // ones of every in-flight container) are wiped wholesale below, so
    // per-entry releases would double-free.
    for (auto& [app, pool] : warm_) {
        (void)app;
        while (pool.newest_on[server] != kNil) {
            std::uint32_t slot = pool.newest_on[server];
            simulator_->cancel(warm_slots_[slot].expiry);
            unpark(slot);
        }
    }
    srv.reset_occupancy();

    // Kill the bodies executing on the host and re-drive each through
    // its Restore policy. Invocations caught in another phase
    // (instantiation, data sharing) notice the epoch bump when their
    // callback fires. body_inflight_ is an ordered map, so victims are
    // processed in a deterministic order.
    std::vector<std::uint64_t> victims;
    for (const auto& [id, body] : body_inflight_) {
        if (body.inv.trace.server == server)
            victims.push_back(id);
    }
    for (std::uint64_t id : victims) {
        auto it = body_inflight_.find(id);
        BodyInFlight body = std::move(it->second);
        body_inflight_.erase(it);
        simulator_->cancel(body.event);
        double elapsed_ms =
            sim::to_millis(simulator_->now() - body.exec_start);
        double frac = body.full_exec_ms > 0.0
            ? std::clamp(elapsed_ms / body.full_exec_ms, 0.0, 1.0)
            : 1.0;
        double progressed = body.inv.completed_fraction +
            (1.0 - body.inv.completed_fraction) * frac;
        redrive_after_crash(std::move(body.inv), progressed);
    }

    if (down_for > 0) {
        auto self = this;
        simulator_->schedule_in(down_for, [self, server]() {
            self->restore_server(server);
        });
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
FaasRuntime::redrive_after_crash(PendingInvocation inv, double progressed)
{
    --running_;
    ++killed_invocations_;
    recover(std::move(inv), progressed);
}

void
FaasRuntime::recover(PendingInvocation inv, double progressed)
{
    double saved = inv.completed_fraction;
    if (inv.request.recovery == FaultRecovery::Checkpoint) {
        // Work up to the last checkpoint boundary survives.
        double g = inv.request.checkpoint_granularity;
        if (g > 0.0)
            saved = std::max(saved, std::floor(progressed / g) * g);
    }
    work_lost_core_ms_ += (progressed - saved) * inv.request.work_core_ms;
    drain_queue();
    if (inv.request.recovery == FaultRecovery::None) {
        // Lost: report once so callers can count misses.
        ++lost_;
        inv.trace.lost = true;
        inv.trace.exec_done = simulator_->now();
        inv.trace.done = inv.trace.exec_done;
        ++completed_;
        bump_active(-1);
        if (inv.done)
            inv.done(inv.trace);
        return;
    }
    reexecuted_core_ms_ += (progressed - saved) * inv.request.work_core_ms;
    inv.completed_fraction = saved;
    inv.trace.attempts += 1;
    // Retry skips the front-end but re-enters scheduling.
    auto self = this;
    simulator_->schedule_in(
        config_.sched_overhead + config_.bus_delay,
        [self, inv = std::move(inv)]() mutable {
            inv.trace.scheduled = self->simulator_->now();
            self->try_start(std::move(inv));
        });
}

void
FaasRuntime::bump_active(int delta)
{
    active_ += delta;
    active_series_.add(simulator_->now(), static_cast<double>(active_));
}

void
FaasRuntime::invoke(const InvokeRequest& request, InvokeCallback done)
{
    PendingInvocation inv;
    inv.request = request;
    inv.done = std::move(done);
    inv.trace.submit = simulator_->now();
    bump_active(1);

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
    auto self = this;
    simulator_->schedule_at(decided, [self, inv = std::move(inv)]() mutable {
        inv.trace.scheduled = self->simulator_->now();
        self->try_start(std::move(inv));
    });
}

std::optional<std::size_t>
FaasRuntime::peek_warm(const std::string& app, std::size_t preferred) const
{
    auto it = warm_.find(app);
    if (it == warm_.end() || it->second.newest == kNil)
        return std::nullopt;
    const WarmApp& pool = it->second;
    if (preferred < pool.newest_on.size() && pool.newest_on[preferred] != kNil)
        return preferred;
    return warm_slots_[pool.newest].server;
}

std::optional<std::size_t>
FaasRuntime::claim_warm(const std::string& app, std::size_t preferred)
{
    auto it = warm_.find(app);
    if (it == warm_.end())
        return std::nullopt;
    const WarmApp& pool = it->second;
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

bool
FaasRuntime::try_start(PendingInvocation inv)
{
    if (running_ >= config_.max_concurrency) {
        // User concurrency limit: park until capacity frees up.
        int prio = inv.request.priority;
        queue_[prio].push_back(std::move(inv));
        return false;
    }

    std::optional<std::size_t> warm_server = inv.request.isolate
        ? std::nullopt
        : peek_warm(inv.request.app, inv.request.preferred_server);

    std::optional<std::size_t> target;
    if (policy_) {
        target = policy_(inv.request, *cluster_, warm_server);
    } else {
        // Stock policy: prefer a warm container, else least loaded.
        if (warm_server &&
            cluster_->server(*warm_server).free_cores() > 0 &&
            !cluster_->server(*warm_server).on_probation()) {
            target = warm_server;
        } else {
            target = cluster_->least_loaded(inv.request.memory_mb);
        }
    }

    if (!target) {
        int prio = inv.request.priority;
        queue_[prio].push_back(std::move(inv));
        return false;
    }

    bool reuse = false;
    if (warm_server && *target == *warm_server) {
        auto claimed = claim_warm(inv.request.app, *target);
        if (claimed && *claimed == *target)
            reuse = true;
        else if (claimed) {
            // Claimed a warm container elsewhere; follow it.
            target = claimed;
            reuse = true;
        }
    }
    if (!reuse && !cluster_->server(*target).can_host(inv.request.memory_mb)) {
        int prio = inv.request.priority;
        queue_[prio].push_back(std::move(inv));
        return false;
    }
    start_on_server(std::move(inv), *target, reuse);
    return true;
}

void
FaasRuntime::start_on_server(PendingInvocation inv, std::size_t server,
                             bool reuse_warm)
{
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

    auto self = this;
    simulator_->schedule_in(
        start_latency, [self, inv = std::move(inv)]() mutable {
            if (self->container_lost(inv)) {
                // The host crashed while the container was starting.
                double progressed = inv.completed_fraction;
                self->redrive_after_crash(std::move(inv), progressed);
                return;
            }
            inv.trace.container_ready = self->simulator_->now();
            // Fetch input produced by a parent function, if any.
            if (inv.request.input_bytes > 0) {
                SharingProtocol proto = inv.trace.colocated
                    ? SharingProtocol::InMemory
                    : self->config_.sharing;
                std::uint64_t bytes = inv.request.input_bytes;
                self->sharing_.share(
                    proto, bytes, [self, inv = std::move(inv)]() mutable {
                        inv.trace.input_ready = self->simulator_->now();
                        self->run_body(std::move(inv));
                    });
            } else {
                inv.trace.input_ready = inv.trace.container_ready;
                self->run_body(std::move(inv));
            }
        });
}

void
FaasRuntime::run_body(PendingInvocation inv)
{
    if (container_lost(inv)) {
        // The host crashed while the input was being fetched.
        double progressed = inv.completed_fraction;
        redrive_after_crash(std::move(inv), progressed);
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

    // The body is registered while it runs so a server crash can kill
    // it (cancel the event, measure progress, re-drive). A self-fault
    // (fault_prob, Listing 2 / Sec. 3.2) schedules the death instead
    // of the completion; a crash arriving first wins either way.
    bool self_fault = rng_.chance(config_.fault_prob * remaining);
    double dead_frac = 0.0;
    if (self_fault) {
        dead_frac = rng_.uniform(0.05, 0.95);
        ++faults_;
    }
    sim::Time fire_in =
        sim::from_millis(self_fault ? exec_ms * dead_frac : exec_ms);

    std::uint64_t id = next_body_id_++;
    auto self = this;
    sim::EventId event = simulator_->schedule_in(fire_in, [self, id]() {
        auto it = self->body_inflight_.find(id);
        if (it == self->body_inflight_.end())
            return;  // Killed by a server crash.
        BodyInFlight body = std::move(it->second);
        self->body_inflight_.erase(it);
        if (body.self_fault) {
            self->body_self_fault(std::move(body.inv), body.dead_frac);
        } else {
            body.inv.trace.exec_done = self->simulator_->now();
            self->finish(std::move(body.inv));
        }
    });

    BodyInFlight body;
    body.event = event;
    body.exec_start = simulator_->now();
    body.full_exec_ms = exec_ms;
    body.self_fault = self_fault;
    body.dead_frac = dead_frac;
    body.inv = std::move(inv);
    body_inflight_.emplace(id, std::move(body));
}

void
FaasRuntime::body_self_fault(PendingInvocation inv, double dead_frac)
{
    // The function dies partway through on a live host: its core and
    // memory come back before the Restore policy runs.
    Server& s = cluster_->server(inv.trace.server);
    s.release_core();
    s.release_memory(inv.request.memory_mb);
    --running_;
    double progressed = inv.completed_fraction +
        (1.0 - inv.completed_fraction) * dead_frac;
    recover(std::move(inv), progressed);
}

void
FaasRuntime::finish(PendingInvocation inv)
{
    auto complete = [this](PendingInvocation done_inv) {
        if (container_lost(done_inv)) {
            // The host crashed while the output was being published;
            // the work itself finished, so progress is 1.0 and a
            // Checkpoint re-drive only re-publishes.
            redrive_after_crash(std::move(done_inv), 1.0);
            return;
        }
        Server& srv = cluster_->server(done_inv.trace.server);
        srv.release_core();
        srv.release_memory(done_inv.request.memory_mb);
        --running_;
        // Park the now-idle container for warm reuse — unless the
        // task demanded a dedicated container (Isolate directive).
        if (!done_inv.request.isolate) {
            park_warm(done_inv.request.app, done_inv.trace.server,
                      done_inv.request.memory_mb);
        }
        done_inv.trace.done = simulator_->now();
        ++completed_;
        bump_active(-1);
        drain_queue();
        if (done_inv.done)
            done_inv.done(done_inv.trace);
    };

    if (inv.request.output_bytes > 0) {
        SharingProtocol proto = inv.trace.colocated
            ? SharingProtocol::InMemory
            : config_.sharing;
        std::uint64_t bytes = inv.request.output_bytes;
        sharing_.share(proto, bytes,
                       [inv = std::move(inv),
                        complete = std::move(complete)]() mutable {
                           complete(std::move(inv));
                       });
    } else {
        complete(std::move(inv));
    }
}

void
FaasRuntime::park_warm(const std::string& app, std::size_t server,
                       std::uint64_t memory_mb)
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
    auto self = this;
    std::uint32_t generation = warm_slots_[slot].generation;
    sim::EventId expiry = simulator_->schedule_in(
        config_.keepalive, [self, slot, generation]() {
            self->expire_warm(slot, generation);
        });

    WarmApp& pool = warm_[app];
    if (pool.newest_on.empty())
        pool.newest_on.assign(cluster_->size(), kNil);
    WarmEntry& e = warm_slots_[slot];
    e.memory_mb = memory_mb;
    e.expiry = expiry;
    e.server = server;
    e.app = &pool;
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
    WarmApp& pool = *e.app;
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
            PendingInvocation inv = std::move(q.front());
            q.pop_front();
            if (try_start(std::move(inv))) {
                consecutive_failures = 0;
            } else if (++consecutive_failures >= 16) {
                return;
            }
        }
    }
}

void
invoke_fan_out(
    const InvokeRequest& request, int ways,
    const std::function<void(const InvokeRequest&, InvokeCallback)>&
        invoke_part,
    InvokeCallback done)
{
    if (ways <= 1) {
        invoke_part(request, std::move(done));
        return;
    }
    // Fan out: each worker gets an equal slice of the work plus its
    // share of the input; fan-in pays one aggregation hand-off per
    // worker (distributing work and aggregating results "incurs
    // overheads from data sharing and synchronization", Sec. 3.2).
    struct JoinState
    {
        int remaining;
        InvocationTrace merged;
        InvokeCallback done;
        bool first = true;
    };
    auto join = std::make_shared<JoinState>();
    join->remaining = ways;
    join->done = std::move(done);

    InvokeRequest part = request;
    part.work_core_ms = request.work_core_ms / static_cast<double>(ways);
    part.input_bytes = request.input_bytes / static_cast<std::uint64_t>(ways);
    part.output_bytes =
        request.output_bytes / static_cast<std::uint64_t>(ways);

    for (int w = 0; w < ways; ++w) {
        invoke_part(part, [join](const InvocationTrace& t) {
            if (join->first) {
                join->merged = t;
                join->first = false;
            } else {
                // The merged trace spans the slowest path.
                join->merged.scheduled =
                    std::max(join->merged.scheduled, t.scheduled);
                join->merged.container_ready =
                    std::max(join->merged.container_ready, t.container_ready);
                join->merged.input_ready =
                    std::max(join->merged.input_ready, t.input_ready);
                join->merged.exec_done =
                    std::max(join->merged.exec_done, t.exec_done);
                join->merged.done = std::max(join->merged.done, t.done);
                join->merged.submit = std::min(join->merged.submit, t.submit);
                join->merged.cold_start |= t.cold_start;
            }
            if (--join->remaining == 0 && join->done)
                join->done(join->merged);
        });
    }
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
