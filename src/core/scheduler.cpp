#include "core/scheduler.hpp"

#include <algorithm>
#include <memory>
#include <utility>

namespace hivemind::core {

void
PercentileTracker::add(double x)
{
    if (ring_.size() < capacity_) {
        ring_.push_back(x);
    } else {
        ring_[next_] = x;
        next_ = (next_ + 1) % capacity_;
    }
    ++total_;
}

double
PercentileTracker::threshold(double p) const
{
    if (ring_.empty())
        return 0.0;
    if (cached_p_ == p && total_ - cached_at_ < refresh_)
        return cached_value_;
    // The two order statistics the interpolation reads, by selection:
    // rank lo, then rank lo + 1 as the minimum of the part above it.
    scratch_.assign(ring_.begin(), ring_.end());
    double rank = p / 100.0 * static_cast<double>(scratch_.size() - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    double frac = rank - static_cast<double>(lo);
    if (lo + 1 < scratch_.size()) {
        auto nth = scratch_.begin() + static_cast<std::ptrdiff_t>(lo);
        std::nth_element(scratch_.begin(), nth, scratch_.end());
        double next = *std::min_element(nth + 1, scratch_.end());
        cached_value_ = *nth * (1.0 - frac) + next * frac;
    } else {
        cached_value_ = *std::max_element(scratch_.begin(), scratch_.end());
    }
    cached_p_ = p;
    cached_at_ = total_;
    return cached_value_;
}

HiveMindScheduler::HiveMindScheduler(sim::Simulator& simulator, sim::Rng& rng,
                                     cloud::FaasRuntime& runtime,
                                     const SchedulerConfig& config)
    : simulator_(&simulator),
      rng_(rng.fork()),
      runtime_(&runtime),
      config_(config),
      straggler_score_(runtime.cluster().size(), 0.0)
{
}

void
HiveMindScheduler::install()
{
    // Widen the keep-alive window (Sec. 4.3: "ranges between 10 and
    // 30 seconds"); sample once so a run is internally consistent.
    sim::Time lo = config_.keepalive_min;
    sim::Time hi = config_.keepalive_max;
    runtime_->mutable_config().keepalive =
        lo + static_cast<sim::Time>(rng_.uniform(
                 0.0, static_cast<double>(hi - lo)));
    // Kept-alive containers stay hot (not paused): reuse is cheap.
    runtime_->mutable_config().warm_start = sim::from_millis(8.0);

    runtime_->set_placement_policy(
        [this](const cloud::InvokeRequest& request,
               const cloud::Cluster& cluster,
               std::optional<std::size_t> warm_server) {
            return place(request, cluster, warm_server);
        });
}

std::optional<std::size_t>
HiveMindScheduler::place(const cloud::InvokeRequest& request,
                         const cloud::Cluster& cluster,
                         std::optional<std::size_t> warm_server) const
{
    // 1. Parent co-location: run the child in its parent's container
    //    when that server is up and still has capacity (Sec. 4.3).
    if (request.preferred_server != cloud::kNoServer &&
        cluster.server(request.preferred_server).can_host(request.memory_mb))
        return request.preferred_server;
    // 2. A warm container for the app avoids a cold start.
    if (warm_server) {
        const cloud::Server& w = cluster.server(*warm_server);
        if (!w.on_probation() && w.free_cores() > 0)
            return warm_server;
    }
    // 3. Worker monitors: the least-occupied server with capacity.
    return cluster.least_loaded(request.memory_mb);
}

const PercentileTracker&
HiveMindScheduler::history(const std::string& app) const
{
    static const PercentileTracker empty;
    auto it = history_.find(app);
    return it == history_.end() ? empty : it->second;
}

void
HiveMindScheduler::note_completion(const std::string& app, double latency_s,
                                   std::size_t server)
{
    PercentileTracker& h = history_[app];
    bool straggled = h.count() >= config_.straggler_min_samples &&
        latency_s > h.threshold(config_.straggler_percentile);
    h.add(latency_s);
    if (server == cloud::kNoServer || server >= straggler_score_.size())
        return;
    cloud::Server& srv = runtime_->cluster().server(server);
    double& score = straggler_score_[server];
    if (!straggled) {
        // Leaky bucket: normal completions decay the score, so only a
        // node whose stragglers are disproportionate trips probation.
        score -= config_.probation_decay;
        if (score < 0.0)
            score = 0.0;
        return;
    }
    srv.note_straggler();
    score += 1.0;
    // Never bench more than a fraction of the cluster: a systemic
    // slowdown is not one bad node, and the cluster must keep serving.
    double benched =
        static_cast<double>(runtime_->cluster().probation_count());
    double cap = config_.probation_max_fraction *
        static_cast<double>(runtime_->cluster().size());
    if (score >= config_.probation_threshold && !srv.on_probation() &&
        benched + 1.0 <= cap) {
        srv.set_probation(true);
        std::size_t id = server;
        simulator_->schedule_in(config_.probation_duration, [this, id]() {
            cloud::Server& s = runtime_->cluster().server(id);
            s.set_probation(false);
            s.reset_stragglers();
            straggler_score_[id] = 0.0;
            // Capacity returned: retry anything parked in the queue.
            runtime_->poke();
        });
    }
}

void
HiveMindScheduler::invoke(const cloud::InvokeRequest& request,
                          cloud::InvokeCallback done)
{
    struct RaceState
    {
        bool finished = false;
        bool duplicate_launched = false;
        cloud::InvokeCallback done;
    };
    auto race = std::make_shared<RaceState>();
    race->done = std::move(done);

    auto finish = [this, race, app = request.app](
                      const cloud::InvocationTrace& trace) {
        if (race->finished)
            return;  // The other copy already won.
        race->finished = true;
        note_completion(app, trace.total_s(), trace.server);
        if (race->done)
            race->done(trace);
    };

    runtime_->invoke(request, finish);

    // Straggler watchdog: once the invocation exceeds the app's p-th
    // percentile, launch a duplicate; first finisher wins.
    const PercentileTracker& h = history(request.app);
    if (h.count() >= config_.straggler_min_samples) {
        double deadline_s = h.threshold(config_.straggler_percentile);
        auto self = this;
        cloud::InvokeRequest dup = request;
        simulator_->schedule_in(
            sim::from_seconds(deadline_s), [self, race, dup, finish]() {
                if (race->finished || race->duplicate_launched)
                    return;
                race->duplicate_launched = true;
                ++self->respawns_;
                if (self->trace_) {
                    self->trace_->add(self->simulator_->now(),
                                      TraceEvent::StragglerRespawn, -1,
                                      dup.app);
                }
                self->runtime_->invoke(dup, finish);
            });
    }
}

}  // namespace hivemind::core
