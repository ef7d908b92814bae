#include "core/scheduler.hpp"

#include <algorithm>
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
    const std::size_t n = ring_.size();
    double rank = p / 100.0 * static_cast<double>(n - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    double frac = rank - static_cast<double>(lo);
    if (lo + 1 < n) {
        double at_lo = 0.0;
        double next = 0.0;
        if (!band_select(lo, at_lo, next))
            full_select(lo, at_lo, next);
        cached_value_ = at_lo * (1.0 - frac) + next * frac;
    } else {
        cached_value_ = *std::max_element(ring_.begin(), ring_.end());
    }
    cached_p_ = p;
    cached_at_ = total_;
    return cached_value_;
}

bool
PercentileTracker::band_select(std::size_t lo, double& at_lo,
                               double& at_next) const
{
    if (!band_valid_)
        return false;
    // One branch-free pass: count the values below the band and
    // compact the band's values to the front of the scratch buffer.
    scratch_.resize(ring_.size());
    std::size_t below = 0;
    std::size_t in_band = 0;
    for (double x : ring_) {
        below += x < band_lo_ ? 1 : 0;
        scratch_[in_band] = x;
        in_band += (x >= band_lo_ && x <= band_hi_) ? 1 : 0;
    }
    // The band holds ranks [below, below + in_band) of the window.
    if (below > lo || below + in_band < lo + 2)
        return false;
    auto band = scratch_.begin();
    std::sort(band, band + static_cast<std::ptrdiff_t>(in_band));
    const std::size_t i = lo - below;
    at_lo = scratch_[i];
    at_next = scratch_[i + 1];
    // Re-centre the band on the new answer, as far as it reaches.
    band_lo_ = scratch_[i >= kBandMargin ? i - kBandMargin : 0];
    band_hi_ = scratch_[std::min(i + 1 + kBandMargin, in_band - 1)];
    return true;
}

void
PercentileTracker::full_select(std::size_t lo, double& at_lo,
                               double& at_next) const
{
    // Rank lo by selection, then rank lo + 1 as the minimum of the
    // part above it.
    scratch_.assign(ring_.begin(), ring_.end());
    auto nth = scratch_.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(scratch_.begin(), nth, scratch_.end());
    at_lo = *nth;
    auto after = std::min_element(nth + 1, scratch_.end());
    at_next = *after;
    // The band's edges: ranks lo - kBandMargin and lo + 1 + kBandMargin,
    // each selected inside the side of the partition that holds it.
    if (lo >= kBandMargin) {
        auto edge = nth - static_cast<std::ptrdiff_t>(kBandMargin);
        std::nth_element(scratch_.begin(), edge, nth);
        band_lo_ = *edge;
    } else {
        band_lo_ = *std::min_element(scratch_.begin(), nth + 1);
    }
    const std::size_t hi = std::min(lo + 1 + kBandMargin, scratch_.size() - 1);
    auto edge = scratch_.begin() + static_cast<std::ptrdiff_t>(hi);
    std::nth_element(nth + 1, edge, scratch_.end());
    band_hi_ = *edge;
    band_valid_ = true;
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
HiveMindScheduler::history(cloud::AppId app) const
{
    static const PercentileTracker empty;
    return app.index < history_.size() ? history_[app.index] : empty;
}

void
HiveMindScheduler::note_completion(cloud::AppId app, double latency_s,
                                   std::size_t server)
{
    if (app.index >= history_.size())
        history_.resize(app.index + 1);
    PercentileTracker& h = history_[app.index];
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
            runtime_->cluster().server(id).set_probation(false);
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
    const std::uint32_t slot = races_.acquire();
    Race& race = races_[slot];
    race.request = request;
    race.done = std::move(done);
    race.watchdog = 0;
    const std::uint32_t generation = race.generation;

    runtime_->invoke(request, race_callback(slot, generation));

    // Straggler watchdog: once the invocation exceeds the app's p-th
    // percentile, launch a duplicate; first finisher wins, and the
    // race's end cancels the watchdog.
    const PercentileTracker& h = history(request.app);
    if (h.count() >= config_.straggler_min_samples) {
        double deadline_s = h.threshold(config_.straggler_percentile);
        race.watchdog = simulator_->schedule_in(
            sim::from_seconds(deadline_s), [this, slot, generation]() {
                launch_duplicate(slot, generation);
            });
    }
}

cloud::InvokeCallback
HiveMindScheduler::race_callback(std::uint32_t slot, std::uint32_t generation)
{
    // 16 bytes, trivially copyable: std::function keeps it inline.
    return [this, slot, generation](const cloud::InvocationTrace& trace) {
        race_finished(slot, generation, trace);
    };
}

void
HiveMindScheduler::launch_duplicate(std::uint32_t slot,
                                    std::uint32_t generation)
{
    Race& race = races_[slot];
    race.watchdog = 0;
    ++respawns_;
    runtime_->invoke(race.request, race_callback(slot, generation));
}

void
HiveMindScheduler::race_finished(std::uint32_t slot, std::uint32_t generation,
                                 const cloud::InvocationTrace& trace)
{
    Race& race = races_[slot];
    if (race.generation != generation)
        return;  // The other copy already won.
    if (race.watchdog != 0)
        simulator_->cancel(race.watchdog);
    // A lost copy (Restore None) has no latency to learn from.
    if (!trace.lost)
        note_completion(race.request.app, trace.total_s(), trace.server);
    // Free the record before the callback, which may invoke again.
    cloud::InvokeCallback done = std::move(race.done);
    race.done = nullptr;
    ++race.generation;
    races_.release(slot);
    if (done)
        done(trace);
}

}  // namespace hivemind::core
