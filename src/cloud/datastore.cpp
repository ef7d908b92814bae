#include "cloud/datastore.hpp"

#include <algorithm>
#include <utility>

namespace hivemind::cloud {

DataStore::DataStore(sim::Simulator& simulator, sim::Rng& rng,
                     const DataStoreConfig& config)
    : simulator_(&simulator),
      rng_(rng.fork()),
      config_(config),
      handler_free_(static_cast<std::size_t>(config.handlers), 0)
{
}

void
DataStore::fail_until(sim::Time until)
{
    if (until <= simulator_->now())
        return;
    outage_until_ = std::max(outage_until_, until);
    // Handlers ride out the outage; queued work resumes afterwards.
    for (sim::Time& t : handler_free_)
        t = std::max(t, outage_until_);
}

void
DataStore::access(std::uint64_t bytes, sim::InlineFn done)
{
    sim::Time now = simulator_->now();
    // Controller round trip for the object handle precedes queueing.
    // During an outage window the request stalls until the store is
    // back (handler_free_ was pushed past the window at fail time).
    sim::Time enqueue = std::max(now + config_.handle_lookup, outage_until_);
    auto it = std::min_element(handler_free_.begin(), handler_free_.end());
    sim::Time start = std::max(*it, enqueue);
    double base_ms = sim::to_millis(config_.base_latency);
    sim::Time service = sim::from_millis(
        rng_.lognormal_median(base_ms, config_.jitter_sigma));
    service += sim::from_seconds(static_cast<double>(bytes) /
                                 config_.bandwidth_Bps);
    *it = start + service;
    ++requests_;
    if (done)
        simulator_->schedule_at(*it, std::move(done));
}

}  // namespace hivemind::cloud
