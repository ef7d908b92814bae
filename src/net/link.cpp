#include "net/link.hpp"

#include <utility>

namespace hivemind::net {

Link::Link(sim::Simulator& simulator, double rate_bps, sim::Time propagation)
    : simulator_(&simulator), rate_bps_(rate_bps), propagation_(propagation)
{
}

sim::Time
Link::transfer(std::uint64_t bytes, sim::InlineFn done)
{
    sim::Time now = simulator_->now();
    sim::Time start = busy_until_ > now ? busy_until_ : now;
    double bits = static_cast<double>(bytes) * 8.0;
    sim::Time serialize = sim::from_seconds(bits / rate_bps_);
    busy_until_ = start + serialize;
    sim::Time arrival = busy_until_ + propagation_;
    if (done)
        simulator_->schedule_at(arrival, std::move(done));
    return arrival;
}

}  // namespace hivemind::net
