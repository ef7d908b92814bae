#include "net/link.hpp"

#include <utility>

namespace hivemind::net {

Link::Link(sim::Simulator& simulator, double rate_bps, sim::Time propagation)
    : simulator_(&simulator), rate_bps_(rate_bps), propagation_(propagation)
{
}

sim::Time
Link::transfer(std::uint64_t bytes, std::function<void()> done)
{
    sim::Time now = simulator_->now();
    sim::Time start = busy_until_ > now ? busy_until_ : now;
    if (busy_until_ <= now) {
        // The serializer went idle: close the previous busy period and
        // open a new one at this transfer's start.
        busy_accum_ += busy_until_ - busy_start_;
        busy_start_ = now;
    }
    double bits = static_cast<double>(bytes) * 8.0;
    sim::Time serialize = sim::from_seconds(bits / rate_bps_);
    busy_until_ = start + serialize;
    bytes_total_ += bytes;
    sim::Time arrival = busy_until_ + propagation_;
    if (done)
        simulator_->schedule_at(arrival, std::move(done));
    return arrival;
}

double
Link::utilization() const
{
    sim::Time now = simulator_->now();
    if (now <= 0)
        return 0.0;
    // Completed periods plus the elapsed part of the open one: a deep
    // backlog queued just now extends busy_until_ into the future but
    // contributes nothing until that time actually passes.
    sim::Time busy = busy_accum_;
    sim::Time open_end = busy_until_ < now ? busy_until_ : now;
    if (open_end > busy_start_)
        busy += open_end - busy_start_;
    if (busy > now)
        busy = now;
    return static_cast<double>(busy) / static_cast<double>(now);
}

}  // namespace hivemind::net
