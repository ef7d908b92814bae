#include "edge/device.hpp"

#include <algorithm>
#include <utility>

namespace hivemind::edge {

DeviceSpec
DeviceSpec::drone()
{
    return {};
}

DeviceSpec
DeviceSpec::rover()
{
    DeviceSpec s;
    s.kind = "rover";
    s.speed_mps = 1.0;
    s.cpu_speed_factor = 0.25;       // Raspberry Pi class SoC.
    s.battery_j = 100'000.0;         // Larger ground-vehicle pack.
    s.power.motion_w = 18.0;         // Driving is far cheaper than hovering.
    s.power.compute_w = 4.0;
    s.power.radio_j_per_byte = 1.0e-7;
    s.power.idle_w = 2.0;
    s.footprint_w = 4.0;             // Forward-facing camera swath.
    s.footprint_h = 5.0;
    return s;
}

OnboardExecutor::OnboardExecutor(sim::Simulator& simulator, sim::Rng& rng,
                                 double cpu_speed_factor,
                                 std::size_t queue_limit)
    : simulator_(&simulator),
      rng_(rng.fork()),
      speed_factor_(cpu_speed_factor),
      queue_limit_(queue_limit)
{
}

void
OnboardExecutor::submit(double work_core_ms, Done done)
{
    if (queued_ >= queue_limit_) {
        // Shed the oldest queued task: its sensor data is stale.
        queued(0).done = nullptr;
        head_ = (head_ + 1) & (ring_.size() - 1);
        --queued_;
        ++shed_;
    }
    if (queued_ == ring_.size()) {
        std::vector<Pending> grown(std::max<std::size_t>(4, 2 * queued_));
        for (std::size_t i = 0; i < queued_; ++i)
            grown[i] = std::move(queued(i));
        ring_ = std::move(grown);
        head_ = 0;
    }
    queued(queued_) = Pending{work_core_ms, std::move(done),
                              simulator_->now()};
    ++queued_;
    maybe_run();
}

void
OnboardExecutor::maybe_run()
{
    if (running_ || queued_ == 0)
        return;
    running_ = true;
    task_ = std::move(queued(0));
    head_ = (head_ + 1) & (ring_.size() - 1);
    --queued_;
    // Slow single core plus thermal/DVFS jitter.
    double exec_ms = task_.work_core_ms / speed_factor_ *
        rng_.lognormal_median(1.0, 0.10);
    busy_seconds_ += exec_ms / 1000.0;
    simulator_->schedule_in(sim::from_millis(exec_ms),
                            [this]() { task_done(); });
}

void
OnboardExecutor::task_done()
{
    running_ = false;
    ++completed_;
    // The callback may submit again, so take the task off the core
    // first.
    Pending p = std::move(task_);
    task_.done = nullptr;
    double latency_s = sim::to_seconds(simulator_->now() - p.submit);
    if (p.done)
        p.done(latency_s);
    maybe_run();
}

Device::Device(sim::Simulator& simulator, sim::Rng& rng, std::size_t id,
               const DeviceSpec& spec)
    : simulator_(&simulator),
      id_(id),
      spec_(spec),
      battery_(spec.battery_j),
      executor_(simulator, rng, spec.cpu_speed_factor, kDeviceQueueLimit)
{
}

void
Device::set_route(std::vector<geo::Vec2> route)
{
    route_ = std::move(route);
    cum_dist_.assign(route_.size(), 0.0);
    for (std::size_t i = 1; i < route_.size(); ++i) {
        cum_dist_[i] =
            cum_dist_[i - 1] + route_[i - 1].distance_to(route_[i]);
    }
    route_start_ = simulator_->now();
    double total = cum_dist_.empty() ? 0.0 : cum_dist_.back();
    route_end_ = route_start_ + sim::from_seconds(total / spec_.speed_mps);
}

double
Device::route_duration_s() const
{
    return sim::to_seconds(route_end_ - route_start_);
}

geo::Vec2
Device::position_at(sim::Time t) const
{
    if (route_.empty())
        return {0.0, 0.0};
    if (t <= route_start_ || route_.size() == 1)
        return route_.front();
    if (t >= route_end_)
        return route_.back();
    double traveled =
        sim::to_seconds(t - route_start_) * spec_.speed_mps;
    // Find the active segment (cum_dist_ is nondecreasing).
    std::size_t i = 1;
    while (i < cum_dist_.size() && cum_dist_[i] < traveled)
        ++i;
    if (i >= route_.size())
        return route_.back();
    double seg = cum_dist_[i] - cum_dist_[i - 1];
    double frac = seg > 0.0 ? (traveled - cum_dist_[i - 1]) / seg : 0.0;
    return route_[i - 1] + (route_[i] - route_[i - 1]) * frac;
}

bool
Device::buffer_frame(std::uint64_t bytes)
{
    if (buffered_frames_ >= spec_.frame_buffer_limit) {
        ++frames_dropped_;  // Bounded store: oldest data ages out of
        return false;       // relevance, so new frames are refused.
    }
    ++buffered_frames_;
    buffered_bytes_ += bytes;
    return true;
}

Device::DrainedFrames
Device::drain_buffered()
{
    DrainedFrames out{buffered_frames_, buffered_bytes_};
    buffered_frames_ = 0;
    buffered_bytes_ = 0;
    return out;
}

bool
Device::resume_route_reversed()
{
    if (route_.size() < 2)
        return false;
    std::vector<geo::Vec2> reversed(route_.rbegin(), route_.rend());
    set_route(std::move(reversed));
    return true;
}

void
Device::account_motion(double seconds)
{
    battery_.drain(spec_.power.motion_w * seconds);
}

void
Device::account_radio(std::uint64_t bytes)
{
    battery_.drain(spec_.power.radio_j_per_byte *
                   static_cast<double>(bytes));
}

void
Device::account_compute(double seconds)
{
    battery_.drain(spec_.power.compute_w * seconds);
}

void
Device::account_idle(double seconds)
{
    battery_.drain(spec_.power.idle_w * seconds);
}

}  // namespace hivemind::edge
