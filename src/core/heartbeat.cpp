#include "core/heartbeat.hpp"

namespace hivemind::core {

FailureDetector::FailureDetector(sim::Simulator& simulator,
                                 std::size_t devices,
                                 sim::Time beat_interval, sim::Time timeout)
    : simulator_(&simulator),
      beat_interval_(beat_interval),
      timeout_(timeout),
      last_beat_(devices, 0),
      failed_(devices, false)
{
}

void
FailureDetector::start()
{
    running_ = true;
    // Devices are assumed alive at start (a standby restart follows up
    // with reconcile() to re-mark the ones that are actually down).
    for (auto& t : last_beat_)
        t = simulator_->now();
    sweep(++epoch_);
}

void
FailureDetector::beat(std::size_t device)
{
    if (device >= last_beat_.size())
        return;
    sim::Time now = simulator_->now();
    if (failed_[device]) {
        // The device is back: clear the mark and report the rejoin.
        failed_[device] = false;
        last_beat_[device] = now;
        if (on_recovery_)
            on_recovery_(device);
        return;
    }
    last_beat_[device] = now;
}

void
FailureDetector::reconcile(std::size_t device, bool alive)
{
    if (device >= last_beat_.size())
        return;
    sim::Time now = simulator_->now();
    if (alive) {
        failed_[device] = false;
        last_beat_[device] = now;
    } else {
        failed_[device] = true;
    }
}

void
FailureDetector::sweep(std::uint64_t epoch)
{
    if (!running_ || epoch != epoch_)
        return;
    sim::Time now = simulator_->now();
    for (std::size_t d = 0; d < last_beat_.size(); ++d) {
        if (failed_[d])
            continue;
        if (now - last_beat_[d] > timeout_) {
            failed_[d] = true;
            if (on_failure_)
                on_failure_(d);
        }
    }
    simulator_->schedule_in(beat_interval_, [this, epoch]() { sweep(epoch); });
}

std::size_t
FailureDetector::failed_count() const
{
    std::size_t n = 0;
    for (bool f : failed_) {
        if (f)
            ++n;
    }
    return n;
}

}  // namespace hivemind::core
