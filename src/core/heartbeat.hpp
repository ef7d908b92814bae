#pragma once

/**
 * @file
 * Heartbeat-based failure detection (Sec. 4.6).
 *
 * "All devices send a periodic heartbeat to HiveMind (once per
 * second). If the controller does not receive a heartbeat for more
 * than 3s, it assumes that the device has failed." Detection is
 * implemented as a periodic sweep over last-seen timestamps; the
 * failure callback feeds the load balancer's repartitioning (Fig. 10).
 *
 * Failures are not terminal: a heartbeat from a device previously
 * declared failed clears the mark and fires the recovery callback, so
 * transient faults (reboot, temporary partition) hand the device's
 * region back via SwarmLoadBalancer::handle_rejoin.
 */

#include <cstddef>
#include <functional>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace hivemind::core {

/** Monitors device heartbeats and reports failures. */
class FailureDetector
{
  public:
    /**
     * @param devices number of devices tracked
     * @param beat_interval expected heartbeat period (1 s)
     * @param timeout silence duration treated as failure (3 s)
     */
    FailureDetector(sim::Simulator& simulator, std::size_t devices,
                    sim::Time beat_interval = sim::kSecond,
                    sim::Time timeout = 3 * sim::kSecond);

    /** Begin the periodic sweep. */
    void start();

    /** Stop sweeping (ends the simulation cleanly). */
    void stop() { running_ = false; }

    /** Record a heartbeat from @p device. */
    void beat(std::size_t device);

    /**
     * Standby reconciliation after a controller takeover (Sec. 4.6):
     * overwrite the tracked state with the re-registration ping's
     * ground truth. Unlike beat()/sweep() this fires no callbacks —
     * the caller repartitions explicitly.
     */
    void reconcile(std::size_t device, bool alive);

    /** Invoked once per newly detected failure. */
    void set_on_failure(std::function<void(std::size_t)> fn)
    {
        on_failure_ = std::move(fn);
    }

    /** Invoked when a failed device resumes heartbeating. */
    void set_on_recovery(std::function<void(std::size_t)> fn)
    {
        on_recovery_ = std::move(fn);
    }

    /**
     * Whether a device has been declared failed. Out-of-range ids are
     * not tracked and report not-failed.
     */
    bool is_failed(std::size_t device) const
    {
        return device < failed_.size() && failed_[device];
    }

    /** Number of devices declared failed. */
    std::size_t failed_count() const;

  private:
    /** @p epoch guards against stale chains after stop()/start(). */
    void sweep(std::uint64_t epoch);

    sim::Simulator* simulator_;
    sim::Time beat_interval_;
    sim::Time timeout_;
    std::vector<sim::Time> last_beat_;
    std::vector<bool> failed_;
    std::function<void(std::size_t)> on_failure_;
    std::function<void(std::size_t)> on_recovery_;
    bool running_ = false;
    std::uint64_t epoch_ = 0;
};

}  // namespace hivemind::core
