#pragma once

/**
 * @file
 * Edge-to-cloud offload retry policy (Sec. 4.6).
 *
 * Wireless offloads that fail outright (hard partitions, exhausted
 * link-layer retransmits) are retried from the application layer with
 * exponential backoff plus jitter and a capped attempt budget. A
 * per-device circuit breaker trips after consecutive failures and
 * fails offloads fast for a cooldown window — the same probation idea
 * the scheduler applies to misbehaving servers, applied to a device's
 * own uplink.
 */

#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace hivemind::fault {

/** Tuning for the offload retry loop and circuit breaker. */
struct RetryConfig
{
    /** Total offload attempts per frame (first try + retries). */
    int max_attempts = 4;
    /** Backoff before retry k is base * multiplier^k, jittered. */
    sim::Time base_backoff = 100 * sim::kMillisecond;
    double multiplier = 2.0;
    /** Uniform jitter fraction applied to each backoff (+/- jitter). */
    double jitter = 0.25;
    /** Consecutive failures that trip the per-device breaker. */
    int breaker_threshold = 3;
    /** How long a tripped breaker fails offloads fast. */
    sim::Time breaker_cooldown = 5 * sim::kSecond;

    bool operator==(const RetryConfig&) const = default;
};

/** One device's offload retry policy and circuit breaker. */
class OffloadRetrier
{
  public:
    explicit OffloadRetrier(RetryConfig config = {}) : config_(config) {}

    const RetryConfig& config() const { return config_; }

    /** Whether the breaker is open (still cooling down) at `now`. */
    bool circuit_open(sim::Time now) const { return now < open_until_; }

    /** Record a successful offload: closes the breaker's failure run. */
    void record_success() { consecutive_failures_ = 0; }

    /**
     * Record a failed offload attempt at `now`. Returns true when this
     * failure trips the breaker open. Failures recorded while the
     * breaker is already open are swallowed — they never count toward
     * another trip.
     */
    bool record_failure(sim::Time now);

    /** Jittered exponential backoff before retry `attempt` (0-based). */
    sim::Time backoff(int attempt, sim::Rng& rng) const;

  private:
    RetryConfig config_;
    int consecutive_failures_ = 0;
    sim::Time open_until_ = 0;
};

}  // namespace hivemind::fault
