#include "fault/retry.hpp"

#include <algorithm>
#include <cmath>

namespace hivemind::fault {

bool
OffloadRetrier::record_failure(sim::Time now)
{
    if (now < open_until_)
        return false;  // Already open: the probation window absorbs
                       // failures of in-flight sends, they must not
                       // accumulate toward a second trip.
    ++consecutive_failures_;
    if (consecutive_failures_ < config_.breaker_threshold)
        return false;
    // Trip: fail fast for the cooldown, then allow a fresh probe run.
    consecutive_failures_ = 0;
    open_until_ = now + config_.breaker_cooldown;
    return true;
}

sim::Time
OffloadRetrier::backoff(int attempt, sim::Rng& rng) const
{
    double scale = std::pow(config_.multiplier, std::max(attempt, 0));
    double base = static_cast<double>(config_.base_backoff) * scale;
    double jittered =
        base * rng.uniform(1.0 - config_.jitter, 1.0 + config_.jitter);
    return std::max<sim::Time>(1, static_cast<sim::Time>(jittered));
}

}  // namespace hivemind::fault
