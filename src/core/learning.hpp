#pragma once

/**
 * @file
 * Continuous-learning coordinator (Sec. 4.6, Fig. 15).
 *
 * "If enabled, instead of only using one device's decisions to
 * retrain it, HiveMind leverages the entire swarm's decisions to
 * retrain all devices jointly, which significantly accelerates their
 * decision quality." The coordinator owns one DetectionModel per
 * device, buffers decision feedback between retraining rounds, and
 * applies the configured RetrainMode at each round.
 */

#include <cstdint>
#include <vector>

#include "apps/detection.hpp"

namespace hivemind::core {

/** Manages per-device detection models and their retraining. */
class LearningCoordinator
{
  public:
    LearningCoordinator(std::size_t devices, apps::RetrainMode mode);

    /** Record @p samples decision feedback from @p device. */
    void record(std::size_t device, std::uint64_t samples = 1);

    /**
     * Retraining round: per the mode, each device's model absorbs its
     * own buffered samples (Self), the swarm-wide total (Swarm), or
     * nothing (None). Buffers reset afterwards.
     */
    void retrain();

    /** Detection model of a device. */
    const apps::DetectionModel& model(std::size_t device) const
    {
        return models_[device];
    }

    /** Mean detection accuracy across the swarm. */
    double swarm_p_correct() const;

    /** Mean FN / FP probabilities across the swarm. */
    double swarm_p_false_negative() const;
    double swarm_p_false_positive() const;

    /** Devices managed (one model per device). */
    std::size_t device_count() const { return models_.size(); }

    /** Total feedback samples recorded across all devices. */
    std::uint64_t total_samples() const { return total_samples_; }

  private:
    apps::RetrainMode mode_;
    std::vector<apps::DetectionModel> models_;
    std::vector<std::uint64_t> buffered_;
    std::uint64_t total_samples_ = 0;
};

}  // namespace hivemind::core
