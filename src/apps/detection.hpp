#pragma once

/**
 * @file
 * Detection accuracy and continuous-learning model (Fig. 15).
 *
 * Recognition models (item detection in Scenario A, face recognition
 * plus FaceNet deduplication in Scenario B) start from a pre-trained
 * accuracy and improve as they are retrained on feedback samples. The
 * retraining mode determines the sample stream (Sec. 4.6):
 *  - None:  no retraining; accuracy stays at the base level.
 *  - Self:  each device retrains only on its own decisions.
 *  - Swarm: the centralized backend pools every device's decisions
 *           and retrains all devices jointly — an N-fold larger
 *           sample stream, so accuracy converges N times faster.
 *
 * Accuracy follows a saturating learning curve
 *   correct(n) = max - (max - base) * exp(-n / tau)
 * with the residual error split between false negatives and false
 * positives.
 */

#include <cstdint>

namespace hivemind::apps {

/** Which feedback stream retrains the models (Sec. 4.6). */
enum class RetrainMode
{
    None,
    Self,
    Swarm,
};

/** Human-readable mode name. */
const char* to_string(RetrainMode m);

/** Accuracy of the pre-trained model. */
inline constexpr double kBaseCorrect = 0.80;
/** Asymptotic accuracy with unlimited retraining data. */
inline constexpr double kMaxCorrect = 0.995;

/** Learning-curve accuracy model for one device's detector. */
class DetectionModel
{
  public:
    /**
     * Record retraining feedback: @p own samples from this device and
     * @p swarm_total from the whole swarm; which stream is used
     * depends on @p mode.
     */
    void observe(RetrainMode mode, std::uint64_t own,
                 std::uint64_t swarm_total);

    /** Probability a present object is correctly detected. */
    double p_correct() const;

    /** Probability a present object is missed. */
    double p_false_negative() const;

    /**
     * Expected false positives per true detection opportunity (ghost
     * detections caused by the residual error).
     */
    double p_false_positive() const;

    /** Effective training samples absorbed so far. */
    double samples() const { return samples_; }

  private:
    double samples_ = 0.0;
};

}  // namespace hivemind::apps
