#include "apps/detection.hpp"

#include <cmath>

namespace hivemind::apps {

namespace {

/** Samples to ~63% of the remaining improvement. */
constexpr double kTauSamples = 150.0;
/** Fraction of residual error that is a false negative (miss). */
constexpr double kFnShare = 0.62;

}  // namespace

const char*
to_string(RetrainMode m)
{
    switch (m) {
      case RetrainMode::None:
        return "None";
      case RetrainMode::Self:
        return "Self";
      case RetrainMode::Swarm:
        return "Swarm";
    }
    return "?";
}

void
DetectionModel::observe(RetrainMode mode, std::uint64_t own,
                        std::uint64_t swarm_total)
{
    switch (mode) {
      case RetrainMode::None:
        return;
      case RetrainMode::Self:
        samples_ += static_cast<double>(own);
        return;
      case RetrainMode::Swarm:
        samples_ += static_cast<double>(swarm_total);
        return;
    }
}

double
DetectionModel::p_correct() const
{
    double gap = kMaxCorrect - kBaseCorrect;
    return kMaxCorrect - gap * std::exp(-samples_ / kTauSamples);
}

double
DetectionModel::p_false_negative() const
{
    return (1.0 - p_correct()) * kFnShare;
}

double
DetectionModel::p_false_positive() const
{
    return (1.0 - p_correct()) * (1.0 - kFnShare);
}

}  // namespace hivemind::apps
