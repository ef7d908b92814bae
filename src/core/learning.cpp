#include "core/learning.hpp"

#include <numeric>

namespace hivemind::core {

LearningCoordinator::LearningCoordinator(std::size_t devices,
                                         apps::RetrainMode mode)
    : mode_(mode), models_(devices), buffered_(devices, 0)
{
}

void
LearningCoordinator::record(std::size_t device, std::uint64_t samples)
{
    if (device < buffered_.size()) {
        buffered_[device] += samples;
        total_samples_ += samples;
    }
}

void
LearningCoordinator::retrain()
{
    std::uint64_t swarm_total =
        std::accumulate(buffered_.begin(), buffered_.end(),
                        std::uint64_t{0});
    for (std::size_t d = 0; d < models_.size(); ++d)
        models_[d].observe(mode_, buffered_[d], swarm_total);
    buffered_.assign(buffered_.size(), 0);
}

double
LearningCoordinator::swarm_p_correct() const
{
    if (models_.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto& m : models_)
        sum += m.p_correct();
    return sum / static_cast<double>(models_.size());
}

double
LearningCoordinator::swarm_p_false_negative() const
{
    if (models_.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto& m : models_)
        sum += m.p_false_negative();
    return sum / static_cast<double>(models_.size());
}

double
LearningCoordinator::swarm_p_false_positive() const
{
    if (models_.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto& m : models_)
        sum += m.p_false_positive();
    return sum / static_cast<double>(models_.size());
}

}  // namespace hivemind::core
