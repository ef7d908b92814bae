#include "synth/explorer.hpp"

#include <algorithm>
#include <limits>

namespace hivemind::synth {

PlacementExplorer::PlacementExplorer(const dsl::TaskGraph& graph)
    : graph_(&graph)
{
}

void
PlacementExplorer::set_profiler(Profiler profiler)
{
    profiler_ = std::move(profiler);
}

bool
PlacementExplorer::satisfies_constraints(const PlacementEstimate& est) const
{
    const dsl::GraphConstraints& c = graph_->constraints();
    if (c.latency_s > 0.0 && est.latency_s > c.latency_s)
        return false;
    if (c.exec_time_s > 0.0 && est.latency_s > c.exec_time_s)
        return false;
    if (c.cloud_cost > 0.0 && est.cloud_cost > c.cloud_cost)
        return false;
    return true;
}

double
PlacementExplorer::score(const PlacementEstimate& est,
                         const Objective& objective) const
{
    return objective.w_latency * est.latency_s +
        objective.w_energy * est.edge_energy_j +
        objective.w_cost * est.cloud_cost;
}

std::vector<ExplorationResult>
PlacementExplorer::explore_all() const
{
    std::vector<ExplorationResult> out;
    for (PlacementAssignment& a : enumerate_placements(*graph_)) {
        ExplorationResult r;
        r.estimate = profiler_ ? profiler_(*graph_, a)
                               : estimate_placement(*graph_, a);
        r.feasible = satisfies_constraints(r.estimate);
        r.placement = std::move(a);
        out.push_back(std::move(r));
    }
    return out;
}

ExplorationResult
PlacementExplorer::best(const Objective& objective) const
{
    std::vector<ExplorationResult> all = explore_all();
    const ExplorationResult* best_feasible = nullptr;
    const ExplorationResult* best_any = nullptr;
    double best_feasible_score = std::numeric_limits<double>::max();
    double best_any_score = std::numeric_limits<double>::max();
    for (ExplorationResult& r : all) {
        r.score = score(r.estimate, objective);
        if (r.score < best_any_score) {
            best_any_score = r.score;
            best_any = &r;
        }
        if (r.feasible && r.score < best_feasible_score) {
            best_feasible_score = r.score;
            best_feasible = &r;
        }
    }
    if (best_feasible)
        return *best_feasible;
    if (best_any)
        return *best_any;
    return ExplorationResult{};
}

std::vector<ExplorationResult>
PlacementExplorer::pareto() const
{
    std::vector<ExplorationResult> all = explore_all();
    std::vector<ExplorationResult> frontier;
    for (const ExplorationResult& r : all) {
        bool dominated = false;
        for (const ExplorationResult& other : all) {
            if (&other == &r)
                continue;
            bool no_worse =
                other.estimate.latency_s <= r.estimate.latency_s &&
                other.estimate.edge_energy_j <= r.estimate.edge_energy_j;
            bool better =
                other.estimate.latency_s < r.estimate.latency_s ||
                other.estimate.edge_energy_j < r.estimate.edge_energy_j;
            if (no_worse && better) {
                dominated = true;
                break;
            }
        }
        if (!dominated)
            frontier.push_back(r);
    }
    // Stable, so points of equal latency keep their explore_all()
    // order on any standard library.
    std::stable_sort(frontier.begin(), frontier.end(),
                     [](const ExplorationResult& a,
                        const ExplorationResult& b) {
                         return a.estimate.latency_s < b.estimate.latency_s;
                     });
    return frontier;
}

}  // namespace hivemind::synth
