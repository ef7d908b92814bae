#pragma once

/**
 * @file
 * Placement exploration and selection (Sec. 4.2, Fig. 8).
 *
 * The explorer enumerates all meaningful execution models, profiles
 * each (via the analytic cost model by default, or a caller-supplied
 * profiler that runs the real simulation), filters by the user's
 * constraints, and "the performance and power results are presented
 * to the user, who selects the initial work partitioning scheme" — or
 * best() picks automatically under a weighted objective. pareto()
 * exposes the latency/energy frontier.
 */

#include <functional>
#include <vector>

#include "dsl/graph.hpp"
#include "synth/cost_model.hpp"
#include "synth/placement.hpp"

namespace hivemind::synth {

/** Relative weights when auto-selecting a placement. */
struct Objective
{
    double w_latency = 1.0;
    double w_energy = 0.0;
    double w_cost = 0.0;
};

/** One explored execution model with its estimate. */
struct ExplorationResult
{
    PlacementAssignment placement;
    PlacementEstimate estimate;
    /** Whether the graph's constraints are satisfied. */
    bool feasible = true;
    /** Weighted score under the last objective (lower is better). */
    double score = 0.0;
};

/** Profiler hook: estimate a placement (simulation-backed or analytic). */
using Profiler = std::function<PlacementEstimate(
    const dsl::TaskGraph&, const PlacementAssignment&)>;

/** Explores the placement space of one task graph. */
class PlacementExplorer
{
  public:
    explicit PlacementExplorer(const dsl::TaskGraph& graph);

    /** Replace the analytic model with a measurement-backed profiler. */
    void set_profiler(Profiler profiler);

    /** Profile every meaningful placement. */
    std::vector<ExplorationResult> explore_all() const;

    /**
     * Best feasible placement under @p objective; falls back to the
     * best infeasible one when nothing satisfies the constraints
     * (with feasible == false so the caller can warn the user).
     */
    ExplorationResult best(const Objective& objective) const;

    /**
     * Latency/energy Pareto frontier over all placements, by ascending
     * latency; ties keep their explore_all() order.
     */
    std::vector<ExplorationResult> pareto() const;

  private:
    bool satisfies_constraints(const PlacementEstimate& est) const;
    double score(const PlacementEstimate& est,
                 const Objective& objective) const;

    const dsl::TaskGraph* graph_;
    Profiler profiler_;
};

}  // namespace hivemind::synth
