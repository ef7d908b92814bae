#pragma once

/**
 * @file
 * Deterministic chaos fuzzing: random fault plans, delta-debugging
 * shrinker and portable JSON reproducers (Secs. 4.6-4.7).
 *
 * PlanFuzzer turns a uint64 seed into a valid-by-construction
 * FaultPlan: every FaultKind the engine models, targets inside the
 * deployment, injection times inside the horizon, plus deliberately
 * nasty shapes hand-written plans rarely contain — overlapping
 * Gilbert-Elliott bursts, back-to-back controller crashes, a crash
 * landing on a device an earlier crash still holds down. The same
 * seed always yields the same plan, so a soak failure is a seed, not
 * a core dump.
 *
 * When an OracleSuite flags a run, shrink_plan() minimizes the plan
 * with ddmin (drop event subsets while the predicate still fails,
 * then simplify the survivors' times/durations) and the JSON helpers
 * serialize the minimal plan into a reproducer that plan_from_json()
 * reloads bit-identically. plan_to_builder_snippet() renders the same
 * plan as C++ builder calls ready to paste into a regression test.
 */

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "fault/plan.hpp"
#include "sim/time.hpp"
#include "util/json.hpp"

namespace hivemind::fault {

/** Deployment envelope the fuzzer generates plans against. */
struct FuzzConfig
{
    std::size_t devices = 6;
    std::size_t servers = 2;
    sim::Time horizon = 60 * sim::kSecond;
    std::size_t min_events = 3;
    std::size_t max_events = 10;
    /** Generate controller faults (crash/partition). */
    bool allow_controller = true;
    /** Allow permanent device crashes (duration 0, never rejoins);
     *  at most one per plan so the fleet never fully dies. */
    bool allow_permanent = true;
};

/**
 * Seed -> FaultPlan generator. Plans are sorted by injection time,
 * pass FaultPlan::validate() against the config's bounds by
 * construction, and are a pure function of (config, seed).
 */
class PlanFuzzer
{
  public:
    explicit PlanFuzzer(FuzzConfig config = {}) : cfg_(config) {}

    /** Generate the plan for @p seed (same seed, same plan). */
    FaultPlan generate(std::uint64_t seed) const;

    /** Bounds matching the config, for validate() calls. */
    PlanBounds bounds() const;

    const FuzzConfig& config() const { return cfg_; }

  private:
    FuzzConfig cfg_;
};

/**
 * Returns true when a plan still reproduces the failure under
 * investigation. Typically wraps "run every shard count, audit,
 * violations non-empty".
 */
using PlanPredicate = std::function<bool(const FaultPlan&)>;

/** Outcome of shrink_plan(). */
struct ShrinkResult
{
    FaultPlan plan;               ///< Smallest still-failing plan found.
    std::size_t evaluations = 0;  ///< Predicate calls spent.
    /** 1-minimality reached (removing any single event passes); false
     *  when the evaluation budget ran out first or the input never
     *  failed. */
    bool minimal = false;
};

/**
 * Delta-debugging (ddmin) over the plan's events: repeatedly drop
 * subsets while @p still_failing holds, at shrinking granularity,
 * until no single event can be removed; then simplify the survivors
 * (round injection times to whole seconds, halve long durations) as
 * long as the failure persists. Deterministic: same plan + same
 * predicate behaviour, same result.
 */
ShrinkResult shrink_plan(const FaultPlan& plan,
                         const PlanPredicate& still_failing,
                         std::size_t max_evaluations = 400);

/**
 * Serialize a plan as a self-contained JSON reproducer. Schema v2
 * dropped v1's spatial-burst kind and its four burst fields; v3
 * dropped the fixed-delay ControllerFailover kind and its "takeover"
 * flag. Other versions, v1 and v2 included, are rejected, not
 * migrated.
 */
std::string plan_to_json(const FaultPlan& plan);

/**
 * Parse a reproducer produced by plan_to_json() (tolerant of
 * whitespace and field order; unknown fields rejected). Throws
 * std::invalid_argument on malformed input. Round-trips exactly:
 * plan_from_json(plan_to_json(p)) == p.
 */
FaultPlan plan_from_json(const std::string& json);

/**
 * The plan as a util::Json object value ({"version":3,"events":[...]},
 * same schema as plan_to_json) for embedding inside larger documents
 * — scenario profiles nest their chaos plan this way.
 */
util::Json plan_json(const FaultPlan& plan);

/**
 * Parse one plan object at the cursor (the nested counterpart of
 * plan_from_json; same strict unknown-key rejection). Leaves the
 * cursor right after the closing '}'.
 */
FaultPlan plan_from_cursor(util::JsonCursor& in);

/** Render the plan as FaultPlan builder calls for a regression test. */
std::string plan_to_builder_snippet(const FaultPlan& plan);

}  // namespace hivemind::fault
