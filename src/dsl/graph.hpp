#pragma once

/**
 * @file
 * The TaskGraph builder of the HiveMind DSL (Listing 1).
 *
 * Users declare tasks and the timing/execution relationships between
 * them — Parallel (may run concurrently), Serial (must not overlap),
 * Overlap (may partially overlap), Synchronize (barrier) — plus
 * performance and cost constraints the synthesized deployment must
 * satisfy. validate() reports structural errors (unknown references,
 * cycles, contradictory orderings); public bug reports identify
 * incorrect API/task wiring as a primary source of failures in
 * multi-tier apps (Sec. 4.1), so validation is strict.
 */

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dsl/task.hpp"

namespace hivemind::dsl {

/** Performance/cost targets the deployment must meet (Sec. 4.1). */
struct GraphConstraints
{
    /** Max end-to-end execution time, seconds (0 = unconstrained). */
    double exec_time_s = 0.0;
    /** Max per-task latency, seconds (0 = unconstrained). */
    double latency_s = 0.0;
    /** Min task throughput, tasks/s (0 = unconstrained). */
    double throughput_hz = 0.0;
    /** Max cloud-resource cost, arbitrary units (0 = unconstrained). */
    double cloud_cost = 0.0;
    /** Max battery consumption fraction (0 = unconstrained). */
    double battery_fraction = 0.0;
};

/** Pairwise ordering relations (Listing 1). */
enum class Ordering
{
    Parallel,
    Overlap,
    Serial,
};

/** A declared ordering between two tasks. */
struct OrderingRule
{
    std::string a;
    std::string b;
    Ordering kind;
};

/** A synchronization barrier on a task (Listing 1: Synchronize). */
struct SyncPoint
{
    std::string task;
    std::string condition;  ///< e.g., "all" — every instance finished.
};

/** An application's declarative task graph. */
class TaskGraph
{
  public:
    TaskGraph() = default;
    explicit TaskGraph(std::string name) : name_(std::move(name)) {}

    const std::string& name() const { return name_; }

    /** Add a task; duplicate names are a validation error. */
    TaskGraph& add_task(TaskDef task);

    /** Declare an edge parent -> child (merged with TaskDef lists). */
    TaskGraph& add_edge(const std::string& parent, const std::string& child);

    /** Listing 1 ordering declarations. */
    TaskGraph& parallel(const std::string& a, const std::string& b);
    TaskGraph& overlap(const std::string& a, const std::string& b);
    TaskGraph& serial(const std::string& a, const std::string& b);
    TaskGraph& synchronize(const std::string& task,
                           const std::string& condition);

    /** Listing 2 management directives. */
    TaskGraph& place(const std::string& task, PlacementHint hint);
    TaskGraph& isolate(const std::string& task);
    TaskGraph& persist(const std::string& task);
    TaskGraph& learn(const std::string& task, LearnScope scope);
    TaskGraph& restore(const std::string& task, RestorePolicy policy);
    TaskGraph& schedule_priority(const std::string& task, int priority);

    /** Set the deployment constraints. */
    TaskGraph& constrain(const GraphConstraints& constraints);
    const GraphConstraints& constraints() const { return constraints_; }

    /** Number of tasks. */
    std::size_t size() const { return order_.size(); }

    /** Whether a task exists. */
    bool has_task(const std::string& name) const;

    /** Task by name; throws std::out_of_range when missing. */
    const TaskDef& task(const std::string& name) const;
    TaskDef& task(const std::string& name);

    /** Tasks in declaration order. */
    const std::vector<std::string>& task_names() const { return order_; }

    /** Whether edge parent -> child exists. */
    bool has_edge(const std::string& parent, const std::string& child) const;

    /** All declared ordering rules. */
    const std::vector<OrderingRule>& orderings() const { return rules_; }

    /** Tasks with no parents / no children. */
    std::vector<std::string> roots() const;
    std::vector<std::string> leaves() const;

    /**
     * Topological order of the tasks.
     *
     * @return std::nullopt when the graph has a cycle.
     */
    std::optional<std::vector<std::string>> topo_order() const;

    /**
     * Validate the graph; returns a list of human-readable errors
     * (empty = valid). Checks: duplicate/unknown task references,
     * self-edges, cycles, contradictory orderings (Parallel + Serial
     * on the same pair), sensor sources pinned to the cloud, actuator
     * sinks pinned to the cloud, and dangling dataset wiring (a task
     * consuming data no parent produces).
     */
    std::vector<std::string> validate() const;

  private:
    std::string name_;
    std::map<std::string, TaskDef> tasks_;
    std::vector<std::string> order_;
    std::vector<OrderingRule> rules_;
    std::vector<SyncPoint> syncs_;
    GraphConstraints constraints_;
    std::vector<std::string> build_errors_;
};

}  // namespace hivemind::dsl
