#pragma once

/**
 * @file
 * Declarative fault plans for chaos experiments (Secs. 4.6-4.7).
 *
 * A FaultPlan is an ordered list of typed fault events with absolute
 * injection times: device crashes (optionally transient, with a
 * scheduled rejoin), Gilbert-Elliott bursty packet-loss windows, hard
 * wireless partitions, cloud server crashes, datastore outage windows
 * and controller faults. Plans are plain data — fault::route_plan()
 * (fault/shard_chaos.hpp) schedules them onto a sharded run — so a
 * plan can be built once and replayed bit-identically across seeds,
 * platforms and recovery policies.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace hivemind::fault {

/** The fault classes the scenario engine knows how to inject. */
enum class FaultKind
{
    /** One device stops heartbeating (rejoins after `duration` if > 0). */
    DeviceCrash,
    /** Gilbert-Elliott bursty-loss window on the wireless links. */
    LinkBurst,
    /** Hard partition: one device's radio is blacked out for `duration`. */
    Partition,
    /** Cloud server crash: kills in-flight invocations, down `duration`. */
    ServerCrash,
    /** Datastore outage: all accesses stall until the window closes. */
    DatastoreOutage,
    /** Crash the primary swarm controller; the HA standby must elect
     *  itself, replay the latest checkpoint and reconcile (Sec. 4.6). */
    ControllerCrash,
    /** The swarm controller is unreachable for `duration` (network
     *  partition); no failover — the same instance comes back. */
    ControllerPartition,
};

/** One scheduled fault. Unused fields are ignored per kind. */
struct FaultEvent
{
    FaultKind kind = FaultKind::DeviceCrash;
    /** Absolute injection time. */
    sim::Time at = 0;
    /** Fault window / time-to-rejoin; 0 means permanent. */
    sim::Time duration = 0;
    /** Device or server index (DeviceCrash, Partition, ServerCrash). */
    std::size_t target = 0;
    /** LinkBurst Gilbert-Elliott parameters: per-state loss and mean
     *  state dwell times. */
    double loss_good = 0.0;
    double loss_bad = 0.9;
    sim::Time mean_good = 2 * sim::kSecond;
    sim::Time mean_bad = 500 * sim::kMillisecond;

    bool operator==(const FaultEvent&) const = default;
};

/** Short stable name for a fault kind ("DeviceCrash", ...). */
const char* kind_name(FaultKind kind);

/**
 * Deployment limits a plan is validated against. A zero field means
 * "unknown, skip that check", so partial validation works at layers
 * that only know part of the deployment (e.g. route_plan() may know
 * the device count but not the horizon).
 */
struct PlanBounds
{
    /** Device ids must be < devices (0 = don't check). */
    std::size_t devices = 0;
    /** Server ids must be < servers (0 = don't check). */
    std::size_t servers = 0;
    /** Injection times must be < horizon (0 = don't check). */
    sim::Time horizon = 0;
};

/** A full chaos schedule. Builder methods append and return *this. */
struct FaultPlan
{
    std::vector<FaultEvent> events;

    bool empty() const { return events.empty(); }

    /** Crash `device` at `at`; rejoin after `rejoin_after` (0 = never). */
    FaultPlan& device_crash(sim::Time at, std::size_t device,
                            sim::Time rejoin_after = 0);

    /** Gilbert-Elliott bursty-loss window over [at, at + duration). */
    FaultPlan& link_burst(sim::Time at, sim::Time duration,
                          double loss_bad = 0.9,
                          sim::Time mean_good = 2 * sim::kSecond,
                          sim::Time mean_bad = 500 * sim::kMillisecond);

    /** Black out `device`'s radio over [at, at + duration). */
    FaultPlan& partition(sim::Time at, sim::Time duration,
                         std::size_t device);

    /** Crash cloud server `server` at `at`; back after `down_for`. */
    FaultPlan& server_crash(sim::Time at, std::size_t server,
                            sim::Time down_for = 5 * sim::kSecond);

    /** Stall every datastore access over [at, at + duration). */
    FaultPlan& datastore_outage(sim::Time at, sim::Time duration);

    /** Crash the primary swarm controller at `at` (HA failover path). */
    FaultPlan& controller_crash(sim::Time at);

    /** Make the swarm controller unreachable over [at, at + duration). */
    FaultPlan& controller_partition(sim::Time at, sim::Time duration);

    /**
     * Seeded Poisson device churn: crash/rejoin cycles with
     * exponentially distributed inter-arrival times (`mean_interarrival`)
     * over [0, horizon), victims drawn uniformly. Deterministic for a
     * given seed, so churn plans replay bit-identically.
     */
    static FaultPlan poisson_device_churn(std::uint64_t seed,
                                          std::size_t devices,
                                          sim::Time horizon,
                                          sim::Time mean_interarrival,
                                          sim::Time rejoin_after);

    bool operator==(const FaultPlan&) const = default;

    /**
     * Structural validation: every problem found, one message each,
     * empty when the plan is well-formed. Rejects negative times,
     * out-of-range device/server targets (when @p bounds knows the
     * counts), events at or past the horizon (when known), degenerate
     * zero-width windows (LinkBurst, Partition, DatastoreOutage,
     * ControllerPartition), loss probabilities outside [0, 1] and
     * non-positive Gilbert-Elliott dwell times. DeviceCrash and
     * ServerCrash keep duration == 0 as the documented "permanent"
     * encoding.
     */
    std::vector<std::string> validate(const PlanBounds& bounds = {}) const;

    /** validate() and throw std::invalid_argument on any finding. */
    void validate_or_throw(const PlanBounds& bounds = {}) const;
};

/**
 * Replay the skip-if-down rule over the plan's DeviceCrash and
 * ServerCrash events: a crash targeting a device (server) that is
 * already held down by an earlier, still-open crash window is not a
 * second incident — it neither fires nor schedules a rejoin (restore).
 * Returns one flag per plan event; true marks a DeviceCrash or
 * ServerCrash that actually takes its target down (every other kind
 * is false). Ties are resolved crash-before-rejoin, then plan order.
 * route_plan() routes only these crashes, the scenario engine books
 * its crash counts and MTTD/MTTR samples from them, and the oracles
 * interpret the plan through them, so all three agree on what counts
 * as one incident.
 */
std::vector<bool> effective_crashes(const FaultPlan& plan);

}  // namespace hivemind::fault
