#pragma once

/**
 * @file
 * Fault-plan routing for the sharded runtime.
 *
 * Chaos injection must happen on the shard that owns the faulted
 * component, or the injection itself would race the shard's event
 * loop. route_plan() walks a FaultPlan and schedules each supported
 * event on the owning shard's kernel *before* the run starts, so the
 * injections participate in the deterministic (time, seq) order like
 * any other event:
 *
 *  - DeviceCrash (and its rejoin) fire on the device's owner shard.
 *  - LinkBurst runs a two-state Gilbert-Elliott chain per device:
 *    each device's dwell-time sequence is drawn from its own Rng
 *    forked deterministically from
 *    `burst_seed` and the event time, and the whole transition
 *    schedule is precomputed before the run starts. Burst state is
 *    therefore local to the device's owner shard (its uplink
 *    ShardLink), and the chain is identical at any shard count.
 *    Partition blacks out one device's radio the same way.
 *  - ServerCrash / DatastoreOutage fire on shard 0, the cloud shard,
 *    where the FaaS cluster and DataStore live in a sharded scenario.
 *  - ControllerCrash / ControllerPartition fire on the controller
 *    shard, where the scenario engine's controller tier lives (load
 *    balancer, failure detector, HA cluster). route_plan() schedules
 *    only the fault: the HA stack's election, checkpoint replay and
 *    reconcile own the recovery, and a partitioned controller returns
 *    by itself when its window closes.
 *
 * Events a scenario gives no hook for are counted as unsupported, not
 * dropped silently.
 */

#include <cstddef>
#include <functional>

#include "fault/plan.hpp"
#include "sim/swarm_runtime.hpp"

namespace hivemind::fault {

/** Callbacks a sharded scenario exposes to the router. */
struct ShardChaosHooks
{
    /** Take device @p d dark; runs on the owner shard. */
    std::function<void(std::size_t)> crash_device;
    /** Bring device @p d back; runs on the owner shard. */
    std::function<void(std::size_t)> rejoin_device;
    /**
     * Controller crash (the HA standby takes over); runs on the
     * controller shard.
     */
    std::function<void()> crash_controller;
    /**
     * Wireless loss override for device @p d (negative restores the
     * configured loss); runs on the owner shard (LinkBurst windows).
     */
    std::function<void(std::size_t, double)> set_device_loss;
    /** Radio blackout on/off for device @p d; runs on the owner shard. */
    std::function<void(std::size_t, bool)> partition_device;
    /**
     * Cloud server crash (server id, planned down time; 0 = never
     * restored) and recovery; both run on the cloud shard.
     */
    std::function<void(std::size_t, sim::Time)> crash_server;
    std::function<void(std::size_t)> recover_server;
    /** Datastore outage for a duration; runs on the cloud shard. */
    std::function<void(sim::Time)> datastore_outage;
    /**
     * Controller partition for a duration; runs on the controller
     * shard. The HA stack models the same instance going dark and
     * returning (no election).
     */
    std::function<void(sim::Time)> partition_controller;
    /**
     * A LinkBurst window opened; runs on the controller shard at the
     * window's injection time. Lets the scenario count burst windows
     * when they actually fire rather than at routing time, so a run
     * that finishes before a window opens does not count it.
     */
    std::function<void()> note_link_burst;
    /** Device ids the LinkBurst loss window must cover. */
    std::size_t devices = 0;
    /**
     * Seed for the per-device Gilbert-Elliott dwell chains. Fold the
     * deployment seed in so different seeds see different bursts.
     */
    std::uint64_t burst_seed = 0;
};

/** What route_plan() scheduled. */
struct ShardChaosReport
{
    std::size_t routed = 0;       ///< Events scheduled on a shard.
    std::size_t unsupported = 0;  ///< Kinds with no sharded model.
    std::size_t link_bursts = 0;  ///< LinkBurst windows scheduled.
};

/**
 * Schedule @p plan's events onto the owning shards. @p owner maps a
 * device id to its shard; shard 0 owns the FaaS cluster and
 * DataStore, @p controller_shard the controller tier. Call before
 * SwarmRuntime::run_until().
 */
ShardChaosReport route_plan(sim::SwarmRuntime& runtime,
                            const FaultPlan& plan,
                            const std::function<int(std::size_t)>& owner,
                            const ShardChaosHooks& hooks,
                            int controller_shard = 0);

}  // namespace hivemind::fault
