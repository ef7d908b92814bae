#pragma once

/**
 * @file
 * Controller high availability (Secs. 4.6-4.7).
 *
 * The real HiveMind controller "runs as a centralized process with
 * two hot standbys" and "periodically checkpoints its state" so a
 * standby can take over after missed heartbeats. This module models
 * that stack honestly instead of as a fixed delay:
 *
 *  - ControllerCheckpoint is the serialized controller state: device
 *    registry (alive/failed flags), the load balancer's region
 *    partition, per-device in-flight offload counts and a
 *    tasks-started watermark. Its byte size is accounted.
 *  - CheckpointStore persists checkpoints over the owner's write
 *    transport (the scenario engine's: a checkpoint-plane RPC to the
 *    cloud::DataStore queue); a checkpoint is durable only when the
 *    write completes, so datastore outages delay durability.
 *  - HaCluster runs the primary's heartbeat, the standby's
 *    missed-deadline election, checkpoint read + replay, and the
 *    reconciliation/redrive delays. It exposes available() so the
 *    platform can drop edge devices into degraded-mode local control
 *    while no controller is reachable.
 *
 * Recovery time therefore decomposes into detection (election timeout)
 * + checkpoint read + state replay + reconciliation, and grows with
 * the age of the last durable checkpoint — the knob the
 * abl_controller_ha bench sweeps.
 *
 * This is the repo's one controller-failure model: the scenario
 * engine wires an HaCluster iff the run's fault plan holds a
 * ControllerCrash or ControllerPartition (HiveMind only), and every
 * such fault runs through it.
 */

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "core/load_balancer.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace hivemind::core {

/** HA settings runs vary; Sec. 4.6's timings are constants (ha.cpp). */
struct HaConfig
{
    /** Period between controller state checkpoints. */
    sim::Time checkpoint_interval = 5 * sim::kSecond;
    /** Hot standbys behind the primary (Sec. 4.7: two). */
    int standbys = 2;
};

/** Serialized controller state (Sec. 4.6 checkpoint format). */
struct ControllerCheckpoint
{
    /** When the snapshot was taken (not when it became durable). */
    sim::Time taken_at = 0;
    /** Monotone checkpoint sequence number. */
    std::uint64_t seq = 0;
    /** Device registry: failed flag per device. */
    std::vector<char> device_failed;
    /** Region partition at snapshot time. */
    SwarmLoadBalancer::Snapshot partition;
    /** In-flight offload count per device (task-graph bookkeeping). */
    std::vector<std::uint32_t> inflight;
    /** Tasks started since boot (progress watermark for redrive). */
    std::uint64_t tasks_started = 0;

    /** Modeled serialized size. */
    std::uint64_t size_bytes() const;
};

/** What the takeover reconciliation touched (drives its cost model). */
struct ReconcileReport
{
    /** Devices re-registered (pinged) by the new primary. */
    std::size_t devices_reregistered = 0;
    /** Offloads redriven through the epoch-redrive path. */
    std::size_t offloads_redriven = 0;
    /** Devices whose region changed while reconciling drift. */
    std::size_t regions_repartitioned = 0;
};

/**
 * Durable checkpoint storage behind a pair of transports.
 *
 * persist() issues an async write sized by the checkpoint; latest()
 * only returns a checkpoint once its write completed, so a crash
 * racing a write falls back to the previous durable state.
 */
class CheckpointStore
{
  public:
    /**
     * Ships @p bytes to or from durable storage and fires the
     * callback when the transfer commits; a transport that never
     * fires the callback models a lost write/read.
     */
    using Transport =
        std::function<void(std::uint64_t, std::function<void()>)>;

    /**
     * Install the write and read transports; both must be set before
     * the first persist() or read_latest(). The sharded engine carries
     * checkpoint RPCs over dedicated ShardLink planes to the cloud
     * shard's DataStore, so checkpoint traffic is metered and
     * loss-exposed like every other byte on the air.
     */
    void set_transport(Transport write, Transport read)
    {
        write_transport_ = std::move(write);
        read_transport_ = std::move(read);
    }

    /** Begin persisting @p cp; durable when the store write lands. */
    void persist(ControllerCheckpoint cp);

    /** The newest durable checkpoint, if any write completed yet. */
    const std::optional<ControllerCheckpoint>& latest() const
    {
        return durable_;
    }

    /**
     * Model the standby's checkpoint read: @p done fires once the read
     * transport has fetched the latest durable checkpoint (a 64-byte
     * header when nothing is durable yet).
     */
    void read_latest(std::function<void()> done);

    /** Checkpoints made durable. */
    std::uint64_t persisted() const { return persisted_; }

    /** Bytes written (durable checkpoints only). */
    std::uint64_t bytes_written() const { return bytes_written_; }

  private:
    Transport write_transport_;
    Transport read_transport_;
    std::optional<ControllerCheckpoint> durable_;
    std::uint64_t persisted_ = 0;
    std::uint64_t bytes_written_ = 0;
};

/**
 * Primary + hot standbys with checkpointed failover.
 *
 * The owner supplies the state callbacks: snapshot() captures the
 * live controller state each checkpoint interval, and on_takeover()
 * applies a replayed checkpoint and reconciles it against the live
 * fleet, returning what it had to touch. crash_active()/partition()
 * are driven by the chaos engine through the platform layer.
 */
class HaCluster
{
  public:
    HaCluster(sim::Simulator& simulator, const HaConfig& config);

    /** Captures controller state for a checkpoint. */
    void set_snapshot(std::function<ControllerCheckpoint()> fn)
    {
        snapshot_ = std::move(fn);
    }

    /** Applies a replayed checkpoint; returns the reconcile report. */
    void set_on_takeover(
        std::function<ReconcileReport(const ControllerCheckpoint&)> fn)
    {
        on_takeover_ = std::move(fn);
    }

    /** Availability edge (true = controller reachable again). */
    void set_on_availability(std::function<void(bool)> fn)
    {
        on_availability_ = std::move(fn);
    }

    /** Standby election fired (controller-crash MTTD instant). */
    void set_on_detected(std::function<void()> fn)
    {
        on_detected_ = std::move(fn);
    }

    /** Service restored; arg = replayed checkpoint age s (<0: none). */
    void set_on_restored(std::function<void(double)> fn)
    {
        on_restored_ = std::move(fn);
    }

    /** Checkpoint persistence layer: install its transports here. */
    CheckpointStore& checkpoint_store() { return store_; }

    /** Bootstrap checkpoint + heartbeat/watchdog/checkpoint timers. */
    void start();

    /** Stop all periodic activity and close the outage window. */
    void stop();

    /** Whether any controller instance is currently reachable. */
    bool available() const { return available_; }

    /** Kill the active controller instance (chaos hook). */
    void crash_active();

    /** Make the controller unreachable for @p duration (no failover). */
    void partition(sim::Time duration);

    /** Completed standby takeovers. */
    std::uint64_t failovers() const { return failovers_; }

    /** Durable checkpoints / bytes (checkpoint-size accounting). */
    std::uint64_t checkpoints_taken() const { return store_.persisted(); }
    std::uint64_t checkpoint_bytes() const { return store_.bytes_written(); }

    /** Offloads redriven across all takeovers. */
    std::uint64_t offloads_redriven() const { return offloads_redriven_; }

    /** Standbys not yet consumed by a failover. */
    int standbys_remaining() const
    {
        return config_.standbys - static_cast<int>(failovers_);
    }

    /** Total unreachable seconds (open window included). */
    double unavailable_seconds() const;

    /** Election latency samples, seconds. */
    const sim::Summary& detect_s() const { return detect_s_; }

    /** Crash -> service-restored samples, seconds. */
    const sim::Summary& recover_s() const { return recover_s_; }

    /** Replayed-checkpoint age at failover, seconds. */
    const sim::Summary& checkpoint_age_s() const { return checkpoint_age_s_; }

  private:
    void watchdog_tick();
    void checkpoint_tick();
    void begin_takeover();
    void set_available(bool up);

    sim::Simulator* simulator_;
    HaConfig config_;
    CheckpointStore store_;
    std::function<ControllerCheckpoint()> snapshot_;
    std::function<ReconcileReport(const ControllerCheckpoint&)> on_takeover_;
    std::function<void(bool)> on_availability_;
    std::function<void()> on_detected_;
    std::function<void(double)> on_restored_;

    bool running_ = false;
    bool available_ = true;
    bool crashed_ = false;
    bool electing_ = false;
    sim::Time last_beat_ = 0;
    sim::Time crash_at_ = 0;
    sim::Time partitioned_until_ = 0;
    sim::Time down_since_ = 0;
    double unavailable_s_ = 0.0;
    std::uint64_t failovers_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t offloads_redriven_ = 0;
    sim::Summary detect_s_;
    sim::Summary recover_s_;
    sim::Summary checkpoint_age_s_;
};

}  // namespace hivemind::core
