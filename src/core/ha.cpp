#include "core/ha.hpp"

#include <algorithm>

namespace hivemind::core {

namespace {

/** Primary -> standby heartbeat period. */
constexpr sim::Time kPrimaryBeatInterval = 500 * sim::kMillisecond;
/** Missed-heartbeat silence that triggers the standby election. */
constexpr sim::Time kElectionTimeout = 1500 * sim::kMillisecond;
/** Checkpoint deserialization/replay bandwidth, bytes/second. */
constexpr double kReplayBps = 64e6;
/** Re-registration ping cost per edge device during reconcile. */
constexpr sim::Time kReconcilePerDevice = 20 * sim::kMillisecond;
/** Redrive cost per in-flight/lost offload (epoch-redrive path). */
constexpr sim::Time kRedrivePerOffload = 5 * sim::kMillisecond;
/**
 * Fraction of the checkpoint's age spent replaying the event delta
 * (heartbeats, detections, partition moves) that post-dates it.
 * This is what makes recovery time grow with checkpoint age.
 */
constexpr double kDriftReplayFrac = 0.15;

}  // namespace

std::uint64_t
ControllerCheckpoint::size_bytes() const
{
    // Header + per-region entry (owner id + four doubles) + registry
    // flag per device + in-flight counter per device + watermark.
    return 64 + 40 * static_cast<std::uint64_t>(partition.assignments.size()) +
        static_cast<std::uint64_t>(device_failed.size()) +
        8 * static_cast<std::uint64_t>(inflight.size()) + 16;
}

void
CheckpointStore::persist(ControllerCheckpoint cp)
{
    std::uint64_t bytes = cp.size_bytes();
    auto commit = [this, cp = std::move(cp), bytes]() {
        // A slow write must not clobber a newer durable checkpoint.
        if (durable_ && durable_->seq > cp.seq)
            return;
        durable_ = cp;
        ++persisted_;
        bytes_written_ += bytes;
    };
    write_transport_(bytes, std::move(commit));
}

void
CheckpointStore::read_latest(std::function<void()> done)
{
    read_transport_(durable_ ? durable_->size_bytes() : 64, std::move(done));
}

HaCluster::HaCluster(sim::Simulator& simulator, const HaConfig& config)
    : simulator_(&simulator), config_(config)
{
}

void
HaCluster::start()
{
    running_ = true;
    available_ = true;
    last_beat_ = simulator_->now();
    // Bootstrap checkpoint so a crash before the first interval still
    // has (early, stale) state to replay.
    checkpoint_tick();
    sim::recurring(*simulator_, kPrimaryBeatInterval,
                   [this](const sim::Recur& self) {
                       if (!running_)
                           return;
                       watchdog_tick();
                       self.again_in(kPrimaryBeatInterval);
                   });
    sim::recurring(*simulator_, config_.checkpoint_interval,
                   [this](const sim::Recur& self) {
                       if (!running_)
                           return;
                       checkpoint_tick();
                       self.again_in(config_.checkpoint_interval);
                   });
}

void
HaCluster::stop()
{
    running_ = false;
    if (!available_) {
        // Close the open outage window without firing callbacks — the
        // scenario is tearing down.
        unavailable_s_ +=
            sim::to_seconds(simulator_->now() - down_since_);
        available_ = true;
    }
}

double
HaCluster::unavailable_seconds() const
{
    double open = available_
        ? 0.0
        : sim::to_seconds(simulator_->now() - down_since_);
    return unavailable_s_ + open;
}

void
HaCluster::crash_active()
{
    if (!running_ || crashed_)
        return;
    crashed_ = true;
    electing_ = false;
    crash_at_ = simulator_->now();
    set_available(false);
}

void
HaCluster::partition(sim::Time duration)
{
    if (!running_ || duration <= 0)
        return;
    sim::Time until = simulator_->now() + duration;
    partitioned_until_ = std::max(partitioned_until_, until);
    if (!crashed_)
        set_available(false);
    simulator_->schedule_at(until, [this]() {
        if (!running_ || crashed_ || available_ ||
            simulator_->now() < partitioned_until_)
            return;
        set_available(true);
        if (on_restored_)
            on_restored_(-1.0);  // Same instance; nothing replayed.
    });
}

void
HaCluster::watchdog_tick()
{
    sim::Time now = simulator_->now();
    if (!crashed_) {
        // The primary's heartbeat reaches the (cloud-side) standbys
        // even while an edge-facing partition is open.
        last_beat_ = now;
        return;
    }
    if (!electing_ && now - last_beat_ > kElectionTimeout) {
        // Missed-deadline election: a standby promotes itself.
        electing_ = true;
        detect_s_.add(sim::to_seconds(now - crash_at_));
        if (on_detected_)
            on_detected_();
        begin_takeover();
    }
}

void
HaCluster::checkpoint_tick()
{
    if (!running_ || crashed_ || !snapshot_)
        return;
    ControllerCheckpoint cp = snapshot_();
    cp.taken_at = simulator_->now();
    cp.seq = ++seq_;
    store_.persist(std::move(cp));
}

void
HaCluster::begin_takeover()
{
    if (standbys_remaining() <= 0)
        return;  // Nobody left to promote: the outage stays open.
    store_.read_latest([this]() {
        if (!running_ || !crashed_)
            return;
        const ControllerCheckpoint cp =
            store_.latest() ? *store_.latest() : ControllerCheckpoint{};
        sim::Time age = std::max<sim::Time>(0, crash_at_ - cp.taken_at);
        // Deserialize the checkpoint, then replay the event delta that
        // post-dates it — the lost-work term that grows with age.
        sim::Time replay = sim::from_seconds(
            static_cast<double>(cp.size_bytes()) / kReplayBps);
        replay += static_cast<sim::Time>(
            kDriftReplayFrac * static_cast<double>(age));
        simulator_->schedule_in(replay, [this, cp, age]() {
            if (!running_ || !crashed_)
                return;
            ReconcileReport rep =
                on_takeover_ ? on_takeover_(cp) : ReconcileReport{};
            offloads_redriven_ += rep.offloads_redriven;
            sim::Time reconcile = kReconcilePerDevice *
                    static_cast<sim::Time>(rep.devices_reregistered) +
                kRedrivePerOffload *
                    static_cast<sim::Time>(rep.offloads_redriven);
            simulator_->schedule_in(reconcile, [this, age]() {
                if (!running_ || !crashed_)
                    return;
                crashed_ = false;
                electing_ = false;
                ++failovers_;
                last_beat_ = simulator_->now();
                recover_s_.add(
                    sim::to_seconds(simulator_->now() - crash_at_));
                double age_s = sim::to_seconds(age);
                checkpoint_age_s_.add(age_s);
                // An overlapping partition window keeps the (new)
                // controller unreachable; its heal event flips us up.
                if (simulator_->now() >= partitioned_until_)
                    set_available(true);
                if (on_restored_)
                    on_restored_(age_s);
                // The new primary checkpoints immediately so a second
                // crash does not replay pre-failover state.
                checkpoint_tick();
            });
        });
    });
}

void
HaCluster::set_available(bool up)
{
    if (up == available_)
        return;
    available_ = up;
    sim::Time now = simulator_->now();
    if (!up) {
        down_since_ = now;
    } else {
        unavailable_s_ += sim::to_seconds(now - down_since_);
    }
    if (on_availability_)
        on_availability_(up);
}

}  // namespace hivemind::core
