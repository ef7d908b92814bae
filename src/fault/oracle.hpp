#pragma once

/**
 * @file
 * Swarm-wide invariant oracles for chaos runs (Secs. 4.6-4.7).
 *
 * A finished run of the scenario engine fills a RunAudit: the plan it
 * executed, the frame-accounting ledger, the
 * recovery metrics, each device's end state and the run checksum. The
 * OracleSuite then audits the audit: machine-checked properties that
 * must hold for ANY fault schedule, which is what lets a fuzzer
 * explore plans nobody hand-wrote. The catalogue:
 *
 *  - frame conservation: generated == delivered + dropped + in-flight,
 *    and the degraded-mode buffer books balance (buffered == drained +
 *    lost-on-air + drain-in-flight + still-buffered);
 *  - recovery-ledger sanity: injected-fault counters match an
 *    interpretation of the plan, at most one detection per device
 *    incident, controller MTTR >= MTTD pairwise, failover count
 *    matches completed takeovers, checkpoint age bounded by the
 *    interval plus every stall the plan could have caused;
 *  - liveness: transient crashes rejoin, devices the plan left alone
 *    end alive, no circuit breaker is still open long after the last
 *    wireless disturbance, the sim reaches its horizon;
 *  - cross-run: same seed byte-identical, checksum and ledger equal
 *    at any shard count.
 *
 * Counters for events injected close to the moment the run stopped
 * are checked as ranges: an event at the completion boundary may or
 * may not have fired depending on kernel tie-breaks, so the expected
 * count is [fired-before, fired-before + boundary events]. RunAudit::
 * completion_margin widens the boundary, since the engine evaluates
 * its stop predicate only at slice boundaries.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/metrics.hpp"
#include "fault/plan.hpp"
#include "sim/time.hpp"

namespace hivemind::fault {

/** Frame- and message-accounting terms, measured independently. */
struct FrameLedger
{
    // Offload pipeline (normal mode).
    std::uint64_t generated = 0;     ///< Frames entering the pipeline.
    std::uint64_t delivered = 0;     ///< Results landed back on-device.
    std::uint64_t dropped = 0;       ///< Abandoned (retry budget/breaker).
    std::uint64_t inflight_end = 0;  ///< Still pending at completion.

    // Degraded-mode buffering (controller outages).
    std::uint64_t buffered = 0;            ///< Accepted into the buffer.
    std::uint64_t dropped_onboard = 0;     ///< Buffer-overflow drops.
    std::uint64_t drained = 0;             ///< Drained successfully.
    std::uint64_t drain_lost = 0;          ///< Lost draining (air/death).
    std::uint64_t drain_inflight_end = 0;  ///< Drain still in the air.
    std::uint64_t buffered_end = 0;        ///< Still buffered at the end.

    bool operator==(const FrameLedger&) const = default;
};

/** One device's state when the run stopped. */
struct DeviceEndState
{
    bool alive = false;
    bool battery_dead = false;
    bool breaker_open = false;      ///< Circuit still open at completion.
    std::uint64_t buffered = 0;     ///< Frames still in the buffer.

    bool operator==(const DeviceEndState&) const = default;
};

/** Everything the oracles need to know about one finished run. */
struct RunAudit
{
    int shards = 1;
    std::uint64_t seed = 0;
    std::size_t devices = 0;
    std::size_t servers = 0;
    sim::Time horizon = 0;     ///< Configured time cap.
    sim::Time completion = 0;  ///< Sim time the run stopped at.
    /**
     * Events injected in (completion, completion + margin] may or may
     * not have fired (stop-predicate granularity); the count oracles
     * treat them as optional.
     */
    sim::Time completion_margin = 0;
    bool completed = false;        ///< Mission goal reached.
    /** The harness promises the run ends only at the horizon (fuzz
     *  configs make the goal unattainable); lets the liveness oracle
     *  flag early stops instead of excusing them as goal finishes. */
    bool expect_full_horizon = false;
    bool ha_enabled = false;       ///< HA stack was wired.
    std::size_t ha_standbys = 0;   ///< Failover budget (0 = unknown).
    double checkpoint_interval_s = 0.0;
    double breaker_cooldown_s = 0.0;
    double configured_loss = 0.0;  ///< Baseline wireless loss.
    std::uint64_t checksum = 0;

    FaultPlan plan;
    FrameLedger frames;
    RecoveryMetrics recovery;
    std::vector<DeviceEndState> device_end;
};

/** One broken invariant. */
struct Violation
{
    std::string oracle;  ///< Which invariant family tripped.
    std::string detail;  ///< Human-readable account with the numbers.
};

/** Render a violation list, one per line ("" when clean). */
std::string violations_to_string(const std::vector<Violation>& violations);

/**
 * The invariant catalogue. Stateless; every method returns the
 * violations it found (empty = clean).
 */
class OracleSuite
{
  public:
    /** Every single-run invariant: conservation, ledger, liveness. */
    std::vector<Violation> audit(const RunAudit& run) const;

    std::vector<Violation> check_frame_conservation(const RunAudit& run) const;
    std::vector<Violation> check_ledger_sanity(const RunAudit& run) const;
    std::vector<Violation> check_liveness(const RunAudit& run) const;

    /** Same seed, same config: the two runs must be identical. */
    std::vector<Violation> check_determinism(const RunAudit& a,
                                             const RunAudit& b) const;

    /** Same seed across shard counts: identical up to `shards`. */
    std::vector<Violation> check_shard_invariance(
        const std::vector<RunAudit>& runs) const;
};

}  // namespace hivemind::fault
