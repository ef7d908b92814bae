#pragma once

/**
 * @file
 * Recovery accounting for chaos experiments (Secs. 4.6-4.7).
 *
 * RecoveryMetrics is the ledger every fault-injection run fills in:
 * how fast failures were detected (MTTD), how fast service was
 * restored (MTTR), how much work was thrown away and re-executed, and
 * how many frames the wireless layer dropped during partitions. The
 * block is embedded in platform::RunMetrics so every scenario run
 * reports it alongside the latency/energy figures.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hpp"

namespace hivemind::fault {

/** Ledger of one run's failures and recoveries. */
struct RecoveryMetrics
{
    /** Mean-time-to-detect samples: fault injection -> detection, s. */
    sim::Summary mttd_s;
    /** Mean-time-to-repair samples: fault injection -> service restored, s. */
    sim::Summary mttr_s;
    /** Function progress discarded by faults/crashes, core-ms. */
    double work_lost_core_ms = 0.0;
    /** Previously executed work re-driven after recovery, core-ms. */
    double reexecuted_core_ms = 0.0;
    /** Wireless frames dropped (retry budget exhausted in a partition). */
    std::uint64_t frames_dropped = 0;
    /** Wireless link-layer retransmissions performed. */
    std::uint64_t wireless_retransmissions = 0;
    /** Pipeline offloads abandoned after the app-level retry budget. */
    std::uint64_t offloads_abandoned = 0;
    /** App-level offload retry attempts (backoff + jitter). */
    std::uint64_t offload_retries = 0;
    /** Times a per-device circuit breaker opened (probation, Sec. 4.6). */
    std::uint64_t circuit_open_events = 0;
    /** Counters per fault class. */
    std::uint64_t device_crashes = 0;
    std::uint64_t device_rejoins = 0;
    std::uint64_t server_crashes = 0;
    /** In-flight invocations killed by server crashes. */
    std::uint64_t killed_invocations = 0;
    std::uint64_t datastore_outages = 0;
    /** Completed HA standby takeovers. */
    std::uint64_t controller_failovers = 0;
    std::uint64_t link_burst_windows = 0;
    std::uint64_t partitions = 0;

    // --- Swarm-controller high availability (Sec. 4.6-4.7) ---
    /** Controller fault injection -> standby election, seconds. */
    sim::Summary controller_mttd_s;
    /** Controller fault injection -> takeover complete, seconds. */
    sim::Summary controller_mttr_s;
    /** Age of the replayed checkpoint at failover (lost-work bound), s. */
    sim::Summary checkpoint_age_s;
    /** Primary swarm-controller crashes injected. */
    std::uint64_t controller_crashes = 0;
    /** Swarm-controller partition windows injected. */
    std::uint64_t controller_partitions = 0;
    /** Controller state checkpoints persisted to the datastore. */
    std::uint64_t checkpoints_taken = 0;
    /** Bytes of checkpoint state written. */
    std::uint64_t checkpoint_bytes = 0;
    /** Offloads redriven by the standby after replaying a checkpoint. */
    std::uint64_t tasks_redriven_on_failover = 0;
    /** Sensor frames buffered on-board while no controller was up. */
    std::uint64_t frames_buffered_degraded = 0;
    /** Buffered frames successfully drained after reconnect. */
    std::uint64_t buffered_frames_drained = 0;
    /** Total seconds with no controller reachable. */
    double controller_outage_s = 0.0;
    /** Tasks that still completed during controller outages (goodput). */
    std::uint64_t outage_tasks_completed = 0;

    /** Fold another ledger into this one (summaries append). */
    void merge(const RecoveryMetrics& other);
};

/** One field where two ledgers disagree, values pre-formatted. */
struct MetricsDelta
{
    std::string field;
    std::string lhs;
    std::string rhs;
};

/**
 * Field-by-field comparison of two ledgers. Scalars compare exactly;
 * summaries compare by their full sample sequences (insertion order),
 * so two ledgers are equal iff they recorded the same history. Empty
 * result means equal.
 */
std::vector<MetricsDelta> metrics_diff(const RecoveryMetrics& a,
                                       const RecoveryMetrics& b);

/** Human-readable one-line-per-field diff ("" when equal). */
std::string metrics_diff_string(const RecoveryMetrics& a,
                                const RecoveryMetrics& b);
std::string metrics_diff_string(const std::vector<MetricsDelta>& deltas);

/** Exact equality: metrics_diff(a, b).empty(). */
bool operator==(const RecoveryMetrics& a, const RecoveryMetrics& b);

}  // namespace hivemind::fault
