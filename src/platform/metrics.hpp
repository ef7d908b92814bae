#pragma once

/**
 * @file
 * Result records produced by experiment runs.
 *
 * RunMetrics carries everything the paper's figures report: per-task
 * latency distributions with the four-way stage breakdown (network /
 * management / data I/O / execution), per-device battery consumption,
 * over-the-air bandwidth, scenario completion time and status, and
 * runtime counters (cold starts, faults, respawns).
 */

#include <cstdint>
#include <string>

#include "fault/metrics.hpp"
#include "sim/stats.hpp"

namespace hivemind::platform {

/** Everything measured by one experiment run. */
struct RunMetrics
{
    /** End-to-end per-task latency, seconds. */
    sim::Summary task_latency_s;
    /** Per-task stage shares, seconds. */
    sim::Summary network_s;
    sim::Summary mgmt_s;
    sim::Summary data_s;
    sim::Summary exec_s;
    /** Per-device battery consumed at the end of the run, percent. */
    sim::Summary battery_pct;
    /** Per-device end-to-end job completion times (rover scenarios). */
    sim::Summary job_latency_s;
    /** Per-second over-the-air bandwidth, MB/s. */
    sim::Summary bandwidth_MBps;
    /** Scenario completion time, seconds (scenario runs only). */
    double completion_s = 0.0;
    /** Whether the scenario goal was reached (always true for jobs). */
    bool completed = true;
    /** Fraction of scenario targets found/counted. */
    double goal_fraction = 1.0;
    /** Counters. */
    std::uint64_t tasks_completed = 0;
    std::uint64_t tasks_shed = 0;
    std::uint64_t cold_starts = 0;
    std::uint64_t warm_starts = 0;
    std::uint64_t faults = 0;
    std::uint64_t respawns = 0;
    /** Host CPU seconds spent on cloud RPC processing. */
    double cloud_rpc_cpu_s = 0.0;
    /**
     * Total bytes sent + received over the device radios — the radio
     * energy ledger's input, summed over the fleet, so the radio
     * accounting is testable.
     */
    std::uint64_t radio_bytes_total = 0;
    /** Final detection-model quality (scenario runs; Fig. 15). */
    double detect_correct_pct = 0.0;
    double detect_fn_pct = 0.0;
    double detect_fp_pct = 0.0;
    /** Fault-injection ledger (MTTD/MTTR, lost work, retries). */
    fault::RecoveryMetrics recovery;

    /** Book one finished task (or graph activation) and its stage
     *  shares, seconds. */
    void record_task(double latency_s, double network, double mgmt,
                     double data, double exec);

    /** Merge a repeat run into this record (summaries append). */
    void merge(const RunMetrics& other);
};

/** Fixed-width helper for printing table rows. */
std::string format_cell(double value, int width = 10, int precision = 2);

}  // namespace hivemind::platform
