#include "fault/metrics.hpp"

#include <cstdio>

namespace hivemind::fault {

void
RecoveryMetrics::merge(const RecoveryMetrics& other)
{
    mttd_s.merge(other.mttd_s);
    mttr_s.merge(other.mttr_s);
    work_lost_core_ms += other.work_lost_core_ms;
    reexecuted_core_ms += other.reexecuted_core_ms;
    frames_dropped += other.frames_dropped;
    wireless_retransmissions += other.wireless_retransmissions;
    offloads_abandoned += other.offloads_abandoned;
    offload_retries += other.offload_retries;
    circuit_open_events += other.circuit_open_events;
    device_crashes += other.device_crashes;
    device_rejoins += other.device_rejoins;
    server_crashes += other.server_crashes;
    killed_invocations += other.killed_invocations;
    datastore_outages += other.datastore_outages;
    controller_failovers += other.controller_failovers;
    link_burst_windows += other.link_burst_windows;
    partitions += other.partitions;
    controller_mttd_s.merge(other.controller_mttd_s);
    controller_mttr_s.merge(other.controller_mttr_s);
    checkpoint_age_s.merge(other.checkpoint_age_s);
    controller_crashes += other.controller_crashes;
    controller_partitions += other.controller_partitions;
    checkpoints_taken += other.checkpoints_taken;
    checkpoint_bytes += other.checkpoint_bytes;
    tasks_redriven_on_failover += other.tasks_redriven_on_failover;
    frames_buffered_degraded += other.frames_buffered_degraded;
    buffered_frames_drained += other.buffered_frames_drained;
    controller_outage_s += other.controller_outage_s;
    outage_tasks_completed += other.outage_tasks_completed;
}

namespace {

std::string
fmt(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
fmt(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
fmt(const sim::Summary& s)
{
    std::string out = "count=" + std::to_string(s.count());
    if (!s.empty())
        out += " mean=" + fmt(s.mean()) + " min=" + fmt(s.min()) +
               " max=" + fmt(s.max());
    return out;
}

bool
same(double a, double b)
{
    return a == b;
}

bool
same(std::uint64_t a, std::uint64_t b)
{
    return a == b;
}

bool
same(const sim::Summary& a, const sim::Summary& b)
{
    return a.samples() == b.samples();
}

}  // namespace

std::vector<MetricsDelta>
metrics_diff(const RecoveryMetrics& a, const RecoveryMetrics& b)
{
    std::vector<MetricsDelta> out;
#define HM_METRICS_FIELD(f)                        \
    do {                                           \
        if (!same(a.f, b.f))                       \
            out.push_back({#f, fmt(a.f), fmt(b.f)}); \
    } while (0)
    HM_METRICS_FIELD(mttd_s);
    HM_METRICS_FIELD(mttr_s);
    HM_METRICS_FIELD(work_lost_core_ms);
    HM_METRICS_FIELD(reexecuted_core_ms);
    HM_METRICS_FIELD(frames_dropped);
    HM_METRICS_FIELD(wireless_retransmissions);
    HM_METRICS_FIELD(offloads_abandoned);
    HM_METRICS_FIELD(offload_retries);
    HM_METRICS_FIELD(circuit_open_events);
    HM_METRICS_FIELD(device_crashes);
    HM_METRICS_FIELD(device_rejoins);
    HM_METRICS_FIELD(server_crashes);
    HM_METRICS_FIELD(killed_invocations);
    HM_METRICS_FIELD(datastore_outages);
    HM_METRICS_FIELD(controller_failovers);
    HM_METRICS_FIELD(link_burst_windows);
    HM_METRICS_FIELD(partitions);
    HM_METRICS_FIELD(controller_mttd_s);
    HM_METRICS_FIELD(controller_mttr_s);
    HM_METRICS_FIELD(checkpoint_age_s);
    HM_METRICS_FIELD(controller_crashes);
    HM_METRICS_FIELD(controller_partitions);
    HM_METRICS_FIELD(checkpoints_taken);
    HM_METRICS_FIELD(checkpoint_bytes);
    HM_METRICS_FIELD(tasks_redriven_on_failover);
    HM_METRICS_FIELD(frames_buffered_degraded);
    HM_METRICS_FIELD(buffered_frames_drained);
    HM_METRICS_FIELD(controller_outage_s);
    HM_METRICS_FIELD(outage_tasks_completed);
#undef HM_METRICS_FIELD
    return out;
}

std::string
metrics_diff_string(const std::vector<MetricsDelta>& deltas)
{
    std::string out;
    for (const MetricsDelta& d : deltas) {
        out += "  " + d.field + ": " + d.lhs + " != " + d.rhs + "\n";
    }
    return out;
}

std::string
metrics_diff_string(const RecoveryMetrics& a, const RecoveryMetrics& b)
{
    return metrics_diff_string(metrics_diff(a, b));
}

bool
operator==(const RecoveryMetrics& a, const RecoveryMetrics& b)
{
    return metrics_diff(a, b).empty();
}

}  // namespace hivemind::fault
