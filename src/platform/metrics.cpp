#include "platform/metrics.hpp"

#include <iomanip>
#include <sstream>

namespace hivemind::platform {

void
RunMetrics::record_task(double latency_s, double network, double mgmt,
                        double data, double exec)
{
    task_latency_s.add(latency_s);
    network_s.add(network);
    mgmt_s.add(mgmt);
    data_s.add(data);
    exec_s.add(exec);
    ++tasks_completed;
}

void
RunMetrics::merge(const RunMetrics& other)
{
    task_latency_s.merge(other.task_latency_s);
    network_s.merge(other.network_s);
    mgmt_s.merge(other.mgmt_s);
    data_s.merge(other.data_s);
    exec_s.merge(other.exec_s);
    battery_pct.merge(other.battery_pct);
    job_latency_s.merge(other.job_latency_s);
    bandwidth_MBps.merge(other.bandwidth_MBps);
    completion_s += other.completion_s;  // Callers average over repeats.
    completed = completed && other.completed;
    goal_fraction =
        goal_fraction < other.goal_fraction ? goal_fraction
                                            : other.goal_fraction;
    tasks_completed += other.tasks_completed;
    tasks_shed += other.tasks_shed;
    cold_starts += other.cold_starts;
    warm_starts += other.warm_starts;
    faults += other.faults;
    respawns += other.respawns;
    cloud_rpc_cpu_s += other.cloud_rpc_cpu_s;
    radio_bytes_total += other.radio_bytes_total;
    detect_correct_pct += other.detect_correct_pct;
    detect_fn_pct += other.detect_fn_pct;
    detect_fp_pct += other.detect_fp_pct;
    recovery.merge(other.recovery);
}

std::string
format_cell(double value, int width, int precision)
{
    std::ostringstream os;
    os << std::setw(width) << std::fixed << std::setprecision(precision)
       << value;
    return os.str();
}

}  // namespace hivemind::platform
