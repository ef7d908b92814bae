#include "fault/plan.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/rng.hpp"

namespace hivemind::fault {

const char*
kind_name(FaultKind kind)
{
    switch (kind) {
        case FaultKind::DeviceCrash: return "DeviceCrash";
        case FaultKind::LinkBurst: return "LinkBurst";
        case FaultKind::Partition: return "Partition";
        case FaultKind::ServerCrash: return "ServerCrash";
        case FaultKind::DatastoreOutage: return "DatastoreOutage";
        case FaultKind::ControllerCrash: return "ControllerCrash";
        case FaultKind::ControllerPartition: return "ControllerPartition";
    }
    return "Unknown";
}

FaultPlan&
FaultPlan::device_crash(sim::Time at, std::size_t device,
                        sim::Time rejoin_after)
{
    FaultEvent e;
    e.kind = FaultKind::DeviceCrash;
    e.at = at;
    e.duration = rejoin_after;
    e.target = device;
    events.push_back(e);
    return *this;
}

FaultPlan&
FaultPlan::link_burst(sim::Time at, sim::Time duration, double loss_bad,
                      sim::Time mean_good, sim::Time mean_bad)
{
    FaultEvent e;
    e.kind = FaultKind::LinkBurst;
    e.at = at;
    e.duration = duration;
    e.loss_bad = loss_bad;
    e.mean_good = mean_good;
    e.mean_bad = mean_bad;
    events.push_back(e);
    return *this;
}

FaultPlan&
FaultPlan::partition(sim::Time at, sim::Time duration, std::size_t device)
{
    FaultEvent e;
    e.kind = FaultKind::Partition;
    e.at = at;
    e.duration = duration;
    e.target = device;
    events.push_back(e);
    return *this;
}

FaultPlan&
FaultPlan::server_crash(sim::Time at, std::size_t server, sim::Time down_for)
{
    FaultEvent e;
    e.kind = FaultKind::ServerCrash;
    e.at = at;
    e.duration = down_for;
    e.target = server;
    events.push_back(e);
    return *this;
}

FaultPlan&
FaultPlan::datastore_outage(sim::Time at, sim::Time duration)
{
    FaultEvent e;
    e.kind = FaultKind::DatastoreOutage;
    e.at = at;
    e.duration = duration;
    events.push_back(e);
    return *this;
}

FaultPlan&
FaultPlan::controller_crash(sim::Time at)
{
    FaultEvent e;
    e.kind = FaultKind::ControllerCrash;
    e.at = at;
    events.push_back(e);
    return *this;
}

FaultPlan&
FaultPlan::controller_partition(sim::Time at, sim::Time duration)
{
    FaultEvent e;
    e.kind = FaultKind::ControllerPartition;
    e.at = at;
    e.duration = duration;
    events.push_back(e);
    return *this;
}

std::vector<std::string>
FaultPlan::validate(const PlanBounds& bounds) const
{
    std::vector<std::string> problems;
    auto flag = [&](std::size_t i, const FaultEvent& e, const std::string& what) {
        problems.push_back("event #" + std::to_string(i) + " (" +
                           kind_name(e.kind) + "): " + what);
    };
    for (std::size_t i = 0; i < events.size(); ++i) {
        const FaultEvent& e = events[i];
        if (e.at < 0)
            flag(i, e, "negative injection time");
        if (bounds.horizon > 0 && e.at >= bounds.horizon)
            flag(i, e, "injection at " + std::to_string(e.at) +
                           " is past the horizon " +
                           std::to_string(bounds.horizon));
        if (e.duration < 0)
            flag(i, e, "negative duration");
        const bool device_target = e.kind == FaultKind::DeviceCrash ||
                                   e.kind == FaultKind::Partition;
        if (device_target && bounds.devices > 0 && e.target >= bounds.devices)
            flag(i, e, "device target " + std::to_string(e.target) +
                           " out of range (devices=" +
                           std::to_string(bounds.devices) + ")");
        if (e.kind == FaultKind::ServerCrash && bounds.servers > 0 &&
            e.target >= bounds.servers)
            flag(i, e, "server target " + std::to_string(e.target) +
                           " out of range (servers=" +
                           std::to_string(bounds.servers) + ")");
        const bool window_kind = e.kind == FaultKind::LinkBurst ||
                                 e.kind == FaultKind::Partition ||
                                 e.kind == FaultKind::DatastoreOutage ||
                                 e.kind == FaultKind::ControllerPartition;
        if (window_kind && e.duration == 0)
            flag(i, e, "degenerate zero-width window");
        if (e.kind == FaultKind::LinkBurst) {
            if (e.loss_good < 0.0 || e.loss_good > 1.0 || e.loss_bad < 0.0 ||
                e.loss_bad > 1.0)
                flag(i, e, "loss probability outside [0, 1]");
            if (e.mean_good <= 0 || e.mean_bad <= 0)
                flag(i, e, "non-positive Gilbert-Elliott dwell time");
        }
    }
    return problems;
}

void
FaultPlan::validate_or_throw(const PlanBounds& bounds) const
{
    std::vector<std::string> problems = validate(bounds);
    if (problems.empty())
        return;
    std::string joined = "invalid FaultPlan: ";
    for (std::size_t i = 0; i < problems.size(); ++i) {
        if (i > 0)
            joined += "; ";
        joined += problems[i];
    }
    throw std::invalid_argument(joined);
}

std::vector<bool>
effective_crashes(const FaultPlan& plan)
{
    std::vector<bool> effective(plan.events.size(), false);
    // Timeline entries: crashes at their injection time, rejoins (for
    // transient crashes) at injection + duration. At equal timestamps
    // a crash sorts before a rejoin, then by plan index, so a crash
    // that lands exactly as an earlier window closes is absorbed by
    // that window.
    struct Entry
    {
        sim::Time at;
        bool rejoin;
        std::size_t index;  ///< Plan event the entry belongs to.
    };
    std::vector<Entry> timeline;
    for (std::size_t i = 0; i < plan.events.size(); ++i) {
        const FaultEvent& e = plan.events[i];
        if (e.kind != FaultKind::DeviceCrash &&
            e.kind != FaultKind::ServerCrash)
            continue;
        timeline.push_back({e.at, false, i});
        if (e.duration > 0)
            timeline.push_back({e.at + e.duration, true, i});
    }
    std::sort(timeline.begin(), timeline.end(),
              [](const Entry& a, const Entry& b) {
                  if (a.at != b.at)
                      return a.at < b.at;
                  if (a.rejoin != b.rejoin)
                      return !a.rejoin;
                  return a.index < b.index;
              });
    // Devices and servers are separate id spaces: key by (kind, id).
    using Target = std::pair<FaultKind, std::size_t>;
    std::vector<Target> down;
    for (const Entry& entry : timeline) {
        const FaultEvent& e = plan.events[entry.index];
        const Target target{e.kind, e.target};
        if (entry.rejoin) {
            // A rejoin only exists if its own crash fired, and then the
            // target is necessarily still down (no other crash can open
            // while this incident holds it).
            if (!effective[entry.index])
                continue;
            down.erase(std::remove(down.begin(), down.end(), target),
                       down.end());
            continue;
        }
        if (std::find(down.begin(), down.end(), target) != down.end())
            continue;  // Already held down: not a second incident.
        effective[entry.index] = true;
        down.push_back(target);
    }
    return effective;
}

FaultPlan
FaultPlan::poisson_device_churn(std::uint64_t seed, std::size_t devices,
                                sim::Time horizon,
                                sim::Time mean_interarrival,
                                sim::Time rejoin_after)
{
    FaultPlan plan;
    if (devices == 0 || horizon <= 0 || mean_interarrival <= 0)
        return plan;
    sim::Rng rng(seed);
    sim::Time t = 0;
    while (true) {
        t += static_cast<sim::Time>(
            rng.exponential(static_cast<double>(mean_interarrival)));
        if (t >= horizon)
            break;
        std::size_t victim =
            static_cast<std::size_t>(rng.uniform_int(0, devices - 1));
        plan.device_crash(t, victim, rejoin_after);
    }
    return plan;
}

}  // namespace hivemind::fault
