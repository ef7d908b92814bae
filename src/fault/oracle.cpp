#include "fault/oracle.hpp"

#include <algorithm>
#include <cstdio>

namespace hivemind::fault {

namespace {

/** Absolute tolerance on second-valued comparisons. */
constexpr double kEpsS = 1e-9;
/** Transport/serialization allowance on the checkpoint-age bound. */
constexpr double kCheckpointSlackS = 5.0;
/** Backoff allowance before an idle breaker must have closed. */
constexpr double kBreakerSlackS = 15.0;

std::string
u64(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
dbl(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

/** Inclusive expected-count interval for one fault counter. */
struct CountRange
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    bool contains(std::uint64_t v) const { return v >= lo && v <= hi; }
    std::string to_string() const
    {
        if (lo == hi)
            return u64(lo);
        return "[" + u64(lo) + ", " + u64(hi) + "]";
    }
};

/**
 * What the plan should have injected by the time the run stopped.
 * Events at `completion` or inside the margin may or may not have
 * fired (stop-predicate granularity), so every counter is a range:
 * lo counts events strictly before completion, hi counts events up to
 * completion + margin.
 */
struct Expectation
{
    CountRange device_crashes;
    CountRange device_rejoins;
    CountRange partitions;
    CountRange server_crashes;
    CountRange datastore_outages;
    CountRange link_bursts;
    CountRange controller_crashes;
    CountRange controller_partitions;
    /** Σ durations of fired DatastoreOutage + ControllerPartition
     *  windows — every stall the checkpoint cadence can blame. */
    double stall_window_s = 0.0;
    /** End of the last wireless disturbance that may have fired. */
    sim::Time last_wireless_end = 0;
    /** Earliest injection time in the plan (or horizon if empty). */
    sim::Time first_event_at = 0;
    /** Per-device end state: 0 = up, 1 = down, -1 = boundary-ambiguous. */
    std::vector<int> device_down;
};

Expectation
interpret_plan(const RunAudit& run)
{
    const FaultPlan& plan = run.plan;
    const sim::Time c = run.completion;
    const sim::Time hi_cut = c + run.completion_margin;
    auto count = [&](CountRange& r, sim::Time at) {
        if (at < c)
            ++r.lo;
        if (at <= hi_cut)
            ++r.hi;
    };

    Expectation x;
    x.first_event_at = run.horizon;
    const std::vector<bool> crash_fires = effective_crashes(plan);
    for (std::size_t i = 0; i < plan.events.size(); ++i) {
        const FaultEvent& e = plan.events[i];
        x.first_event_at = std::min(x.first_event_at, e.at);
        switch (e.kind) {
        case FaultKind::DeviceCrash:
            if (crash_fires[i]) {
                count(x.device_crashes, e.at);
                if (e.duration > 0)
                    count(x.device_rejoins, e.at + e.duration);
            }
            break;
        case FaultKind::LinkBurst:
            count(x.link_bursts, e.at);
            if (e.at <= hi_cut)
                x.last_wireless_end =
                    std::max(x.last_wireless_end, e.at + e.duration);
            break;
        case FaultKind::Partition:
            count(x.partitions, e.at);
            if (e.at <= hi_cut)
                x.last_wireless_end =
                    std::max(x.last_wireless_end, e.at + e.duration);
            break;
        case FaultKind::ServerCrash:
            if (crash_fires[i])
                count(x.server_crashes, e.at);
            break;
        case FaultKind::DatastoreOutage:
            count(x.datastore_outages, e.at);
            if (e.at <= hi_cut)
                x.stall_window_s += sim::to_seconds(e.duration);
            break;
        case FaultKind::ControllerCrash:
            count(x.controller_crashes, e.at);
            break;
        case FaultKind::ControllerPartition:
            count(x.controller_partitions, e.at);
            if (e.at <= hi_cut)
                x.stall_window_s += sim::to_seconds(e.duration);
            break;
        }
    }

    // Per-device end state: walk each device's effective incidents
    // under the two extreme boundary readings. Down in the maximally-up
    // reading (crashes only if certain, rejoins if at all possible) and
    // in the maximally-down reading means down for sure; agreement the
    // other way round means up for sure; anything else is ambiguous.
    x.device_down.assign(run.devices, 0);
    auto down_under = [&](std::size_t device, sim::Time crash_cut,
                          sim::Time rejoin_cut) {
        bool down = false;
        for (std::size_t i = 0; i < plan.events.size(); ++i) {
            const FaultEvent& e = plan.events[i];
            if (e.kind != FaultKind::DeviceCrash || e.target != device ||
                !crash_fires[i])
                continue;
            if (e.at > crash_cut)
                continue;
            down = e.duration == 0 || e.at + e.duration > rejoin_cut;
        }
        return down;
    };
    for (std::size_t d = 0; d < run.devices; ++d) {
        const bool up_read = down_under(d, c - 1, hi_cut);
        const bool down_read = down_under(d, hi_cut, c - 1);
        x.device_down[d] = up_read == down_read ? (up_read ? 1 : 0) : -1;
    }
    return x;
}

void
check_count(std::vector<Violation>& out, const char* oracle,
            const char* counter, std::uint64_t measured,
            const CountRange& expected)
{
    if (expected.contains(measured))
        return;
    out.push_back({oracle, std::string(counter) + " = " + u64(measured) +
                              ", plan interpretation expects " +
                              expected.to_string()});
}

}  // namespace

std::string
violations_to_string(const std::vector<Violation>& violations)
{
    std::string s;
    for (const Violation& v : violations)
        s += "[" + v.oracle + "] " + v.detail + "\n";
    return s;
}

std::vector<Violation>
OracleSuite::audit(const RunAudit& run) const
{
    std::vector<Violation> out = check_frame_conservation(run);
    std::vector<Violation> ledger = check_ledger_sanity(run);
    out.insert(out.end(), ledger.begin(), ledger.end());
    std::vector<Violation> live = check_liveness(run);
    out.insert(out.end(), live.begin(), live.end());
    return out;
}

std::vector<Violation>
OracleSuite::check_frame_conservation(const RunAudit& run) const
{
    std::vector<Violation> out;
    const FrameLedger& f = run.frames;
    const std::uint64_t accounted =
        f.delivered + f.dropped + f.inflight_end;
    if (f.generated != accounted) {
        out.push_back(
            {"frame-conservation",
             "generated " + u64(f.generated) + " != delivered " +
                 u64(f.delivered) + " + dropped " + u64(f.dropped) +
                 " + in-flight " + u64(f.inflight_end) + " (= " +
                 u64(accounted) + ")"});
    }
    const std::uint64_t buffer_accounted =
        f.drained + f.drain_lost + f.drain_inflight_end + f.buffered_end;
    if (f.buffered != buffer_accounted) {
        out.push_back(
            {"frame-conservation",
             "buffered " + u64(f.buffered) + " != drained " +
                 u64(f.drained) + " + drain-lost " + u64(f.drain_lost) +
                 " + drain-in-flight " + u64(f.drain_inflight_end) +
                 " + still-buffered " + u64(f.buffered_end) + " (= " +
                 u64(buffer_accounted) + ")"});
    }
    std::uint64_t device_buffered = 0;
    for (const DeviceEndState& d : run.device_end)
        device_buffered += d.buffered;
    if (device_buffered != f.buffered_end) {
        out.push_back({"frame-conservation",
                       "per-device buffered frames sum to " +
                           u64(device_buffered) +
                           " but the ledger holds buffered_end = " +
                           u64(f.buffered_end)});
    }
    if (f.buffered != run.recovery.frames_buffered_degraded) {
        out.push_back({"frame-conservation",
                       "ledger buffered " + u64(f.buffered) +
                           " != recovery frames_buffered_degraded " +
                           u64(run.recovery.frames_buffered_degraded)});
    }
    if (f.drained != run.recovery.buffered_frames_drained) {
        out.push_back({"frame-conservation",
                       "ledger drained " + u64(f.drained) +
                           " != recovery buffered_frames_drained " +
                           u64(run.recovery.buffered_frames_drained)});
    }
    return out;
}

std::vector<Violation>
OracleSuite::check_ledger_sanity(const RunAudit& run) const
{
    std::vector<Violation> out;
    const RecoveryMetrics& r = run.recovery;
    const Expectation x = interpret_plan(run);
    const char* oracle = "ledger-sanity";

    // --- Injected-fault counters vs the plan interpretation ---
    check_count(out, oracle, "device_crashes", r.device_crashes,
                x.device_crashes);
    check_count(out, oracle, "device_rejoins", r.device_rejoins,
                x.device_rejoins);
    check_count(out, oracle, "partitions", r.partitions, x.partitions);
    check_count(out, oracle, "server_crashes", r.server_crashes,
                x.server_crashes);
    check_count(out, oracle, "link_burst_windows", r.link_burst_windows,
                x.link_bursts);
    check_count(out, oracle, "datastore_outages", r.datastore_outages,
                x.datastore_outages);

    // --- Controller ledger ---
    check_count(out, oracle, "controller_crashes", r.controller_crashes,
                x.controller_crashes);
    check_count(out, oracle, "controller_partitions",
                r.controller_partitions, x.controller_partitions);
    if (r.controller_failovers !=
        static_cast<std::uint64_t>(r.checkpoint_age_s.count())) {
        out.push_back({oracle, "controller_failovers = " +
                                   u64(r.controller_failovers) +
                                   " != completed takeovers " +
                                   u64(r.checkpoint_age_s.count()) +
                                   " (one checkpoint-age sample each)"});
    }

    // --- Recovery summaries ---
    auto non_negative = [&](const char* name, const sim::Summary& s) {
        for (double v : s.samples()) {
            if (v < -kEpsS) {
                out.push_back({oracle, std::string(name) +
                                           " holds a negative sample " +
                                           dbl(v)});
                return;
            }
        }
    };
    non_negative("mttd_s", r.mttd_s);
    non_negative("mttr_s", r.mttr_s);
    non_negative("controller_mttd_s", r.controller_mttd_s);
    non_negative("controller_mttr_s", r.controller_mttr_s);
    non_negative("checkpoint_age_s", r.checkpoint_age_s);

    // Each device incident is detected at most once; more detections
    // than injected crashes means an incident was double-booked.
    if (r.mttd_s.count() > r.device_crashes) {
        out.push_back({oracle, "device mttd_s carries " +
                                   u64(r.mttd_s.count()) +
                                   " samples for only " +
                                   u64(r.device_crashes) +
                                   " injected device crashes"});
    }
    // Repairs close device incidents and restored ServerCrash windows;
    // more repairs than incidents means double books.
    const std::uint64_t repair_cap = r.device_crashes + r.server_crashes;
    if (r.mttr_s.count() > repair_cap) {
        out.push_back({oracle, "device mttr_s carries " +
                                   u64(r.mttr_s.count()) +
                                   " samples for only " + u64(repair_cap) +
                                   " repairable incidents"});
    }

    if (run.ha_enabled) {
        if (r.controller_mttr_s.count() != r.checkpoint_age_s.count()) {
            out.push_back({oracle,
                           "controller takeovers disagree: " +
                               u64(r.controller_mttr_s.count()) +
                               " recovery samples vs " +
                               u64(r.checkpoint_age_s.count()) +
                               " checkpoint-age samples"});
        }
        if (r.controller_mttd_s.count() < r.controller_mttr_s.count()) {
            out.push_back({oracle,
                           "more controller recoveries (" +
                               u64(r.controller_mttr_s.count()) +
                               ") than detections (" +
                               u64(r.controller_mttd_s.count()) + ")"});
        }
        const std::vector<double>& mttd = r.controller_mttd_s.samples();
        const std::vector<double>& mttr = r.controller_mttr_s.samples();
        for (std::size_t i = 0; i < std::min(mttd.size(), mttr.size());
             ++i) {
            if (mttr[i] + kEpsS < mttd[i]) {
                out.push_back({oracle,
                               "takeover " + std::to_string(i) +
                                   ": MTTR " + dbl(mttr[i]) +
                                   "s below its own MTTD " + dbl(mttd[i]) +
                                   "s"});
            }
        }
        // A replayed checkpoint can be stale by at most one interval
        // plus every stall the plan could have caused (datastore
        // outages, controller partitions, the outage itself).
        const double age_bound = run.checkpoint_interval_s +
            x.stall_window_s +
            (r.controller_mttr_s.empty() ? 0.0 : r.controller_mttr_s.max()) +
            kCheckpointSlackS;
        for (double age : r.checkpoint_age_s.samples()) {
            if (age > age_bound) {
                out.push_back({oracle,
                               "checkpoint age " + dbl(age) +
                                   "s exceeds the staleness bound " +
                                   dbl(age_bound) + "s"});
            }
        }
        if (r.checkpoint_bytes == 0 && r.checkpoints_taken > 0) {
            out.push_back({oracle,
                           u64(r.checkpoints_taken) +
                               " checkpoints taken but zero bytes written"});
        }
        const double completion_s = sim::to_seconds(run.completion);
        if (r.controller_outage_s < 0.0 ||
            r.controller_outage_s > completion_s + kEpsS) {
            out.push_back({oracle,
                           "controller_outage_s " +
                               dbl(r.controller_outage_s) +
                               " outside [0, completion " +
                               dbl(completion_s) + "]"});
        }
    } else {
        if (r.controller_mttd_s.count() != 0 ||
            r.controller_mttr_s.count() != 0 ||
            r.checkpoint_age_s.count() != 0) {
            out.push_back({oracle,
                           "controller recovery samples recorded without "
                           "the HA stack wired"});
        }
    }
    return out;
}

std::vector<Violation>
OracleSuite::check_liveness(const RunAudit& run) const
{
    std::vector<Violation> out;
    const Expectation x = interpret_plan(run);
    const char* oracle = "liveness";

    if (run.completion <= 0) {
        out.push_back({oracle, "run never advanced (completion = " +
                                   std::to_string(run.completion) + ")"});
        return out;
    }
    if (run.completion > run.horizon + run.completion_margin) {
        out.push_back({oracle,
                       "run overran its horizon: completion " +
                           std::to_string(run.completion) + " > cap " +
                           std::to_string(run.horizon)});
    }
    if (run.device_end.size() != run.devices) {
        out.push_back({oracle,
                       "device end-state roster holds " +
                           u64(run.device_end.size()) + " entries for " +
                           u64(run.devices) + " devices"});
        return out;
    }

    // The mission must reach its horizon unless it finished or the
    // swarm died: stopping early with expected-alive devices and no
    // goal means the run loop stalled or gave up.
    bool any_expected_alive = false;
    for (std::size_t d = 0; d < run.devices; ++d) {
        if (x.device_down[d] == 0 && !run.device_end[d].battery_dead)
            any_expected_alive = true;
    }
    if (!run.completed && any_expected_alive &&
        run.expect_full_horizon &&
        run.completion + run.completion_margin < run.horizon) {
        out.push_back({oracle,
                       "run stopped at " + std::to_string(run.completion) +
                           " before the horizon " +
                           std::to_string(run.horizon) +
                           " with live devices and no goal"});
    }

    // Transient crashes rejoin; untouched devices end alive (battery
    // death excuses); permanent crashes stay down.
    for (std::size_t d = 0; d < run.devices; ++d) {
        const DeviceEndState& e = run.device_end[d];
        if (x.device_down[d] == 1 && e.alive) {
            out.push_back({oracle, "device " + u64(d) +
                                       " ends alive but the plan holds it "
                                       "crashed"});
        }
        if (x.device_down[d] == 0 && !e.alive && !e.battery_dead) {
            out.push_back({oracle,
                           "device " + u64(d) +
                               " ends dead with a healthy battery and no "
                               "crash holding it down"});
        }
    }

    // Breakers are wireless-only: long after the last LinkBurst /
    // Partition window closed (and with no baseline loss), every
    // circuit must have cooled shut again.
    if (run.configured_loss <= 0.0) {
        const double quiet_s =
            sim::to_seconds(run.completion - x.last_wireless_end);
        if (quiet_s > run.breaker_cooldown_s + kBreakerSlackS) {
            for (std::size_t d = 0; d < run.devices; ++d) {
                if (run.device_end[d].breaker_open) {
                    out.push_back({oracle,
                                   "device " + u64(d) +
                                       "'s circuit breaker is still open " +
                                       dbl(quiet_s) +
                                       "s after the last wireless "
                                       "disturbance"});
                }
            }
        }
    }

    // Degraded-mode buffering exists only while a swarm controller can
    // actually be lost.
    const bool controller_loss_possible = x.controller_crashes.hi > 0 ||
        x.controller_partitions.hi > 0;
    if (!controller_loss_possible &&
        (run.frames.buffered != 0 || run.frames.buffered_end != 0 ||
         run.recovery.outage_tasks_completed != 0)) {
        out.push_back({oracle,
                       "degraded-mode buffering ran (" +
                           u64(run.frames.buffered) + " buffered, " +
                           u64(run.recovery.outage_tasks_completed) +
                           " outage completions) with no controller fault "
                           "in the plan"});
    }

    // A healthy fleet produces frames before the first fault lands.
    if (run.devices > 0 && run.frames.generated == 0 &&
        run.completion >= 2 * sim::kSecond &&
        x.first_event_at >= 2 * sim::kSecond) {
        out.push_back({oracle, "no frames generated by a fleet of " +
                                   u64(run.devices) + " devices"});
    }
    return out;
}

std::vector<Violation>
OracleSuite::check_determinism(const RunAudit& a, const RunAudit& b) const
{
    std::vector<Violation> out;
    const char* oracle = "determinism";
    auto differ = [&](const char* field, const std::string& va,
                      const std::string& vb) {
        out.push_back({oracle, std::string(field) + ": " + va + " != " + vb});
    };
    if (a.seed != b.seed)
        differ("seed", u64(a.seed), u64(b.seed));
    if (a.checksum != b.checksum)
        differ("checksum", u64(a.checksum), u64(b.checksum));
    if (a.completion != b.completion)
        differ("completion", std::to_string(a.completion),
               std::to_string(b.completion));
    if (a.completed != b.completed)
        differ("completed", a.completed ? "true" : "false",
               b.completed ? "true" : "false");
    if (!(a.frames == b.frames)) {
        differ("frame ledger",
               "generated/delivered/dropped = " + u64(a.frames.generated) +
                   "/" + u64(a.frames.delivered) + "/" +
                   u64(a.frames.dropped),
               u64(b.frames.generated) + "/" + u64(b.frames.delivered) +
                   "/" + u64(b.frames.dropped));
    }
    if (!(a.recovery == b.recovery)) {
        out.push_back({oracle, "recovery metrics differ:\n" +
                                   metrics_diff_string(a.recovery,
                                                       b.recovery)});
    }
    if (!(a.device_end == b.device_end))
        out.push_back({oracle, "per-device end states differ"});
    return out;
}

std::vector<Violation>
OracleSuite::check_shard_invariance(const std::vector<RunAudit>& runs) const
{
    std::vector<Violation> out;
    if (runs.size() < 2)
        return out;
    for (std::size_t i = 1; i < runs.size(); ++i) {
        std::vector<Violation> diff = check_determinism(runs[0], runs[i]);
        for (Violation& v : diff) {
            v.oracle = "shard-invariance";
            v.detail = "shards " + std::to_string(runs[0].shards) + " vs " +
                std::to_string(runs[i].shards) + ": " + v.detail;
            out.push_back(std::move(v));
        }
    }
    return out;
}

}  // namespace hivemind::fault
