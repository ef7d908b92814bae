#include "fault/fuzz.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "sim/rng.hpp"

namespace hivemind::fault {

namespace {

/** Decorrelate the user seed from other consumers of the same value. */
constexpr std::uint64_t kFuzzSalt = 0xc6a4a7935bd1e995ull;
/** Most fault events a generated plan holds. */
constexpr std::size_t kMaxFuzzEvents = 10;

sim::Time
random_time(sim::Rng& rng, sim::Time lo, sim::Time hi)
{
    // Sub-second jitter on purpose: whole-second injection times
    // collide with the 1 Hz control ticks and hide ordering bugs.
    return rng.uniform_int(lo, hi - 1);
}

}  // namespace

PlanBounds
PlanFuzzer::bounds() const
{
    PlanBounds b;
    b.devices = cfg_.devices;
    b.servers = cfg_.servers;
    b.horizon = cfg_.horizon;
    return b;
}

FaultPlan
PlanFuzzer::generate(std::uint64_t seed) const
{
    sim::Rng rng(seed ^ kFuzzSalt);
    FaultPlan plan;
    // Leave the first two seconds quiet (the fleet boots and emits its
    // first frames) and keep injections clear of the horizon.
    const sim::Time lo = 2 * sim::kSecond;
    const sim::Time hi = std::max(cfg_.horizon - sim::kSecond, lo + 1);

    std::vector<FaultKind> pool;
    auto weight = [&](FaultKind k, int w) {
        for (int i = 0; i < w; ++i)
            pool.push_back(k);
    };
    weight(FaultKind::DeviceCrash, 4);
    weight(FaultKind::LinkBurst, 2);
    weight(FaultKind::Partition, 2);
    if (cfg_.servers > 0)
        weight(FaultKind::ServerCrash, 2);
    weight(FaultKind::DatastoreOutage, 1);
    if (cfg_.allow_controller) {
        weight(FaultKind::ControllerCrash, 2);
        weight(FaultKind::ControllerPartition, 1);
        // A fourth slot of its own, not a weight of 3: the pool keeps
        // its size and order, so a seed keeps drawing the plan it drew
        // when this slot held a since-deleted kind.
        weight(FaultKind::ControllerCrash, 1);
    }

    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(kMinFuzzEvents),
        static_cast<std::int64_t>(kMaxFuzzEvents)));
    bool permanent_used = false;
    for (std::size_t i = 0; i < n; ++i) {
        const FaultKind kind = pool[rng.pick(pool.size())];
        const sim::Time at = random_time(rng, lo, hi);
        switch (kind) {
        case FaultKind::DeviceCrash: {
            const std::size_t device = rng.pick(cfg_.devices);
            sim::Time rejoin =
                rng.uniform_int(2 * sim::kSecond, 12 * sim::kSecond);
            if (cfg_.allow_permanent && !permanent_used && rng.chance(0.15)) {
                rejoin = 0;
                permanent_used = true;
            }
            plan.device_crash(at, device, rejoin);
            break;
        }
        case FaultKind::LinkBurst:
            plan.link_burst(at,
                            rng.uniform_int(2 * sim::kSecond,
                                            12 * sim::kSecond),
                            rng.uniform(0.5, 0.98),
                            rng.uniform_int(sim::kSecond, 3 * sim::kSecond),
                            rng.uniform_int(200 * sim::kMillisecond,
                                            sim::kSecond));
            break;
        case FaultKind::Partition:
            plan.partition(at,
                           rng.uniform_int(sim::kSecond, 8 * sim::kSecond),
                           rng.pick(cfg_.devices));
            break;
        case FaultKind::ServerCrash:
            plan.server_crash(at, rng.pick(cfg_.servers),
                              rng.uniform_int(2 * sim::kSecond,
                                              8 * sim::kSecond));
            break;
        case FaultKind::DatastoreOutage:
            plan.datastore_outage(at,
                                  rng.uniform_int(sim::kSecond,
                                                  6 * sim::kSecond));
            break;
        case FaultKind::ControllerCrash:
            plan.controller_crash(at);
            break;
        case FaultKind::ControllerPartition:
            plan.controller_partition(at,
                                      rng.uniform_int(sim::kSecond,
                                                      5 * sim::kSecond));
            break;
        }
    }

    // Adversarial shapes hand-written plans rarely contain. Each is a
    // coin flip so soaks cover both the plain and the nasty regimes.
    auto pattern_at = [&](sim::Time headroom) {
        return random_time(rng, lo, std::max(hi - headroom, lo + 2));
    };
    // The shapes need ~15 s of runway before the horizon; skip them on
    // short missions rather than emit out-of-bounds events.
    const bool patterns_fit = cfg_.horizon >= 30 * sim::kSecond;
    if (patterns_fit && rng.chance(0.35)) {
        // Two Gilbert-Elliott windows overlapping mid-flight.
        const sim::Time at = pattern_at(10 * sim::kSecond);
        const sim::Time dur =
            rng.uniform_int(4 * sim::kSecond, 10 * sim::kSecond);
        plan.link_burst(at, dur, 0.9);
        plan.link_burst(at + dur / 2,
                        rng.uniform_int(3 * sim::kSecond, 8 * sim::kSecond),
                        rng.uniform(0.6, 0.95));
    }
    if (patterns_fit && cfg_.allow_controller && rng.chance(0.35)) {
        // Back-to-back controller crashes: the second lands while the
        // standby pool is one election down.
        const sim::Time at = pattern_at(12 * sim::kSecond);
        plan.controller_crash(at);
        plan.controller_crash(at +
                              rng.uniform_int(3 * sim::kSecond,
                                              10 * sim::kSecond));
    }
    if (patterns_fit && rng.chance(0.35)) {
        // A crash landing inside another crash's down window: the
        // second incident must be skipped, and its rejoin must not
        // revive the first one early.
        const std::size_t device = rng.pick(cfg_.devices);
        const sim::Time at = pattern_at(14 * sim::kSecond);
        const sim::Time down =
            rng.uniform_int(6 * sim::kSecond, 12 * sim::kSecond);
        plan.device_crash(at, device, down);
        plan.device_crash(at + down / 2, device,
                          rng.uniform_int(sim::kSecond, 4 * sim::kSecond));
    }

    std::stable_sort(plan.events.begin(), plan.events.end(),
                     [](const FaultEvent& a, const FaultEvent& b) {
                         return a.at < b.at;
                     });
    // Valid-by-construction is the contract; catch drift loudly.
    std::vector<std::string> problems = plan.validate(bounds());
    if (!problems.empty())
        throw std::logic_error("PlanFuzzer generated an invalid plan: " +
                               problems.front());
    return plan;
}

// ---------------------------------------------------------------------------
// ddmin shrinking

namespace {

FaultPlan
without_range(const FaultPlan& plan, std::size_t begin, std::size_t end)
{
    FaultPlan out;
    for (std::size_t i = 0; i < plan.events.size(); ++i) {
        if (i < begin || i >= end)
            out.events.push_back(plan.events[i]);
    }
    return out;
}

/** Candidate simplifications of one surviving event, best first. */
std::vector<FaultEvent>
simplified(const FaultEvent& e)
{
    std::vector<FaultEvent> out;
    const sim::Time at_floor = (e.at / sim::kSecond) * sim::kSecond;
    if (at_floor != e.at && at_floor > 0) {
        FaultEvent c = e;
        c.at = at_floor;
        out.push_back(c);
    }
    if (e.duration > 2 * sim::kSecond) {
        FaultEvent c = e;
        c.duration = e.duration / 2;
        out.push_back(c);
    }
    return out;
}

}  // namespace

ShrinkResult
shrink_plan(const FaultPlan& plan, const PlanPredicate& still_failing,
            std::size_t max_evaluations)
{
    ShrinkResult result;
    result.plan = plan;
    auto evaluate = [&](const FaultPlan& candidate) {
        ++result.evaluations;
        return still_failing(candidate);
    };
    if (result.evaluations >= max_evaluations || !evaluate(plan))
        return result;  // Not a failure to begin with: nothing to shrink.

    // Phase 1: classic ddmin on the event list. Try dropping each of
    // `chunks` contiguous chunks; on success restart at coarse
    // granularity, otherwise refine until single events survive.
    std::size_t chunks = 2;
    while (result.plan.events.size() > 1 &&
           result.evaluations < max_evaluations) {
        const std::size_t size = result.plan.events.size();
        chunks = std::min(chunks, size);
        const std::size_t chunk = (size + chunks - 1) / chunks;
        bool reduced = false;
        for (std::size_t begin = 0;
             begin < size && result.evaluations < max_evaluations;
             begin += chunk) {
            FaultPlan candidate = without_range(
                result.plan, begin, std::min(begin + chunk, size));
            if (candidate.events.empty())
                continue;
            if (evaluate(candidate)) {
                result.plan = std::move(candidate);
                chunks = std::max<std::size_t>(chunks - 1, 2);
                reduced = true;
                break;
            }
        }
        if (reduced)
            continue;
        if (chunks >= size)
            break;  // Every single-event drop passes: 1-minimal.
        chunks = std::min(chunks * 2, size);
    }
    // An empty-budget exit above leaves minimality unknown; a clean
    // exit means no single event can go.
    result.minimal = result.evaluations < max_evaluations;

    // Phase 2: simplify the survivors in place while the failure
    // persists — whole-second times and shorter windows read better in
    // a regression test.
    for (std::size_t i = 0;
         i < result.plan.events.size() && result.evaluations < max_evaluations;
         ++i) {
        bool changed = true;
        while (changed && result.evaluations < max_evaluations) {
            changed = false;
            for (const FaultEvent& candidate_event :
                 simplified(result.plan.events[i])) {
                FaultPlan candidate = result.plan;
                candidate.events[i] = candidate_event;
                if (!candidate.validate().empty())
                    continue;
                if (evaluate(candidate)) {
                    result.plan = std::move(candidate);
                    changed = true;
                    break;
                }
                if (result.evaluations >= max_evaluations)
                    break;
            }
        }
    }
    return result;
}

// ---------------------------------------------------------------------------
// JSON reproducers (on the shared util::Json writer / cursor — the
// same escaping and number formatting as bench JSON and fleet JSONL).

namespace {

constexpr int kPlanVersion = 3;

FaultKind
kind_from_name(util::JsonCursor& in, const std::string& name)
{
    for (FaultKind k :
         {FaultKind::DeviceCrash, FaultKind::LinkBurst,
          FaultKind::Partition, FaultKind::ServerCrash,
          FaultKind::DatastoreOutage, FaultKind::ControllerCrash,
          FaultKind::ControllerPartition}) {
        if (name == kind_name(k))
            return k;
    }
    in.fail("unknown fault kind \"" + name + "\"");
}

FaultEvent
parse_event(util::JsonCursor& in)
{
    FaultEvent e;
    util::parse_object(in, [&](util::JsonCursor& c, const std::string& key) {
        if (key == "kind")
            e.kind = kind_from_name(c, c.parse_string());
        else if (key == "at")
            e.at = static_cast<sim::Time>(c.parse_number());
        else if (key == "duration")
            e.duration = static_cast<sim::Time>(c.parse_number());
        else if (key == "target")
            e.target = static_cast<std::size_t>(c.parse_number());
        else if (key == "loss_good")
            e.loss_good = c.parse_number();
        else if (key == "loss_bad")
            e.loss_bad = c.parse_number();
        else if (key == "mean_good")
            e.mean_good = static_cast<sim::Time>(c.parse_number());
        else if (key == "mean_bad")
            e.mean_bad = static_cast<sim::Time>(c.parse_number());
        else
            c.fail("unknown event field \"" + key + "\"");
    });
    return e;
}

}  // namespace

util::Json
plan_json(const FaultPlan& plan)
{
    util::Json events = util::Json::array();
    for (const FaultEvent& e : plan.events) {
        events.push(util::Json::object()
                        .kv("kind", kind_name(e.kind))
                        .kv("at", static_cast<std::int64_t>(e.at))
                        .kv("duration", static_cast<std::int64_t>(e.duration))
                        .kv("target", static_cast<std::uint64_t>(e.target))
                        .kv("loss_good", e.loss_good)
                        .kv("loss_bad", e.loss_bad)
                        .kv("mean_good",
                            static_cast<std::int64_t>(e.mean_good))
                        .kv("mean_bad",
                            static_cast<std::int64_t>(e.mean_bad)));
    }
    return util::Json::object()
        .kv("version", kPlanVersion)
        .kv("events", events);
}

std::string
plan_to_json(const FaultPlan& plan)
{
    return plan_json(plan).str() + "\n";
}

FaultPlan
plan_from_cursor(util::JsonCursor& in)
{
    FaultPlan plan;
    bool saw_version = false;
    bool saw_events = false;
    util::parse_object(in, [&](util::JsonCursor& c, const std::string& key) {
        if (key == "version") {
            saw_version = true;
            if (c.parse_number() != kPlanVersion)
                c.fail("unsupported reproducer version");
        } else if (key == "events") {
            saw_events = true;
            util::parse_array(c, [&](util::JsonCursor& e) {
                plan.events.push_back(parse_event(e));
            });
        } else {
            c.fail("unknown top-level field \"" + key + "\"");
        }
    });
    if (!saw_version || !saw_events)
        in.fail("reproducer is missing \"version\" or \"events\"");
    return plan;
}

FaultPlan
plan_from_json(const std::string& json)
{
    util::JsonCursor in(json, "plan JSON");
    FaultPlan plan = plan_from_cursor(in);
    if (!in.done())
        in.fail("trailing content after the plan object");
    return plan;
}

// ---------------------------------------------------------------------------
// Builder snippets

namespace {

std::string
time_literal(sim::Time t)
{
    if (t == 0)
        return "0";
    if (t % sim::kSecond == 0)
        return std::to_string(t / sim::kSecond) + " * sim::kSecond";
    if (t % sim::kMillisecond == 0)
        return std::to_string(t / sim::kMillisecond) + " * sim::kMillisecond";
    return std::to_string(t);
}

}  // namespace

std::string
plan_to_builder_snippet(const FaultPlan& plan)
{
    std::string out = "fault::FaultPlan plan;\n";
    for (const FaultEvent& e : plan.events) {
        switch (e.kind) {
        case FaultKind::DeviceCrash:
            out += "plan.device_crash(" + time_literal(e.at) + ", " +
                std::to_string(e.target) + ", " + time_literal(e.duration) +
                ");\n";
            break;
        case FaultKind::LinkBurst:
            out += "plan.link_burst(" + time_literal(e.at) + ", " +
                time_literal(e.duration) + ", " + util::format_double(e.loss_bad) +
                ", " + time_literal(e.mean_good) + ", " +
                time_literal(e.mean_bad) + ");\n";
            break;
        case FaultKind::Partition:
            out += "plan.partition(" + time_literal(e.at) + ", " +
                time_literal(e.duration) + ", " + std::to_string(e.target) +
                ");\n";
            break;
        case FaultKind::ServerCrash:
            out += "plan.server_crash(" + time_literal(e.at) + ", " +
                std::to_string(e.target) + ", " + time_literal(e.duration) +
                ");\n";
            break;
        case FaultKind::DatastoreOutage:
            out += "plan.datastore_outage(" + time_literal(e.at) + ", " +
                time_literal(e.duration) + ");\n";
            break;
        case FaultKind::ControllerCrash:
            out += "plan.controller_crash(" + time_literal(e.at) + ");\n";
            break;
        case FaultKind::ControllerPartition:
            out += "plan.controller_partition(" + time_literal(e.at) + ", " +
                time_literal(e.duration) + ");\n";
            break;
        }
    }
    return out;
}

}  // namespace hivemind::fault
