/**
 * @file
 * Chaos-fuzzing stack tests: PlanFuzzer, FaultPlan::validate wiring,
 * the invariant oracles (one fire drill per invariant family), the
 * ddmin shrinker and the JSON reproducer round-trip.
 *
 * The oracle fire drills forge RunAudits from a known-clean template
 * and break exactly one property at a time: each drill must trip its
 * own oracle family and no other, which is what makes a soak failure
 * attributable. The end-to-end smoke runs real fuzzed plans at shard
 * counts {1, 2, 4} via platform::run_fuzz_case.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fuzz.hpp"
#include "fault/oracle.hpp"
#include "fault/plan.hpp"
#include "platform/fuzz_harness.hpp"
#include "sim/time.hpp"

using namespace hivemind;
using fault::FaultKind;
using fault::FaultPlan;
using fault::RunAudit;
using fault::Violation;

namespace {

/** Distinct oracle families named in Violation::oracle. */
std::set<std::string> families(const std::vector<Violation>& vs)
{
    std::set<std::string> out;
    for (const Violation& v : vs)
        out.insert(v.oracle);
    return out;
}

/** The shard counts every end-to-end fuzz case runs at. */
constexpr int kShardCounts[] = {1, 2, 4};

/**
 * Run @p plan at every shard count: each run must pass the single-run
 * oracles, and all of them must agree with each other.
 */
std::vector<Violation>
audit_at_every_shard_count(const FaultPlan& plan,
                           platform::FuzzCaseOptions opt)
{
    const fault::OracleSuite suite;
    std::vector<Violation> out;
    std::vector<RunAudit> runs;
    for (int n : kShardCounts) {
        opt.shards = n;
        runs.push_back(platform::run_fuzz_case(plan, opt));
        std::vector<Violation> vs = suite.audit(runs.back());
        out.insert(out.end(), vs.begin(), vs.end());
    }
    std::vector<Violation> vs = suite.check_shard_invariance(runs);
    out.insert(out.end(), vs.begin(), vs.end());
    return out;
}

}  // namespace

// ---------------------------------------------------------------------
// PlanFuzzer: determinism + validity by construction
// ---------------------------------------------------------------------

TEST(PlanFuzzer, SameSeedSamePlan)
{
    fault::PlanFuzzer fuzzer;
    for (std::uint64_t seed : {0ull, 1ull, 42ull, 0xdeadbeefull}) {
        FaultPlan a = fuzzer.generate(seed);
        FaultPlan b = fuzzer.generate(seed);
        EXPECT_EQ(a, b) << "seed " << seed;
        EXPECT_FALSE(a.empty());
    }
    EXPECT_NE(fuzzer.generate(1), fuzzer.generate(2));
}

TEST(PlanFuzzer, PlansValidSortedAndBounded)
{
    fault::FuzzConfig cfg;
    cfg.devices = 4;
    cfg.servers = 2;
    cfg.horizon = 45 * sim::kSecond;
    fault::PlanFuzzer fuzzer(cfg);
    for (std::uint64_t seed = 0; seed < 500; ++seed) {
        FaultPlan plan = fuzzer.generate(seed);
        EXPECT_TRUE(plan.validate(fuzzer.bounds()).empty())
            << "seed " << seed;
        EXPECT_GE(plan.events.size(), fault::kMinFuzzEvents);
        std::size_t permanent = 0;
        for (std::size_t i = 0; i < plan.events.size(); ++i) {
            const fault::FaultEvent& e = plan.events[i];
            if (i > 0) {
                EXPECT_LE(plan.events[i - 1].at, e.at) << "seed " << seed;
            }
            if (e.kind == FaultKind::DeviceCrash && e.duration == 0)
                ++permanent;
        }
        EXPECT_LE(permanent, 1u) << "seed " << seed;
    }
}

TEST(PlanFuzzer, ConfigGatesControllerAndPermanent)
{
    fault::FuzzConfig cfg;
    cfg.allow_controller = false;
    cfg.allow_permanent = false;
    fault::PlanFuzzer fuzzer(cfg);
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        for (const fault::FaultEvent& e : fuzzer.generate(seed).events) {
            EXPECT_NE(e.kind, FaultKind::ControllerCrash);
            EXPECT_NE(e.kind, FaultKind::ControllerPartition);
            if (e.kind == FaultKind::DeviceCrash) {
                EXPECT_GT(e.duration, 0) << "seed " << seed;
            }
        }
    }
}

// ---------------------------------------------------------------------
// FaultPlan::validate — one test per rejection rule (satellite)
// ---------------------------------------------------------------------

TEST(PlanValidate, RejectsNegativeInjectionTime)
{
    FaultPlan plan;
    plan.device_crash(-1, 0, sim::kSecond);
    std::vector<std::string> problems = plan.validate();
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("negative injection time"), std::string::npos);
}

TEST(PlanValidate, RejectsInjectionPastHorizon)
{
    fault::PlanBounds bounds;
    bounds.horizon = 10 * sim::kSecond;
    FaultPlan plan;
    plan.device_crash(10 * sim::kSecond, 0, sim::kSecond);
    ASSERT_EQ(plan.validate(bounds).size(), 1u);
    EXPECT_NE(plan.validate(bounds)[0].find("past the horizon"),
              std::string::npos);
    // Unknown horizon (0) skips the check.
    EXPECT_TRUE(plan.validate().empty());
}

TEST(PlanValidate, RejectsNegativeDuration)
{
    FaultPlan plan;
    plan.device_crash(sim::kSecond, 0, -5);
    ASSERT_EQ(plan.validate().size(), 1u);
    EXPECT_NE(plan.validate()[0].find("negative duration"),
              std::string::npos);
}

TEST(PlanValidate, RejectsDeviceTargetOutOfRange)
{
    fault::PlanBounds bounds;
    bounds.devices = 4;
    FaultPlan crash;
    crash.device_crash(sim::kSecond, 4, sim::kSecond);
    EXPECT_EQ(crash.validate(bounds).size(), 1u);
    FaultPlan part;
    part.partition(sim::kSecond, sim::kSecond, 7);
    EXPECT_EQ(part.validate(bounds).size(), 1u);
    // In-range targets and unknown bounds both pass.
    EXPECT_TRUE(crash.validate().empty());
    FaultPlan ok;
    ok.device_crash(sim::kSecond, 3, sim::kSecond);
    EXPECT_TRUE(ok.validate(bounds).empty());
}

TEST(PlanValidate, RejectsServerTargetOutOfRange)
{
    fault::PlanBounds bounds;
    bounds.servers = 2;
    FaultPlan plan;
    plan.server_crash(sim::kSecond, 2, sim::kSecond);
    ASSERT_EQ(plan.validate(bounds).size(), 1u);
    EXPECT_NE(plan.validate(bounds)[0].find("server target"),
              std::string::npos);
}

TEST(PlanValidate, RejectsZeroWidthWindows)
{
    for (auto build : {+[](FaultPlan& p) { p.link_burst(sim::kSecond, 0); },
                       +[](FaultPlan& p) { p.partition(sim::kSecond, 0, 0); },
                       +[](FaultPlan& p) { p.datastore_outage(sim::kSecond, 0); },
                       +[](FaultPlan& p) {
                           p.controller_partition(sim::kSecond, 0);
                       }}) {
        FaultPlan plan;
        build(plan);
        ASSERT_EQ(plan.validate().size(), 1u);
        EXPECT_NE(plan.validate()[0].find("zero-width window"),
                  std::string::npos);
    }
    // duration == 0 stays the documented "permanent" encoding elsewhere.
    FaultPlan permanent;
    permanent.device_crash(sim::kSecond, 0).server_crash(sim::kSecond, 0, 0);
    EXPECT_TRUE(permanent.validate().empty());
}

TEST(PlanValidate, RejectsLossOutsideUnitInterval)
{
    FaultPlan plan;
    plan.link_burst(sim::kSecond, sim::kSecond, 1.5);
    ASSERT_EQ(plan.validate().size(), 1u);
    EXPECT_NE(plan.validate()[0].find("loss probability"),
              std::string::npos);
    FaultPlan neg;
    neg.link_burst(sim::kSecond, sim::kSecond, 0.9);
    neg.events.back().loss_good = -0.1;
    EXPECT_EQ(neg.validate().size(), 1u);
}

TEST(PlanValidate, RejectsNonPositiveDwellTimes)
{
    FaultPlan plan;
    plan.link_burst(sim::kSecond, sim::kSecond, 0.9, 0, sim::kSecond);
    ASSERT_EQ(plan.validate().size(), 1u);
    EXPECT_NE(plan.validate()[0].find("dwell"), std::string::npos);
}

TEST(PlanValidate, ReportsEveryProblemNotJustTheFirst)
{
    FaultPlan plan;
    plan.device_crash(-1, 0, -1);  // Two problems on one event.
    plan.link_burst(sim::kSecond, 0, 2.0);  // Two more on another.
    EXPECT_EQ(plan.validate().size(), 4u);
    EXPECT_THROW(plan.validate_or_throw(), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Oracle fire drills: break one invariant, trip exactly that oracle
// ---------------------------------------------------------------------

namespace {

/** A hand-built audit the full single-run suite passes. */
RunAudit clean_audit()
{
    RunAudit run;
    run.shards = 1;
    run.seed = 7;
    run.devices = 2;
    run.servers = 1;
    run.horizon = 30 * sim::kSecond;
    run.completion = 30 * sim::kSecond;
    run.completion_margin = sim::kSecond;
    run.completed = false;
    run.expect_full_horizon = true;
    run.breaker_cooldown_s = 10.0;
    run.checksum = 0x1234;
    run.plan.device_crash(5 * sim::kSecond, 0, 4 * sim::kSecond);
    run.frames.generated = 100;
    run.frames.delivered = 90;
    run.frames.dropped = 6;
    run.frames.inflight_end = 4;
    run.recovery.device_crashes = 1;
    run.recovery.device_rejoins = 1;
    run.recovery.mttr_s.add(4.0);
    run.device_end.assign(2, {});
    run.device_end[0].alive = true;
    run.device_end[1].alive = true;
    return run;
}

}  // namespace

TEST(OracleFireDrill, CleanAuditPasses)
{
    const fault::OracleSuite suite;
    std::vector<Violation> vs = suite.audit(clean_audit());
    EXPECT_TRUE(vs.empty()) << fault::violations_to_string(vs);
}

TEST(OracleFireDrill, FrameConservationCatchesLeak)
{
    const fault::OracleSuite suite;
    RunAudit run = clean_audit();
    run.frames.delivered -= 1;  // One frame vanished.
    std::vector<Violation> vs = suite.audit(run);
    ASSERT_FALSE(vs.empty());
    EXPECT_EQ(families(vs),
              std::set<std::string>{"frame-conservation"});
}

TEST(OracleFireDrill, FrameConservationCatchesBufferBookImbalance)
{
    const fault::OracleSuite suite;
    RunAudit run = clean_audit();
    run.plan.controller_crash(10 * sim::kSecond);
    run.ha_enabled = true;
    run.ha_standbys = 1;
    run.checkpoint_interval_s = 5.0;
    run.recovery.controller_crashes = 1;
    run.recovery.controller_failovers = 1;
    run.recovery.controller_mttd_s.add(1.5);
    run.recovery.controller_mttr_s.add(2.0);
    run.recovery.checkpoint_age_s.add(3.0);
    run.recovery.checkpoints_taken = 4;
    run.recovery.checkpoint_bytes = 4096;
    run.recovery.controller_outage_s = 2.0;
    run.recovery.frames_buffered_degraded = 10;
    run.recovery.buffered_frames_drained = 5;  // 5 unaccounted for.
    std::vector<Violation> vs = suite.audit(run);
    ASSERT_FALSE(vs.empty());
    EXPECT_EQ(families(vs),
              std::set<std::string>{"frame-conservation"});
}

TEST(OracleFireDrill, LedgerSanityCatchesWrongCrashCount)
{
    const fault::OracleSuite suite;
    RunAudit run = clean_audit();
    run.recovery.device_crashes = 3;  // Plan injects exactly 1.
    std::vector<Violation> vs = suite.audit(run);
    ASSERT_FALSE(vs.empty());
    EXPECT_EQ(families(vs), std::set<std::string>{"ledger-sanity"});
}

TEST(OracleFireDrill, LedgerSanityCatchesOverlappingServerCrashBookedTwice)
{
    const fault::OracleSuite suite;
    RunAudit run = clean_audit();
    // The crash at 12 s lands while server 0 is still down from the
    // 10 s crash, so the plan holds one server incident, not two.
    run.plan.server_crash(10 * sim::kSecond, 0, 8 * sim::kSecond);
    run.plan.server_crash(12 * sim::kSecond, 0, 2 * sim::kSecond);
    run.recovery.server_crashes = 1;
    run.recovery.mttr_s.add(8.0);
    std::vector<Violation> vs = suite.audit(run);
    EXPECT_TRUE(vs.empty()) << fault::violations_to_string(vs);
    run.recovery.server_crashes = 2;  // The overlapping crash booked too.
    run.recovery.mttr_s.add(2.0);
    vs = suite.audit(run);
    ASSERT_FALSE(vs.empty());
    EXPECT_EQ(families(vs), std::set<std::string>{"ledger-sanity"});
}

TEST(OracleFireDrill, LedgerSanityCatchesDoubleDeviceDetection)
{
    const fault::OracleSuite suite;
    RunAudit run = clean_audit();
    run.recovery.mttd_s.add(3.0);  // One detection for the one crash.
    EXPECT_TRUE(suite.audit(run).empty());
    run.recovery.mttd_s.add(5.0);  // The same incident detected again.
    std::vector<Violation> vs = suite.audit(run);
    ASSERT_FALSE(vs.empty());
    EXPECT_EQ(families(vs), std::set<std::string>{"ledger-sanity"});
}

TEST(OracleFireDrill, LedgerSanityCatchesPhantomControllerSamples)
{
    const fault::OracleSuite suite;
    RunAudit run = clean_audit();
    // Controller MTTD samples on a run with no HA stack wired.
    run.recovery.controller_mttd_s.add(1.0);
    std::vector<Violation> vs = suite.audit(run);
    ASSERT_FALSE(vs.empty());
    EXPECT_EQ(families(vs), std::set<std::string>{"ledger-sanity"});
}

TEST(OracleFireDrill, LivenessCatchesEarlyStopWithLiveDevices)
{
    const fault::OracleSuite suite;
    RunAudit run = clean_audit();
    run.completion = 20 * sim::kSecond;  // Stopped 10 s early.
    std::vector<Violation> vs = suite.audit(run);
    ASSERT_FALSE(vs.empty());
    EXPECT_EQ(families(vs), std::set<std::string>{"liveness"});
}

TEST(OracleFireDrill, LivenessCatchesDeviceThatNeverRejoined)
{
    const fault::OracleSuite suite;
    RunAudit run = clean_audit();
    run.device_end[0].alive = false;  // Rejoin was due at 9 s.
    std::vector<Violation> vs = suite.audit(run);
    ASSERT_FALSE(vs.empty());
    EXPECT_EQ(families(vs), std::set<std::string>{"liveness"});
}

TEST(OracleFireDrill, LivenessCatchesStuckCircuitBreaker)
{
    const fault::OracleSuite suite;
    RunAudit run = clean_audit();
    // No wireless disturbance for 21 s > cooldown 10 + slack 15... not
    // yet; stretch the horizon so the quiet window clears the slack.
    run.horizon = 60 * sim::kSecond;
    run.completion = 60 * sim::kSecond;
    run.device_end[1].breaker_open = true;
    std::vector<Violation> vs = suite.audit(run);
    ASSERT_FALSE(vs.empty());
    EXPECT_EQ(families(vs), std::set<std::string>{"liveness"});
}

TEST(OracleFireDrill, DeterminismCatchesChecksumDrift)
{
    const fault::OracleSuite suite;
    RunAudit a = clean_audit();
    RunAudit b = clean_audit();
    EXPECT_TRUE(suite.check_determinism(a, b).empty());
    b.checksum ^= 1;
    std::vector<Violation> vs = suite.check_determinism(a, b);
    ASSERT_FALSE(vs.empty());
    EXPECT_EQ(families(vs), std::set<std::string>{"determinism"});
}

TEST(OracleFireDrill, DeterminismCatchesRecoveryLedgerDrift)
{
    const fault::OracleSuite suite;
    RunAudit a = clean_audit();
    RunAudit b = clean_audit();
    b.recovery.offload_retries = 99;
    std::vector<Violation> vs = suite.check_determinism(a, b);
    ASSERT_FALSE(vs.empty());
    EXPECT_EQ(families(vs), std::set<std::string>{"determinism"});
    // The diff names the drifted field.
    EXPECT_NE(vs[0].detail.find("offload_retries"), std::string::npos);
}

TEST(OracleFireDrill, ShardInvarianceCatchesDivergentShardCount)
{
    const fault::OracleSuite suite;
    std::vector<RunAudit> runs(3, clean_audit());
    runs[1].shards = 2;
    runs[2].shards = 4;
    EXPECT_TRUE(suite.check_shard_invariance(runs).empty());
    runs[2].checksum ^= 1;
    std::vector<Violation> vs = suite.check_shard_invariance(runs);
    ASSERT_FALSE(vs.empty());
    EXPECT_EQ(families(vs), std::set<std::string>{"shard-invariance"});
}

// ---------------------------------------------------------------------
// Shrinker: ddmin to the minimal still-failing plan
// ---------------------------------------------------------------------

TEST(ShrinkPlan, OneBadEventAmongThirtyBenign)
{
    FaultPlan plan;
    for (int i = 0; i < 30; ++i)
        plan.link_burst((1 + i) * sim::kSecond, sim::kSecond, 0.5);
    plan.device_crash(17 * sim::kSecond, 3, 2 * sim::kSecond);
    // "Fails" whenever device 3's crash is still in the plan.
    auto bad = [](const FaultPlan& p) {
        for (const fault::FaultEvent& e : p.events)
            if (e.kind == FaultKind::DeviceCrash && e.target == 3)
                return true;
        return false;
    };
    fault::ShrinkResult r = fault::shrink_plan(plan, bad);
    EXPECT_TRUE(r.minimal);
    ASSERT_EQ(r.plan.events.size(), 1u);
    EXPECT_EQ(r.plan.events[0].kind, FaultKind::DeviceCrash);
    EXPECT_EQ(r.plan.events[0].target, 3u);
    EXPECT_LE(r.evaluations, 100u);

    // Deterministic: the same shrink twice lands on the same plan.
    fault::ShrinkResult again = fault::shrink_plan(plan, bad);
    EXPECT_EQ(r.plan, again.plan);
    EXPECT_EQ(r.evaluations, again.evaluations);
}

TEST(ShrinkPlan, KeepsInteractingPair)
{
    FaultPlan plan;
    for (int i = 0; i < 20; ++i)
        plan.partition((1 + i) * sim::kSecond, sim::kSecond, i % 4);
    plan.device_crash(5 * sim::kSecond, 1, 3 * sim::kSecond);
    plan.server_crash(9 * sim::kSecond, 0, 2 * sim::kSecond);
    // Fails only while BOTH the crash and the server crash survive.
    auto bad = [](const FaultPlan& p) {
        bool dev = false, srv = false;
        for (const fault::FaultEvent& e : p.events) {
            dev |= e.kind == FaultKind::DeviceCrash;
            srv |= e.kind == FaultKind::ServerCrash;
        }
        return dev && srv;
    };
    fault::ShrinkResult r = fault::shrink_plan(plan, bad);
    EXPECT_TRUE(r.minimal);
    EXPECT_EQ(r.plan.events.size(), 2u);
}

TEST(ShrinkPlan, SimplifiesTimesAndDurations)
{
    FaultPlan plan;
    plan.device_crash(17 * sim::kSecond + 345678901, 2,
                      9 * sim::kSecond + 87654321);
    auto bad = [](const FaultPlan& p) {
        for (const fault::FaultEvent& e : p.events)
            if (e.kind == FaultKind::DeviceCrash)
                return true;
        return false;
    };
    fault::ShrinkResult r = fault::shrink_plan(plan, bad);
    ASSERT_EQ(r.plan.events.size(), 1u);
    // Injection time rounded to a whole second, duration halved while
    // the failure persisted.
    EXPECT_EQ(r.plan.events[0].at % sim::kSecond, 0);
    EXPECT_LT(r.plan.events[0].duration, 9 * sim::kSecond + 87654321);
}

TEST(ShrinkPlan, NeverFailingInputReturnsNonMinimal)
{
    FaultPlan plan;
    plan.link_burst(sim::kSecond, sim::kSecond, 0.5);
    fault::ShrinkResult r =
        fault::shrink_plan(plan, [](const FaultPlan&) { return false; });
    EXPECT_FALSE(r.minimal);
    EXPECT_EQ(r.plan, plan);
    EXPECT_EQ(r.evaluations, 1u);
}

TEST(ShrinkPlan, BudgetExhaustionReportsNonMinimal)
{
    FaultPlan plan;
    for (int i = 0; i < 16; ++i)
        plan.link_burst((1 + i) * sim::kSecond, sim::kSecond, 0.5);
    fault::ShrinkResult r = fault::shrink_plan(
        plan, [](const FaultPlan& p) { return !p.empty(); }, 3);
    EXPECT_FALSE(r.minimal);
    EXPECT_FALSE(r.plan.empty());  // Still failing, just not 1-minimal.
}

// ---------------------------------------------------------------------
// JSON reproducers
// ---------------------------------------------------------------------

TEST(PlanJson, RoundTripsFuzzedPlansExactly)
{
    fault::PlanFuzzer fuzzer;
    for (std::uint64_t seed = 0; seed < 100; ++seed) {
        FaultPlan plan = fuzzer.generate(seed);
        FaultPlan back = fault::plan_from_json(fault::plan_to_json(plan));
        EXPECT_EQ(plan, back) << "seed " << seed;
    }
}

TEST(PlanJson, RoundTripsEveryKindAndField)
{
    FaultPlan plan;
    plan.device_crash(sim::kSecond, 3)
        .device_crash(2 * sim::kSecond, 1, 3 * sim::kSecond)
        .link_burst(3 * sim::kSecond, 4 * sim::kSecond, 0.97,
                    1500 * sim::kMillisecond, 250 * sim::kMillisecond)
        .partition(4 * sim::kSecond, sim::kSecond, 1)
        .server_crash(5 * sim::kSecond, 0, 2 * sim::kSecond)
        .datastore_outage(6 * sim::kSecond, sim::kSecond)
        .controller_crash(8 * sim::kSecond)
        .controller_partition(9 * sim::kSecond, 2 * sim::kSecond);
    EXPECT_EQ(fault::plan_from_json(fault::plan_to_json(plan)), plan);
}

TEST(PlanJson, MalformedInputThrows)
{
    EXPECT_THROW(fault::plan_from_json(""), std::invalid_argument);
    EXPECT_THROW(fault::plan_from_json("{}"), std::invalid_argument);
    // Superseded (v1, v2) and unknown versions.
    EXPECT_THROW(fault::plan_from_json("{\"version\":1,\"events\":[]}"),
                 std::invalid_argument);
    EXPECT_THROW(fault::plan_from_json("{\"version\":2,\"events\":[]}"),
                 std::invalid_argument);
    EXPECT_THROW(fault::plan_from_json("{\"version\":4,\"events\":[]}"),
                 std::invalid_argument);
    EXPECT_NO_THROW(fault::plan_from_json("{\"version\":3,\"events\":[]}"));
    // Kinds and fields the schema does not know fail to parse instead
    // of silently doing nothing (v1's burst radius and v2's
    // fixed-delay failover kind and its takeover flag included).
    EXPECT_THROW(
        fault::plan_from_json(
            "{\"version\":3,\"events\":[{\"kind\":\"NoSuchFault\"}]}"),
        std::invalid_argument);
    EXPECT_THROW(fault::plan_from_json(
                     "{\"version\":3,\"events\":[{\"kind\":"
                     "\"DeviceCrash\",\"radius_m\":5}]}"),
                 std::invalid_argument);
    EXPECT_THROW(fault::plan_from_json(
                     "{\"version\":3,\"events\":[{\"kind\":"
                     "\"ControllerFailover\"}]}"),
                 std::invalid_argument);
    EXPECT_THROW(fault::plan_from_json(
                     "{\"version\":3,\"events\":[{\"kind\":"
                     "\"ControllerCrash\",\"takeover\":true}]}"),
                 std::invalid_argument);
    std::string truncated = fault::plan_to_json(
        FaultPlan{}.device_crash(sim::kSecond, 0, sim::kSecond));
    truncated.resize(truncated.size() / 2);
    EXPECT_THROW(fault::plan_from_json(truncated), std::invalid_argument);
}

TEST(PlanJson, BuilderSnippetNamesEveryEvent)
{
    fault::PlanFuzzer fuzzer;
    FaultPlan plan = fuzzer.generate(11);
    std::string snippet = fault::plan_to_builder_snippet(plan);
    EXPECT_NE(snippet.find("fault::FaultPlan plan;"), std::string::npos);
    std::size_t calls = 0;
    for (std::size_t pos = snippet.find("plan."); pos != std::string::npos;
         pos = snippet.find("plan.", pos + 1))
        ++calls;
    EXPECT_EQ(calls, plan.events.size());
}

// ---------------------------------------------------------------------
// End-to-end smoke: fuzzed plans at shards {1, 2, 4} + all oracles
// ---------------------------------------------------------------------

TEST(FuzzSmoke, FuzzedPlansSurviveAllOracles)
{
    platform::FuzzCaseOptions opt;
    opt.devices = 4;
    opt.servers = 2;
    opt.horizon = 40 * sim::kSecond;
    fault::PlanFuzzer fuzzer(platform::fuzz_config_for(opt));
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        FaultPlan plan = fuzzer.generate(seed * 1000003);
        opt.seed = seed;
        std::vector<Violation> vs = audit_at_every_shard_count(plan, opt);
        EXPECT_TRUE(vs.empty())
            << "seed " << seed << "\n" << fault::violations_to_string(vs);
    }
}

TEST(FuzzSmoke, RoverPlansSurviveAllOracles)
{
    for (platform::ScenarioKind kind :
         {platform::ScenarioKind::TreasureHunt,
          platform::ScenarioKind::RoverMaze}) {
        platform::FuzzCaseOptions opt;
        opt.kind = kind;
        opt.devices = 4;
        opt.servers = 2;
        opt.horizon = 40 * sim::kSecond;
        fault::PlanFuzzer fuzzer(platform::fuzz_config_for(opt));
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            FaultPlan plan = fuzzer.generate(seed * 2000003);
            opt.seed = seed;
            std::vector<Violation> vs = audit_at_every_shard_count(plan, opt);
            EXPECT_TRUE(vs.empty()) << platform::to_string(kind) << " seed "
                                    << seed << "\n"
                                    << fault::violations_to_string(vs);
        }
    }
}

TEST(FuzzSmoke, SameSeedRunsAreByteIdentical)
{
    const fault::OracleSuite suite;
    platform::FuzzCaseOptions opt;
    opt.seed = 97;
    opt.shards = 2;
    fault::PlanFuzzer fuzzer(platform::fuzz_config_for(opt));
    FaultPlan plan = fuzzer.generate(1234567);
    RunAudit a = platform::run_fuzz_case(plan, opt);
    RunAudit b = platform::run_fuzz_case(plan, opt);
    std::vector<Violation> vs = suite.check_determinism(a, b);
    EXPECT_TRUE(vs.empty()) << fault::violations_to_string(vs);
}

// ---------------------------------------------------------------------
// Checked-in seed corpus: every reproducer replays clean
// ---------------------------------------------------------------------

#ifdef FUZZ_CORPUS_DIR
namespace {

std::string read_file(const std::filesystem::path& path)
{
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

}  // namespace

TEST(FuzzCorpus, EveryCheckedInPlanReplaysClean)
{
    std::size_t replayed = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(FUZZ_CORPUS_DIR)) {
        if (entry.path().extension() != ".json")
            continue;
        const std::string name = entry.path().filename().string();
        SCOPED_TRACE(name);
        platform::FuzzCaseOptions opt;  // The corpus' generation envelope.
        // The filename prefix routes the plan to its scenario kind:
        // treasure_* / maze_* replay on the rover missions, seed_* on
        // the drone sweep.
        if (name.rfind("treasure_", 0) == 0)
            opt.kind = platform::ScenarioKind::TreasureHunt;
        else if (name.rfind("maze_", 0) == 0)
            opt.kind = platform::ScenarioKind::RoverMaze;
        FaultPlan plan = fault::plan_from_json(read_file(entry.path()));
        EXPECT_FALSE(plan.empty());
        std::vector<Violation> vs = audit_at_every_shard_count(plan, opt);
        EXPECT_TRUE(vs.empty()) << fault::violations_to_string(vs);
        ++replayed;
    }
    EXPECT_GE(replayed, 10u) << "corpus went missing";
}
#endif  // FUZZ_CORPUS_DIR

TEST(FuzzSmoke, HarnessRejectsOutOfBoundsPlan)
{
    platform::FuzzCaseOptions opt;
    opt.devices = 2;
    FaultPlan plan;
    plan.device_crash(sim::kSecond, 5, sim::kSecond);
    EXPECT_THROW(platform::run_fuzz_case(plan, opt), std::invalid_argument);
}
