/**
 * @file
 * Chaos-fuzz soak driver: random fault plans vs the invariant oracles.
 *
 * Each case derives a seed, fuzzes a FaultPlan from it, runs the plan
 * at every requested shard count (checksums and ledgers must be
 * shard-invariant), and feeds every finished run through
 * fault::OracleSuite. Periodically a
 * case is re-run with the same seed to assert byte-identical replay.
 * On the first violation the plan is auto-shrunk with ddmin, and the
 * minimal reproducer is written as JSON (reloadable via
 * plan_from_json) plus a C++ builder snippet ready for a regression
 * test. Exit code 0 = the whole soak was clean.
 *
 * Usage:
 *   fuzz_soak [--seed N] [--runs N] [--minutes M] [--shards 1,2,4]
 *             [--devices N] [--servers N] [--horizon-s S]
 *             [--kind stationary|moving|treasure|maze|cycle]
 *
 * --runs is the case budget; --minutes (0 = off) additionally stops
 * the soak when the wall-clock budget runs out. --kind cycle rotates
 * every scenario kind (drones and rovers) across cases.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fault/fuzz.hpp"
#include "fault/oracle.hpp"
#include "platform/fuzz_harness.hpp"

using namespace hivemind;

namespace {

struct SoakOptions
{
    std::uint64_t seed = 1;
    std::size_t runs = 200;
    double minutes = 0.0;  ///< 0 = no wall-clock cap.
    std::vector<int> shards = {1, 2, 4};
    std::size_t devices = 6;
    std::size_t servers = 2;
    sim::Time horizon = 60 * sim::kSecond;
    /** Scenario kinds cycled across cases (--kind). */
    std::vector<platform::ScenarioKind> kinds = {
        platform::ScenarioKind::StationaryItems};
    /** Every Nth case replays the first shard count for determinism. */
    std::size_t determinism_every = 5;
    /** Non-empty: write each fuzzed plan as JSON here instead of
     *  running it (refreshes the checked-in seed corpus). */
    std::string dump_corpus;
};

std::vector<int>
parse_shards(const char* arg)
{
    std::vector<int> out;
    for (const char* p = arg; *p != '\0';) {
        char* end = nullptr;
        long v = std::strtol(p, &end, 10);
        if (end == p || v < 1)
            break;
        out.push_back(static_cast<int>(v));
        p = (*end == ',') ? end + 1 : end;
    }
    if (out.empty())
        out.push_back(1);
    return out;
}

[[noreturn]] void
usage_and_exit(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--seed N] [--runs N] [--minutes M] "
                 "[--shards 1,2,4] [--devices N] [--servers N] "
                 "[--horizon-s S] "
                 "[--kind stationary|moving|treasure|maze|cycle]\n",
                 argv0);
    std::exit(2);
}

std::vector<platform::ScenarioKind>
parse_kinds(const char* v, const char* argv0)
{
    if (std::strcmp(v, "stationary") == 0)
        return {platform::ScenarioKind::StationaryItems};
    if (std::strcmp(v, "moving") == 0)
        return {platform::ScenarioKind::MovingPeople};
    if (std::strcmp(v, "treasure") == 0)
        return {platform::ScenarioKind::TreasureHunt};
    if (std::strcmp(v, "maze") == 0)
        return {platform::ScenarioKind::RoverMaze};
    if (std::strcmp(v, "cycle") == 0)
        return {platform::ScenarioKind::StationaryItems,
                platform::ScenarioKind::MovingPeople,
                platform::ScenarioKind::TreasureHunt,
                platform::ScenarioKind::RoverMaze};
    usage_and_exit(argv0);
}

SoakOptions
parse_args(int argc, char** argv)
{
    SoakOptions o;
    for (int i = 1; i < argc; ++i) {
        const char* a = argv[i];
        auto value = [&]() -> const char* {
            if (i + 1 >= argc)
                usage_and_exit(argv[0]);
            return argv[++i];
        };
        if (std::strcmp(a, "--seed") == 0) {
            o.seed = std::strtoull(value(), nullptr, 10);
        } else if (std::strcmp(a, "--runs") == 0) {
            o.runs = std::strtoull(value(), nullptr, 10);
        } else if (std::strcmp(a, "--minutes") == 0) {
            o.minutes = std::strtod(value(), nullptr);
        } else if (std::strcmp(a, "--shards") == 0) {
            o.shards = parse_shards(value());
        } else if (std::strcmp(a, "--devices") == 0) {
            o.devices = std::strtoull(value(), nullptr, 10);
        } else if (std::strcmp(a, "--servers") == 0) {
            o.servers = std::strtoull(value(), nullptr, 10);
        } else if (std::strcmp(a, "--dump-corpus") == 0) {
            o.dump_corpus = value();
        } else if (std::strcmp(a, "--kind") == 0) {
            o.kinds = parse_kinds(value(), argv[0]);
        } else if (std::strcmp(a, "--horizon-s") == 0) {
            o.horizon =
                static_cast<sim::Time>(std::strtoull(value(), nullptr, 10)) *
                sim::kSecond;
        } else {
            usage_and_exit(argv[0]);
        }
    }
    return o;
}

platform::FuzzCaseOptions
case_options(const SoakOptions& o, std::uint64_t seed,
             platform::ScenarioKind kind)
{
    platform::FuzzCaseOptions c;
    c.seed = seed;
    c.devices = o.devices;
    c.servers = o.servers;
    c.horizon = o.horizon;
    c.kind = kind;
    return c;
}

void
tag(std::vector<fault::Violation>& out,
    const std::vector<fault::Violation>& found, const std::string& leg)
{
    for (const fault::Violation& v : found)
        out.push_back({v.oracle, "[" + leg + "] " + v.detail});
}

/**
 * The full battery for one (plan, seed): every shard count plus the
 * cross-run oracles. Also what the shrinker's predicate replays, so a
 * shrunk plan fails for the same observable reason.
 */
std::vector<fault::Violation>
run_battery(const fault::FaultPlan& plan, std::uint64_t seed,
            platform::ScenarioKind kind, const SoakOptions& o,
            const fault::OracleSuite& suite, bool check_determinism)
{
    std::vector<fault::Violation> out;
    try {
        std::vector<fault::RunAudit> runs;
        for (int n : o.shards) {
            platform::FuzzCaseOptions c = case_options(o, seed, kind);
            c.shards = n;
            fault::RunAudit audit = platform::run_fuzz_case(plan, c);
            tag(out, suite.audit(audit), "shards/" + std::to_string(n));
            runs.push_back(std::move(audit));
        }
        if (runs.size() > 1)
            tag(out, suite.check_shard_invariance(runs), "shard-invariance");
        if (check_determinism) {
            platform::FuzzCaseOptions c = case_options(o, seed, kind);
            c.shards = o.shards.front();
            fault::RunAudit replay = platform::run_fuzz_case(plan, c);
            tag(out, suite.check_determinism(runs.front(), replay),
                "determinism");
        }
    } catch (const std::exception& e) {
        out.push_back({"harness", std::string("exception: ") + e.what()});
    }
    return out;
}

void
write_reproducer(const fault::FaultPlan& plan, std::uint64_t seed)
{
    std::string path = "fuzz_repro_" + std::to_string(seed) + ".json";
    std::string json = fault::plan_to_json(plan);
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
        std::fwrite(json.data(), 1, json.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
        std::printf("[repro] wrote %s (%zu bytes)\n", path.c_str(),
                    json.size());
    } else {
        std::printf("[repro] could not write %s; JSON follows:\n%s\n",
                    path.c_str(), json.c_str());
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    const SoakOptions o = parse_args(argc, argv);
    const fault::OracleSuite suite;

    fault::FuzzConfig fc = platform::fuzz_config_for(
        case_options(o, o.seed, o.kinds.front()));
    const fault::PlanFuzzer fuzzer(fc);

    std::printf("fuzz_soak: seed=%llu runs=%zu shards=",
                static_cast<unsigned long long>(o.seed), o.runs);
    for (std::size_t i = 0; i < o.shards.size(); ++i)
        std::printf("%s%d", i ? "," : "", o.shards[i]);
    std::printf(" devices=%zu servers=%zu horizon=%llds", o.devices,
                o.servers, static_cast<long long>(o.horizon / sim::kSecond));
    std::printf(" kinds=");
    for (std::size_t i = 0; i < o.kinds.size(); ++i)
        std::printf("%s%s", i ? "," : "", platform::to_string(o.kinds[i]));
    std::printf("\n");

    auto t0 = std::chrono::steady_clock::now();
    auto elapsed_min = [&]() {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count() /
            60.0;
    };

    std::size_t cases = 0;
    for (std::size_t i = 0; i < o.runs; ++i) {
        if (o.minutes > 0.0 && elapsed_min() > o.minutes) {
            std::printf("[soak] wall-clock budget reached after %zu cases\n",
                        cases);
            break;
        }
        const std::uint64_t case_seed = bench::sweep_seed(o.seed, i);
        const platform::ScenarioKind kind = o.kinds[i % o.kinds.size()];
        const fault::FaultPlan plan = fuzzer.generate(case_seed);
        if (!o.dump_corpus.empty()) {
            std::string path = o.dump_corpus + "/seed_" +
                std::to_string(case_seed) + ".json";
            std::string json = fault::plan_to_json(plan);
            std::FILE* f = std::fopen(path.c_str(), "w");
            if (f == nullptr) {
                std::fprintf(stderr, "cannot write %s\n", path.c_str());
                return 2;
            }
            std::fwrite(json.data(), 1, json.size(), f);
            std::fputc('\n', f);
            std::fclose(f);
            std::printf("[corpus] %s (%zu events)\n", path.c_str(),
                        plan.events.size());
            ++cases;
            continue;
        }
        const bool determinism =
            o.determinism_every > 0 && i % o.determinism_every == 0;
        std::vector<fault::Violation> violations =
            run_battery(plan, case_seed, kind, o, suite, determinism);
        ++cases;
        if ((i + 1) % 25 == 0)
            std::fprintf(stderr, "[soak] %zu/%zu cases clean (%.1f min)\n",
                         i + 1, o.runs, elapsed_min());
        if (violations.empty())
            continue;

        std::printf("\n[FAIL] case %zu (seed %llu, %s, %zu events):\n%s\n",
                    i, static_cast<unsigned long long>(case_seed),
                    platform::to_string(kind), plan.events.size(),
                    fault::violations_to_string(violations).c_str());

        // Shrink against the same battery (determinism leg included so
        // replay-divergence failures keep reproducing while shrinking).
        fault::ShrinkResult shrunk = fault::shrink_plan(
            plan,
            [&](const fault::FaultPlan& p) {
                return !run_battery(p, case_seed, kind, o, suite,
                                    determinism)
                            .empty();
            },
            150);
        std::printf("[shrink] %zu -> %zu events (%zu evaluations%s)\n",
                    plan.events.size(), shrunk.plan.events.size(),
                    shrunk.evaluations,
                    shrunk.minimal ? ", 1-minimal" : ", budget hit");
        write_reproducer(shrunk.plan, case_seed);
        std::printf("[repro] builder snippet:\n%s\n",
                    fault::plan_to_builder_snippet(shrunk.plan).c_str());
        std::printf("[repro] rerun: fuzz_soak --seed %llu --runs %zu\n",
                    static_cast<unsigned long long>(o.seed), i + 1);
        return 1;
    }

    std::printf("[soak] clean: %zu cases, %.1f min wall\n", cases,
                elapsed_min());
    return 0;
}
