#pragma once

/**
 * @file
 * Shared helpers for the figure-reproduction benches.
 *
 * Every bench binary regenerates one figure of the paper: it runs the
 * relevant simulations and prints the same rows/series the figure
 * plots. Absolute numbers come from our simulator, not the authors'
 * testbed; the *shape* (orderings, rough factors, crossovers) is the
 * reproduction target — see EXPERIMENTS.md.
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/appspec.hpp"
#include "platform/deployment.hpp"
#include "platform/metrics.hpp"
#include "platform/options.hpp"
#include "platform/scenario.hpp"
#include "platform/single_phase.hpp"
#include "platform/sweep.hpp"
#include "util/json.hpp"

namespace hivemind::bench {

/** The paper's reference deployment, DeploymentConfig's defaults:
 *  16 drones, 12 servers of 40 cores. */
inline platform::DeploymentConfig
paper_deployment(std::uint64_t seed)
{
    platform::DeploymentConfig cfg;
    cfg.seed = seed;
    return cfg;
}

/** The rover deployment of Sec. 5.5: 14 cars, same cluster. */
inline platform::DeploymentConfig
rover_deployment(std::uint64_t seed)
{
    platform::DeploymentConfig cfg = paper_deployment(seed);
    cfg.devices = 14;
    cfg.device_spec = edge::DeviceSpec::rover();
    return cfg;
}

/** Default 120 s job window (Sec. 2.3). */
inline platform::JobConfig
paper_job()
{
    platform::JobConfig j;
    j.duration = 120 * sim::kSecond;
    j.drain = 60 * sim::kSecond;
    return j;
}

/** Scenario A at paper scale: 15 items in a ~96 m field. */
inline platform::ScenarioConfig
scenario_a()
{
    platform::ScenarioConfig sc;
    sc.kind = platform::ScenarioKind::StationaryItems;
    sc.field_size_m = 96.0;
    sc.targets = 15;
    sc.time_cap = 1500 * sim::kSecond;
    return sc;
}

/** Scenario B at paper scale: 25 moving people. */
inline platform::ScenarioConfig
scenario_b()
{
    platform::ScenarioConfig sc;
    sc.kind = platform::ScenarioKind::MovingPeople;
    sc.field_size_m = 96.0;
    sc.targets = 25;
    sc.time_cap = 1500 * sim::kSecond;
    return sc;
}

/** Run a single-phase job over a few seeds and merge the metrics. */
inline platform::RunMetrics
run_job_repeated(const apps::AppSpec& app,
                 const platform::PlatformOptions& options,
                 const platform::JobConfig& job, int repeats,
                 std::uint64_t seed0 = 42)
{
    platform::RunMetrics merged;
    for (int r = 0; r < repeats; ++r) {
        platform::RunMetrics m = platform::run_single_phase(
            app, options, paper_deployment(seed0 + static_cast<std::uint64_t>(r)),
            job);
        merged.merge(m);
    }
    return merged;
}

/** Run a scenario over a few seeds; completion_s becomes the mean. */
inline platform::RunMetrics
run_scenario_repeated(const platform::ScenarioConfig& sc,
                      const platform::PlatformOptions& options,
                      platform::DeploymentConfig dep, int repeats,
                      std::uint64_t seed0 = 42)
{
    platform::RunMetrics merged;
    for (int r = 0; r < repeats; ++r) {
        dep.seed = seed0 + static_cast<std::uint64_t>(r);
        platform::RunMetrics m = platform::run_scenario(sc, options, dep);
        merged.merge(m);
    }
    merged.completion_s /= static_cast<double>(repeats);
    merged.detect_correct_pct /= static_cast<double>(repeats);
    merged.detect_fn_pct /= static_cast<double>(repeats);
    merged.detect_fp_pct /= static_cast<double>(repeats);
    return merged;
}

/**
 * Deterministic per-point seed derivation (splitmix64 of base+index).
 *
 * Sweep workers must not share RNG streams; deriving each point's
 * seed from (base, index) keeps results identical no matter how many
 * threads run the sweep or in what order points complete.
 */
inline std::uint64_t
sweep_seed(std::uint64_t base, std::uint64_t index)
{
    std::uint64_t z = base + 0x9e3779b97f4a7c15ull * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e9b5ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** The figure sweeps run on the platform's one worker pool. */
using platform::run_sweep;
using platform::sweep_threads;

/** Print a separator + header line for a figure table. */
inline void
print_header(const std::string& figure, const std::string& caption)
{
    std::printf("\n==========================================================="
                "=====================\n");
    std::printf("%s — %s\n", figure.c_str(), caption.c_str());
    std::printf("=============================================================="
                "==================\n");
}

/**
 * Machine-readable bench output rides the repo-wide util::Json
 * writer (src/util/json.hpp), so BENCH_*.json files, fuzz
 * reproducers and fleet JSONL records escape and format identically.
 * Build with Json::object()/Json::array(), chain kv()/push(), and
 * hand the finished document to write_bench_json().
 */
using Json = hivemind::util::Json;

/** Write @p doc to BENCH_<name>.json in the working directory. */
inline void
write_bench_json(const std::string& name, const Json& doc)
{
    std::string path = "BENCH_" + name + ".json";
    std::string text = doc.str();
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
        std::fwrite(text.data(), 1, text.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
        std::printf("\n[json] %s (%zu bytes)\n", path.c_str(), text.size());
    } else {
        std::printf("\n[json] could not write %s\n", path.c_str());
    }
}

}  // namespace hivemind::bench
