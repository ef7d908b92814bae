/**
 * @file
 * Microbenchmarks of the simulation substrate itself, via
 * google-benchmark: event-kernel throughput, cloud placement, maze
 * generation/solving, and placement enumeration. These
 * bound how large a swarm the DES can handle (Sec. 5.6 methodology).
 *
 * The BM_EventKernel* results are additionally written to
 * BENCH_sim_kernel.json next to the recorded pre-overhaul baseline
 * (unordered_map callbacks + priority_queue only, no slab / wheel),
 * so the speedup of the slab+wheel kernel is tracked by scripts/CI.
 * The BM_SameTickArrivals (events/s), BM_Placement (cycles/s per
 * cluster size), BM_InvokeLifecycle (fan-outs/s) and
 * BM_StragglerThreshold (latency samples/s) rows ride along.
 */

#include <benchmark/benchmark.h>

#include <map>
#include <optional>
#include <string>
#include <utility>

#include "bench_util.hpp"
#include "cloud/datastore.hpp"
#include "cloud/faas.hpp"
#include "cloud/server.hpp"
#include "core/scheduler.hpp"
#include "dsl/scenarios.hpp"
#include "geo/maze.hpp"
#include "platform/deployment.hpp"
#include "platform/options.hpp"
#include "platform/pipeline_spec.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "synth/api_synth.hpp"
#include "synth/placement.hpp"

namespace {

using namespace hivemind;

/**
 * Pre-overhaul kernel numbers (events/sec), measured at the PR that
 * introduced the slab+wheel kernel: Release (-O3), g++ 12, one-core
 * reference container. Absolute numbers are machine-specific; the
 * tracked target is after/before >= 2x on the same machine.
 */
const std::map<std::string, double> kPrePrBaseline = {
    {"BM_EventKernelThroughput", 24.15e6},
    {"BM_EventKernelDeepQueue/1000", 10.29e6},
    {"BM_EventKernelDeepQueue/100000", 3.66e6},
};

/** Raw schedule+dispatch throughput of the event kernel. */
void
BM_EventKernelThroughput(benchmark::State& state)
{
    sim::Simulator simulator;
    sim::Time t = 0;
    std::uint64_t executed = 0;
    for (auto _ : state) {
        simulator.schedule_at(++t, [&executed]() { ++executed; });
        simulator.step();
    }
    benchmark::DoNotOptimize(executed);
    state.SetItemsProcessed(static_cast<std::int64_t>(executed));
}
BENCHMARK(BM_EventKernelThroughput);

/** Event kernel with a deep pending queue (scenario-like load). */
void
BM_EventKernelDeepQueue(benchmark::State& state)
{
    const int depth = static_cast<int>(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        sim::Simulator simulator;
        sim::Rng rng(7);
        std::uint64_t executed = 0;
        for (int i = 0; i < depth; ++i) {
            simulator.schedule_at(rng.uniform_int(0, 1000000),
                                  [&executed]() { ++executed; });
        }
        state.ResumeTiming();
        simulator.run();
        benchmark::DoNotOptimize(executed);
    }
    state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_EventKernelDeepQueue)->Arg(1000)->Arg(100000);

/** Schedule/cancel churn: O(1) slab cancel + tombstone compaction. */
void
BM_EventKernelCancelChurn(benchmark::State& state)
{
    sim::Simulator simulator;
    sim::Time t = 0;
    std::uint64_t cancelled = 0;
    for (auto _ : state) {
        // Timeout-style pattern: arm a far-future guard, then cancel
        // it before it fires (retries, keep-alives, watchdogs).
        sim::EventId guard =
            simulator.schedule_at(t + 30 * sim::kSecond, []() {});
        simulator.schedule_at(++t, []() {});
        simulator.step();
        cancelled += simulator.cancel(guard) ? 1 : 0;
    }
    benchmark::DoNotOptimize(cancelled);
    state.SetItemsProcessed(static_cast<std::int64_t>(cancelled) * 2);
}
BENCHMARK(BM_EventKernelCancelChurn);

/** Swarm-like recurring timer mix riding the timer-wheel fast lane. */
void
BM_EventKernelRecurringTimers(benchmark::State& state)
{
    const int devices = static_cast<int>(state.range(0));
    std::uint64_t total = 0;
    for (auto _ : state) {
        state.PauseTiming();
        sim::Simulator simulator;
        std::uint64_t ticks = 0;
        for (int d = 0; d < devices; ++d) {
            // Per-device heartbeat (1 s), link tick (10 ms) and
            // battery drain (100 ms) — the mix that dominates runs.
            for (sim::Time period : {sim::kSecond,
                                     10 * sim::kMillisecond,
                                     100 * sim::kMillisecond}) {
                sim::recurring(simulator, period,
                               [&ticks, period](const sim::Recur& self) {
                                   ++ticks;
                                   self.again_in(period);
                               });
            }
        }
        state.ResumeTiming();
        simulator.run_until(2 * sim::kSecond);
        total += ticks;
        benchmark::DoNotOptimize(ticks);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total));
}
BENCHMARK(BM_EventKernelRecurringTimers)->Arg(64)->Arg(1024);

/**
 * Same-tick arrivals: a hold model of 64 pending events, each executed
 * event scheduling one child at now + U(0, 100 us). Most children land
 * inside the cursor's 131 us tick ahead of the ready run's tail, the
 * out-of-order case the wheel's same-tick lane serves.
 */
void
BM_SameTickArrivals(benchmark::State& state)
{
    struct Load
    {
        sim::Simulator simulator;
        sim::Rng rng{17};

        void arm()
        {
            simulator.schedule_in(
                rng.uniform_int(0, 100 * sim::kMicrosecond),
                [this] { arm(); });
        }
    } load;
    for (int i = 0; i < 64; ++i)
        load.arm();
    for (auto _ : state)
        load.simulator.step();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SameTickArrivals);

/**
 * One cloud placement cycle on a loaded cluster of range(0) servers:
 * a least-loaded pick that moves the chosen server one busy level up
 * and back, plus a FaaS invocation that claims the warm container the
 * previous cycle parked and parks it again. Busy cores fall from 39 on
 * server 0 to 1 on the last server, so the pick is the last server.
 */
void
BM_Placement(benchmark::State& state)
{
    const auto servers = static_cast<std::size_t>(state.range(0));
    sim::Simulator simulator;
    sim::Rng rng(5);
    cloud::Cluster cluster(servers, 40, platform::kServerMemoryMb);
    cloud::DataStore store(simulator, rng, cloud::DataStoreConfig{});
    cloud::FaasConfig cfg;
    cfg.keepalive = 30 * sim::kSecond;
    cloud::FaasRuntime faas(simulator, rng, cluster, store, cfg);
    for (std::size_t i = 0; i < servers; ++i) {
        const std::size_t busy = 39 - 38 * i / (servers - 1);
        for (std::size_t c = 0; c < busy; ++c)
            cluster.server(i).acquire_core();
    }
    cloud::InvokeRequest req;
    req.app = faas.intern("bm");
    req.work_core_ms = 1.0;
    sim::Time t = 0;
    for (auto _ : state) {
        std::optional<std::size_t> pick = cluster.least_loaded(req.memory_mb);
        benchmark::DoNotOptimize(pick);
        cluster.server(*pick).acquire_core();
        cluster.server(*pick).release_core();
        faas.invoke(req, nullptr);
        t += sim::kSecond;
        simulator.run_until(t);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Placement)->Arg(12)->Arg(768)->Arg(6144);

/**
 * One invocation lifecycle on the HiveMind cloud tier: an 8-way
 * recognition fan-out through CloudTier::invoke (scheduler races,
 * remote-memory sharing, warm containers), stepped until its join
 * fires. Fan-outs run back to back on one tier, so the warm pool,
 * the straggler history and the slabs are in steady state.
 */
void
BM_InvokeLifecycle(benchmark::State& state)
{
    sim::Simulator simulator;
    sim::Rng rng(42);
    platform::CloudTier cloud(simulator, rng, platform::DeploymentConfig{},
                              platform::PlatformOptions::hivemind(),
                              nullptr);
    const platform::PipelineSpec pipe =
        platform::pipeline_for(platform::ScenarioKind::StationaryItems);
    cloud::InvokeRequest req;
    req.app = pipe.rec_app;
    req.work_core_ms = pipe.rec_work_ms;
    req.memory_mb = pipe.memory_mb;
    req.input_bytes = pipe.inter_bytes;
    req.output_bytes = pipe.inter_bytes;
    bool done = false;
    for (auto _ : state) {
        done = false;
        cloud.invoke(req, pipe.parallelism,
                     [&done](const platform::CloudResult&) { done = true; });
        while (!done && simulator.step()) {
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InvokeLifecycle);

/**
 * The straggler threshold at the scheduler's shape: a 4,096-sample
 * latency window refreshed every 256 adds and read twice per sample,
 * like a part's watchdog deadline at invoke and its straggler test at
 * completion. One item is one lognormal latency sample.
 */
void
BM_StragglerThreshold(benchmark::State& state)
{
    core::PercentileTracker tracker(4096, 256);
    sim::Rng rng(42);
    for (int i = 0; i < 4096; ++i)
        tracker.add(rng.lognormal_median(0.25, 0.5));
    double stragglers = 0.0;
    for (auto _ : state) {
        const double deadline = tracker.threshold(90.0);
        const double latency = rng.lognormal_median(0.25, 0.5);
        if (latency > tracker.threshold(90.0))
            stragglers += deadline;
        tracker.add(latency);
    }
    benchmark::DoNotOptimize(stragglers);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StragglerThreshold);

/** Maze generation + wall-follower solve (S6's algorithm). */
void
BM_MazeGenerateAndSolve(benchmark::State& state)
{
    const int side = static_cast<int>(state.range(0));
    sim::Rng rng(11);
    for (auto _ : state) {
        geo::Maze maze(side, side, rng);
        auto trace = geo::wall_follow(
            maze, side - 1, side - 1,
            static_cast<std::size_t>(side) * static_cast<std::size_t>(side) *
                8);
        benchmark::DoNotOptimize(trace);
    }
}
BENCHMARK(BM_MazeGenerateAndSolve)->Arg(9)->Arg(25);

/** Placement enumeration + API synthesis for the Listing 3 graph. */
void
BM_PlacementSynthesis(benchmark::State& state)
{
    dsl::TaskGraph graph = dsl::scenario_b_graph();
    for (auto _ : state) {
        auto placements = synth::enumerate_placements(graph);
        std::size_t stubs = 0;
        for (const auto& p : placements)
            stubs += synth::synthesize_apis(graph, p, true).size();
        benchmark::DoNotOptimize(stubs);
    }
}
BENCHMARK(BM_PlacementSynthesis);

/** Console reporter that also captures items/sec per benchmark. */
class CapturingReporter : public benchmark::ConsoleReporter
{
  public:
    void ReportRuns(const std::vector<Run>& runs) override
    {
        benchmark::ConsoleReporter::ReportRuns(runs);
        for (const Run& r : runs) {
            if (r.error_occurred)
                continue;
            auto it = r.counters.find("items_per_second");
            if (it != r.counters.end())
                captured_[r.benchmark_name()] =
                    static_cast<double>(it->second);
        }
    }

    const std::map<std::string, double>& captured() const
    {
        return captured_;
    }

  private:
    std::map<std::string, double> captured_;
};

}  // namespace

int
main(int argc, char** argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    CapturingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    // Kernel before/after ledger for scripts and CI, plus the
    // same-tick, placement, invocation-lifecycle and threshold rows.
    const std::pair<const char*, const char*> kUnits[] = {
        {"BM_EventKernel", "events_per_sec"},
        {"BM_SameTickArrivals", "events_per_sec"},
        {"BM_Placement", "cycles_per_sec"},
        {"BM_InvokeLifecycle", "fanouts_per_sec"},
        {"BM_StragglerThreshold", "samples_per_sec"},
    };
    bench::Json results = bench::Json::array();
    for (const auto& [name, ips] : reporter.captured()) {
        const char* unit = nullptr;
        for (const auto& [prefix, u] : kUnits) {
            if (name.rfind(prefix, 0) == 0)
                unit = u;
        }
        if (!unit)
            continue;
        bench::Json row =
            bench::Json::object().kv("benchmark", name).kv(unit, ips);
        auto base = kPrePrBaseline.find(name);
        if (base != kPrePrBaseline.end()) {
            row.kv("pre_pr_events_per_sec", base->second)
                .kv("speedup", ips / base->second);
        }
        results.push(row);
    }
    bench::Json doc =
        bench::Json::object()
            .kv("bench", "micro_sim_kernel")
            .kv("hw_threads", static_cast<std::uint64_t>(
                                  std::thread::hardware_concurrency()))
            .kv("kernel",
                "slab slots + inline callables + 2-level timer wheel")
            .kv("baseline_kernel",
                "unordered_map callbacks + std::priority_queue")
            .kv("baseline_toolchain",
                "g++ 12, Release -O3, 1-core reference container")
            .kv("results", results);
    bench::write_bench_json("sim_kernel", doc);
    return 0;
}
