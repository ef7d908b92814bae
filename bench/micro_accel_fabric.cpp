/**
 * @file
 * Microbenchmarks of the acceleration-fabric models (Sec. 4.4/4.5),
 * via google-benchmark.
 *
 * Checks the headline numbers the paper quotes for the FPGA NIC —
 * 2.1 us RTT and 12.4 Mrps per core for 64 B RPCs — against the
 * model, and measures the data-sharing fabric's per-protocol costs.
 * (These benchmark the *models'* simulated latencies and the kernel's
 * processing throughput, not real hardware.)
 */

#include <benchmark/benchmark.h>

#include "cloud/datastore.hpp"
#include "cloud/sharing.hpp"
#include "net/rpc.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace hivemind;

/** Simulated RTT through two fpga_offload endpoints (Sec. 4.5). */
void
BM_FpgaRpcRoundTripSimulatedLatency(benchmark::State& state)
{
    sim::Simulator simulator;
    net::RpcProcessor a(simulator, net::RpcConfig::fpga_offload(1));
    net::RpcProcessor b(simulator, net::RpcConfig::fpga_offload(1));
    double rtt_us = 0.0;
    for (auto _ : state) {
        sim::Time t0 = simulator.now();
        a.process([] {});
        simulator.run();
        sim::Time back = b.process([] {});
        simulator.run();
        rtt_us = sim::to_micros(back - t0);
        benchmark::DoNotOptimize(rtt_us);
    }
    state.counters["simulated_rtt_us"] = rtt_us;  // Paper: 2.1 us.
}
BENCHMARK(BM_FpgaRpcRoundTripSimulatedLatency);

/** Sustained simulated throughput of one offloaded core. */
void
BM_FpgaRpcThroughputSimulated(benchmark::State& state)
{
    sim::Simulator simulator;
    net::RpcProcessor p(simulator, net::RpcConfig::fpga_offload(1));
    std::uint64_t msgs = 0;
    sim::Time last = 0;
    for (auto _ : state) {
        last = p.process(nullptr);
        ++msgs;
    }
    // Messages per simulated second of core busy time (the final
    // completion includes one fixed latency; amortized away here).
    double sim_s = sim::to_seconds(last) - 1.05e-6;
    state.counters["simulated_mrps"] =
        sim_s > 0.0 ? static_cast<double>(msgs) / sim_s / 1e6 : 0.0;
}
BENCHMARK(BM_FpgaRpcThroughputSimulated);

/** Kernel cost of driving one RPC through the software-stack model. */
void
BM_SoftwareRpcModelProcessingCost(benchmark::State& state)
{
    sim::Simulator simulator;
    net::RpcProcessor p(simulator, net::RpcConfig::software_stack(2));
    for (auto _ : state) {
        p.process(nullptr);
        simulator.run();
    }
}
BENCHMARK(BM_SoftwareRpcModelProcessingCost);

/** Per-protocol simulated hand-off latency of the sharing fabric. */
void
BM_SharingProtocolSimulatedLatency(benchmark::State& state)
{
    auto proto = static_cast<cloud::SharingProtocol>(state.range(0));
    std::uint64_t bytes = static_cast<std::uint64_t>(state.range(1));
    sim::Simulator simulator;
    sim::Rng rng(1);
    cloud::DataStore store(simulator, rng, cloud::DataStoreConfig{});
    cloud::DataSharingFabric fabric(simulator, rng, store);
    // Each hand-off is timed from the share() call to its callback.
    double total_s = 0.0;
    for (auto _ : state) {
        const sim::Time start = simulator.now();
        fabric.share(proto, bytes, [&simulator, &total_s, start] {
            total_s += sim::to_seconds(simulator.now() - start);
        });
        simulator.run();
    }
    state.counters["simulated_ms"] =
        1000.0 * total_s / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SharingProtocolSimulatedLatency)
    ->ArgsProduct({{0, 1, 2, 3}, {64 << 10, 1 << 20}});

}  // namespace

BENCHMARK_MAIN();
