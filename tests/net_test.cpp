/**
 * @file
 * Tests for the flow-level network: links, RPC processors, topology
 * (src/net).
 */

#include <gtest/gtest.h>

#include "net/link.hpp"
#include "net/rpc.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace hivemind::net {
namespace {

TEST(Link, SerializationTime)
{
    sim::Simulator s;
    Link link(s, 8e6 /* 1 MB/s */, 0);
    sim::Time done = link.transfer(1'000'000, nullptr);
    EXPECT_EQ(done, sim::kSecond);
}

TEST(Link, PropagationAdds)
{
    sim::Simulator s;
    Link link(s, 8e6, sim::from_millis(5.0));
    sim::Time done = link.transfer(1'000'000, nullptr);
    EXPECT_EQ(done, sim::kSecond + sim::from_millis(5.0));
}

TEST(Link, FifoQueueing)
{
    sim::Simulator s;
    Link link(s, 8e6, 0);
    sim::Time first = link.transfer(1'000'000, nullptr);
    sim::Time second = link.transfer(1'000'000, nullptr);
    EXPECT_EQ(first, sim::kSecond);
    EXPECT_EQ(second, 2 * sim::kSecond);  // Waits for the first.
}

TEST(Link, CallbackFiresAtArrival)
{
    sim::Simulator s;
    Link link(s, 8e6, sim::from_millis(1.0));
    sim::Time seen = 0;
    link.transfer(500'000, [&] { seen = s.now(); });
    s.run();
    EXPECT_EQ(seen, sim::from_millis(501.0));
}

TEST(Link, CongestionGrowsLatency)
{
    sim::Simulator s;
    Link link(s, 8e6, 0);
    // Offered load 2x capacity: completion times diverge linearly.
    sim::Time last = 0;
    for (int i = 0; i < 10; ++i)
        last = link.transfer(2'000'000, nullptr);
    EXPECT_EQ(last, 20 * sim::kSecond);
}

TEST(RpcConfig, Presets)
{
    RpcConfig sw = RpcConfig::software_stack(2);
    RpcConfig hw = RpcConfig::fpga_offload(2);
    EXPECT_GT(sw.latency, hw.latency);
    EXPECT_LT(sw.throughput_rps, hw.throughput_rps);
    EXPECT_GT(sw.cpu_s_per_msg, 0.0);
    EXPECT_DOUBLE_EQ(hw.cpu_s_per_msg, 0.0);
    // Sec. 4.5: 12.4 Mrps per core, 2.1 us RTT -> 1.05 us per end.
    EXPECT_DOUBLE_EQ(hw.throughput_rps, 12'400'000.0);
    EXPECT_EQ(hw.latency, sim::from_micros(1.05));
}

TEST(RpcProcessor, ThroughputCap)
{
    sim::Simulator s;
    RpcProcessor p(s, RpcConfig::software_stack(1));
    // 600k rps -> 1000 messages take ~1.667 ms of service time.
    sim::Time last = 0;
    for (int i = 0; i < 1000; ++i)
        last = p.process(nullptr);
    EXPECT_GT(last, sim::from_micros(1600.0));
    EXPECT_EQ(p.messages(), 1000u);
    EXPECT_NEAR(p.cpu_seconds_used(), 1000.0 / 600'000.0, 1e-9);
}

TEST(RpcProcessor, MultiCoreParallelism)
{
    sim::Simulator s;
    RpcConfig cfg = RpcConfig::software_stack(4);
    RpcProcessor p(s, cfg);
    sim::Time t1 = p.process(nullptr);
    sim::Time t2 = p.process(nullptr);
    sim::Time t3 = p.process(nullptr);
    sim::Time t4 = p.process(nullptr);
    // Four cores: all four messages complete at the same time.
    EXPECT_EQ(t1, t2);
    EXPECT_EQ(t3, t4);
    EXPECT_EQ(t1, t4);
}

TEST(Topology, UplinkDeliversAndCounts)
{
    sim::Simulator s;
    TopologyConfig cfg;
    cfg.devices = 4;
    cfg.servers = 2;
    SwarmTopology topo(s, cfg);
    sim::Time delivered = 0;
    topo.send_uplink(0, 0, 1u << 20, [&](sim::Time t) { delivered = t; });
    s.run();
    EXPECT_GT(delivered, 0);
    EXPECT_EQ(topo.device_bytes(0), 1u << 20);
    EXPECT_EQ(topo.device_bytes(1), 0u);
    EXPECT_GT(topo.air_meter().total(), 0.0);
}

TEST(Topology, DownlinkAccountsDevice)
{
    sim::Simulator s;
    TopologyConfig cfg;
    cfg.devices = 2;
    cfg.servers = 1;
    SwarmTopology topo(s, cfg);
    bool done = false;
    topo.send_downlink(0, 1, 4096, [&](sim::Time) { done = true; });
    s.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(topo.device_bytes(1), 4096u);
}

TEST(Topology, WirelessSlowerThanLan)
{
    sim::Simulator s;
    TopologyConfig cfg;
    cfg.devices = 1;
    cfg.servers = 2;
    SwarmTopology topo(s, cfg);
    sim::Time up = 0, lan = 0;
    // The same payload to two servers: the full uplink, and its wired
    // half alone (router -> ToR -> NIC, no radio hop).
    topo.send_uplink(0, 0, 256 << 10, [&](sim::Time t) { up = t; });
    topo.send_uplink_wired(0, 1, 256 << 10, [&](sim::Time t) { lan = t; });
    s.run();
    EXPECT_GT(up, lan);
}

TEST(Topology, SharedRouterCongestion)
{
    sim::Simulator s;
    TopologyConfig cfg;
    cfg.devices = 16;
    cfg.routers = 2;
    cfg.servers = 12;
    SwarmTopology topo(s, cfg);
    // Every device pushes 4 MB at once: router backlog must form.
    std::vector<sim::Time> arrivals(16, 0);
    for (std::size_t d = 0; d < 16; ++d) {
        topo.send_uplink(d, d % 12, 4u << 20,
                         [&, d](sim::Time t) { arrivals[d] = t; });
    }
    s.run();
    sim::Time min_t = arrivals[0], max_t = arrivals[0];
    for (sim::Time t : arrivals) {
        min_t = std::min(min_t, t);
        max_t = std::max(max_t, t);
    }
    // Serialization on the shared medium spreads the arrivals.
    EXPECT_GT(max_t, min_t + sim::from_millis(50.0));
}

TEST(Topology, RpcOffloadFreesCloudCpu)
{
    sim::Simulator s1, s2;
    TopologyConfig sw;
    sw.devices = 2;
    sw.servers = 2;
    TopologyConfig hw = sw;
    hw.cloud_rpc_offload = true;
    SwarmTopology topo_sw(s1, sw);
    SwarmTopology topo_hw(s2, hw);
    for (int i = 0; i < 50; ++i) {
        topo_sw.send_uplink(0, 0, 1024, nullptr);
        topo_hw.send_uplink(0, 0, 1024, nullptr);
    }
    s1.run();
    s2.run();
    EXPECT_GT(topo_sw.cloud_rpc_cpu_seconds(), 0.0);
    EXPECT_DOUBLE_EQ(topo_hw.cloud_rpc_cpu_seconds(), 0.0);
}

TEST(Topology, WirelessLossRetransmits)
{
    sim::Simulator s;
    sim::Rng rng(77);
    TopologyConfig cfg;
    cfg.devices = 2;
    cfg.servers = 2;
    cfg.wireless_loss = 0.5;  // Extremely lossy link.
    SwarmTopology topo(s, cfg, &rng);
    int delivered = 0;
    for (int i = 0; i < 60; ++i) {
        topo.send_uplink(0, 0, 64 << 10,
                         [&](sim::Time) { ++delivered; });
    }
    s.run();
    EXPECT_EQ(delivered, 60);  // Everything eventually arrives.
    EXPECT_GT(topo.retransmissions(), 10u);
}

TEST(Topology, ExhaustedRetryBudgetDropsAndSignalsCaller)
{
    // A blackout (loss >= 1) burns every retry, then the frame must be
    // reported dropped — never silently delivered on the last attempt.
    sim::Simulator s;
    sim::Rng rng(7);
    TopologyConfig cfg;
    cfg.devices = 1;
    cfg.servers = 1;
    cfg.wireless_loss = 1.0;
    cfg.max_retransmits = 3;
    SwarmTopology topo(s, cfg, &rng);
    int callbacks = 0;
    sim::Time verdict = 0;
    topo.send_uplink(0, 0, 64 << 10, [&](sim::Time at) {
        ++callbacks;
        verdict = at;
    });
    s.run();
    EXPECT_EQ(callbacks, 1);
    EXPECT_EQ(verdict, kDropped);
    EXPECT_EQ(topo.frames_dropped(), 1u);
    EXPECT_EQ(topo.retransmissions(), 3u);
}

TEST(Topology, LossyFinalAttemptStillRollsTheDice)
{
    // Probabilistic loss with a tight budget: every frame must resolve
    // exactly once, as either a delivery or a counted drop.
    sim::Simulator s;
    sim::Rng rng(11);
    TopologyConfig cfg;
    cfg.devices = 1;
    cfg.servers = 1;
    cfg.wireless_loss = 0.9;
    cfg.max_retransmits = 1;
    SwarmTopology topo(s, cfg, &rng);
    const int frames = 50;
    int delivered = 0;
    int dropped = 0;
    for (int i = 0; i < frames; ++i) {
        topo.send_uplink(0, 0, 16 << 10, [&](sim::Time at) {
            at == kDropped ? ++dropped : ++delivered;
        });
    }
    s.run();
    EXPECT_EQ(delivered + dropped, frames);
    EXPECT_GT(dropped, 0);
    EXPECT_GT(delivered, 0);
    EXPECT_EQ(topo.frames_dropped(), static_cast<std::uint64_t>(dropped));
}

TEST(Topology, LossFreeByDefault)
{
    sim::Simulator s;
    sim::Rng rng(77);
    TopologyConfig cfg;
    cfg.devices = 1;
    cfg.servers = 1;
    SwarmTopology topo(s, cfg, &rng);
    topo.send_uplink(0, 0, 1 << 20, nullptr);
    s.run();
    EXPECT_EQ(topo.retransmissions(), 0u);
}

TEST(Topology, LossRaisesTailLatency)
{
    auto run_loss = [](double loss) {
        sim::Simulator s;
        sim::Rng rng(5);
        TopologyConfig cfg;
        cfg.devices = 2;
        cfg.servers = 2;
        cfg.wireless_loss = loss;
        SwarmTopology topo(s, cfg, &rng);
        sim::Summary lat;
        for (int i = 0; i < 100; ++i) {
            sim::Time t0 = s.now();
            bool done = false;
            topo.send_uplink(0, 0, 256 << 10, [&](sim::Time t) {
                lat.add(sim::to_seconds(t - t0));
                done = true;
            });
            s.run();
            EXPECT_TRUE(done);
        }
        return lat;
    };
    sim::Summary clean = run_loss(0.0);
    sim::Summary lossy = run_loss(0.10);
    EXPECT_GT(lossy.p99(), clean.p99() + 0.04);  // >= one 50 ms timeout.
    EXPECT_NEAR(lossy.median(), clean.median(), 0.01);
}

TEST(Topology, InfraScaleRaisesRouterCapacity)
{
    sim::Simulator s1, s2;
    TopologyConfig small;
    small.devices = 4;
    small.servers = 2;
    TopologyConfig scaled = small;
    scaled.infra_scale = 4.0;
    SwarmTopology a(s1, small);
    SwarmTopology b(s2, scaled);
    sim::Time ta = 0, tb = 0;
    // Large burst through the router: scaled infra finishes sooner.
    for (int i = 0; i < 8; ++i) {
        a.send_uplink(0, 0, 8u << 20, [&](sim::Time t) { ta = t; });
        b.send_uplink(0, 0, 8u << 20, [&](sim::Time t) { tb = t; });
    }
    s1.run();
    s2.run();
    EXPECT_GT(ta, 0);
    EXPECT_GT(tb, 0);
    EXPECT_LE(tb, ta);
}

TEST(Topology, FlowPoolRecyclesRecordsAcrossSerialTransfers)
{
    // Serial traffic: each flow retires before the next launches, so
    // the whole run reuses one pooled record from the first slab.
    sim::Simulator s;
    TopologyConfig cfg;
    cfg.devices = 4;
    cfg.servers = 2;
    SwarmTopology topo(s, cfg);
    for (int i = 0; i < 200; ++i) {
        bool done = false;
        topo.send_uplink(0, 0, 4096, [&](sim::Time) { done = true; });
        s.run();
        EXPECT_TRUE(done);
    }
    EXPECT_EQ(topo.flows().live(), 0u);
    EXPECT_EQ(topo.flows().slabs(), 1u);
    EXPECT_LE(topo.flows().high_water(), 2u);
}

TEST(Topology, FlowPoolHighWaterTracksABurst)
{
    // A burst of concurrent uplinks keeps that many records live at
    // once; every one of them must return to the freelist at the end.
    sim::Simulator s;
    TopologyConfig cfg;
    cfg.devices = 16;
    cfg.servers = 4;
    SwarmTopology topo(s, cfg);
    int done = 0;
    for (std::size_t d = 0; d < 16; ++d)
        topo.send_uplink(d, d % 4, 1u << 20, [&](sim::Time) { ++done; });
    s.run();
    EXPECT_EQ(done, 16);
    EXPECT_EQ(topo.flows().live(), 0u);
    EXPECT_GE(topo.flows().high_water(), 16u);
    EXPECT_EQ(topo.flows().slabs(), 1u);  // 16 < kSlabFlows.
}

}  // namespace
}  // namespace hivemind::net
