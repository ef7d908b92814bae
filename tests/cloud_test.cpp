/**
 * @file
 * Tests for the cloud substrate: servers, the CouchDB-model store,
 * data-sharing protocols, the FaaS runtime (with the HiveMind
 * scheduler's placement over it), and the IaaS pool (src/cloud).
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cloud/datastore.hpp"
#include "cloud/faas.hpp"
#include "cloud/iaas.hpp"
#include "cloud/server.hpp"
#include "cloud/sharing.hpp"
#include "core/scheduler.hpp"
#include "net/link.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace hivemind::cloud {
namespace {

TEST(Server, CoreAndMemoryAccounting)
{
    Server s(0, 4, 1024);
    EXPECT_TRUE(s.can_host(256));
    s.acquire_core();
    s.acquire_memory(256);
    EXPECT_EQ(s.busy_cores(), 1);
    EXPECT_EQ(s.free_cores(), 3);
    EXPECT_EQ(s.used_memory_mb(), 256u);
    EXPECT_DOUBLE_EQ(s.occupancy(), 0.25);
    s.release_core();
    s.release_memory(256);
    EXPECT_EQ(s.busy_cores(), 0);
    EXPECT_EQ(s.used_memory_mb(), 0u);
}

TEST(Server, CapacityLimits)
{
    Server s(0, 1, 512);
    s.acquire_core();
    EXPECT_FALSE(s.can_host(128));  // No core left.
    s.release_core();
    s.acquire_memory(512);
    EXPECT_FALSE(s.can_host(1));  // No memory left.
    EXPECT_TRUE(s.has_memory(0));
}

TEST(Server, ProbationExcludesFromHosting)
{
    Server s(0, 4, 1024);
    s.set_probation(true);
    EXPECT_FALSE(s.can_host(128));
    s.set_probation(false);
    EXPECT_TRUE(s.can_host(128));
}

TEST(Cluster, LeastLoadedPicksEmptiest)
{
    Cluster c(3, 4, 1024);
    c.server(0).acquire_core();
    c.server(0).acquire_core();
    c.server(1).acquire_core();
    auto pick = c.least_loaded(128);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(*pick, 2u);
    EXPECT_EQ(c.total_free_cores(), 9);
}

TEST(Cluster, LeastLoadedNulloptWhenFull)
{
    Cluster c(2, 1, 1024);
    c.server(0).acquire_core();
    c.server(1).acquire_core();
    EXPECT_FALSE(c.least_loaded(128).has_value());
}

/** The full scan the index replaced: minimum occupancy, lowest index. */
std::optional<std::size_t>
scan_least_loaded(const Cluster& c, std::uint64_t memory_mb)
{
    std::optional<std::size_t> best;
    double best_occ = 2.0;
    for (std::size_t i = 0; i < c.size(); ++i) {
        const Server& s = c.server(i);
        if (s.can_host(memory_mb) && s.occupancy() < best_occ) {
            best_occ = s.occupancy();
            best = i;
        }
    }
    return best;
}

std::size_t
scan_probation(const Cluster& c)
{
    std::size_t n = 0;
    for (const Server& s : c.servers())
        n += s.on_probation() ? 1 : 0;
    return n;
}

TEST(Cluster, LeastLoadedIndexMatchesScanUnderRandomChurn)
{
    for (std::size_t n : {1, 3, 64, 200}) {
        SCOPED_TRACE(n);
        Cluster c(n, 4, 1024);
        sim::Rng rng(n);
        for (int step = 0; step < 5000; ++step) {
            Server& s = c.server(rng.pick(n));
            switch (rng.pick(8)) {
            case 0:
            case 1:
                // May oversubscribe by one: the index must drop it.
                if (s.busy_cores() <= s.cores())
                    s.acquire_core();
                break;
            case 2:
                if (s.busy_cores() > 0)
                    s.release_core();
                break;
            case 3:  // Crash, as FaasRuntime::crash_server does it.
                s.set_down(true);
                s.bump_epoch();
                s.reset_occupancy();
                break;
            case 4:
                s.set_down(false);
                break;
            case 5:
                s.set_probation(!s.on_probation());
                break;
            case 6:
                if (s.has_memory(256))
                    s.acquire_memory(256);
                break;
            default:
                if (s.used_memory_mb() >= 256)
                    s.release_memory(256);
                break;
            }
            const std::uint64_t mb = 128 * (1 + rng.pick(8));
            ASSERT_EQ(c.least_loaded(mb), scan_least_loaded(c, mb))
                << "step " << step;
            ASSERT_EQ(c.probation_count(), scan_probation(c))
                << "step " << step;
        }
    }
}

TEST(Cluster, ProbationCountTracksProbationCrashAndRestore)
{
    Cluster c(4, 2, 1024);
    EXPECT_EQ(c.probation_count(), 0u);
    c.server(1).set_probation(true);
    c.server(3).set_probation(true);
    c.server(3).set_probation(true);  // Idempotent.
    EXPECT_EQ(c.probation_count(), 2u);
    // A crash and a restore leave probation (and the count) alone.
    c.server(1).set_down(true);
    c.server(1).reset_occupancy();
    EXPECT_EQ(c.probation_count(), 2u);
    c.server(1).set_down(false);
    EXPECT_EQ(c.probation_count(), 2u);
    c.server(1).set_probation(false);
    EXPECT_EQ(c.probation_count(), 1u);
    // Benched and crashed servers are skipped; the count is unaffected.
    c.server(0).set_down(true);
    EXPECT_EQ(c.least_loaded(128), std::optional<std::size_t>(1));
    EXPECT_EQ(c.probation_count(), 1u);
}

TEST(DataStore, BaseLatency)
{
    sim::Simulator s;
    sim::Rng rng(1);
    DataStoreConfig cfg;
    cfg.jitter_sigma = 0.0;  // Deterministic for the assertion.
    DataStore store(s, rng, cfg);
    sim::Time done = 0;
    store.access(0, [&] { done = s.now(); });
    s.run();
    // handle_lookup + base_latency = 3 + 10 ms.
    EXPECT_EQ(done, sim::from_millis(13.0));
}

TEST(DataStore, SizeDependentTransfer)
{
    sim::Simulator s;
    sim::Rng rng(1);
    DataStoreConfig cfg;
    cfg.jitter_sigma = 0.0;
    DataStore store(s, rng, cfg);
    sim::Time small = 0, large = 0;
    store.access(1024, [&] { small = s.now(); });
    s.run();
    sim::Simulator s2;
    DataStore store2(s2, rng, cfg);
    store2.access(100u << 20, [&] { large = s2.now(); });
    s2.run();
    EXPECT_GT(large, small + sim::from_millis(300.0));
}

TEST(DataStore, ContentionQueues)
{
    sim::Simulator s;
    sim::Rng rng(1);
    DataStoreConfig cfg;
    cfg.handlers = 2;
    cfg.jitter_sigma = 0.0;
    DataStore store(s, rng, cfg);
    sim::Time last = 0;
    for (int i = 0; i < 10; ++i)
        store.access(0, [&] { last = s.now(); });
    s.run();
    // 10 requests over 2 handlers at 10 ms -> ~5 rounds of service.
    EXPECT_GE(last, sim::from_millis(3.0 + 5 * 10.0 - 0.01));
    EXPECT_EQ(store.requests(), 10u);
}

TEST(Sharing, ProtocolOrdering)
{
    // Fig. 6c: CouchDB > direct RPC > in-memory, and the FPGA remote
    // memory fabric sits near in-memory.
    sim::Simulator s;
    sim::Rng rng(2);
    DataStoreConfig dcfg;
    DataStore store(s, rng, dcfg);
    DataSharingFabric fabric(s, rng, store);
    const std::uint64_t bytes = 256 << 10;
    // Hand-off latency per protocol, from the share() call to its
    // completion callback.
    sim::Summary latency[4];
    auto timed_share = [&](SharingProtocol p) {
        sim::Summary* out = &latency[static_cast<int>(p)];
        const sim::Time start = s.now();
        fabric.share(p, bytes, [out, &s, start] {
            out->add(sim::to_seconds(s.now() - start));
        });
    };
    for (int i = 0; i < 40; ++i) {
        timed_share(SharingProtocol::CouchDb);
        timed_share(SharingProtocol::DirectRpc);
        timed_share(SharingProtocol::InMemory);
        timed_share(SharingProtocol::RemoteMemory);
        s.run();
    }
    for (const sim::Summary& l : latency)
        EXPECT_EQ(l.count(), 40u);
    double couch = latency[static_cast<int>(SharingProtocol::CouchDb)].mean();
    double rpc = latency[static_cast<int>(SharingProtocol::DirectRpc)].mean();
    double mem = latency[static_cast<int>(SharingProtocol::InMemory)].mean();
    double rdma =
        latency[static_cast<int>(SharingProtocol::RemoteMemory)].mean();
    EXPECT_GT(couch, rpc);
    EXPECT_GT(rpc, mem);
    EXPECT_GT(rpc, rdma);
    EXPECT_LT(rdma, 10.0 * mem + 1e-4);
}

TEST(Sharing, ToStringNames)
{
    EXPECT_STREQ(to_string(SharingProtocol::CouchDb), "CouchDB");
    EXPECT_STREQ(to_string(SharingProtocol::RemoteMemory), "RemoteMem");
}

class FaasFixture : public ::testing::Test
{
  protected:
    FaasFixture()
        : rng_(99),
          cluster_(4, 8, 32 * 1024),
          store_(simulator_, rng_, DataStoreConfig{})
    {
    }

    FaasRuntime
    make(FaasConfig cfg)
    {
        return FaasRuntime(simulator_, rng_, cluster_, store_, cfg);
    }

    sim::Simulator simulator_;
    sim::Rng rng_;
    Cluster cluster_;
    DataStore store_;
};

TEST_F(FaasFixture, TraceIsMonotone)
{
    FaasRuntime rt = make(FaasConfig{});
    InvokeRequest req;
    req.app = rt.intern("a");
    req.work_core_ms = 50.0;
    req.input_bytes = 64 << 10;
    req.output_bytes = 16 << 10;
    InvocationTrace trace;
    bool done = false;
    rt.invoke(req, [&](const InvocationTrace& t) {
        trace = t;
        done = true;
    });
    simulator_.run();
    ASSERT_TRUE(done);
    EXPECT_LE(trace.submit, trace.scheduled);
    EXPECT_LE(trace.scheduled, trace.container_ready);
    EXPECT_LE(trace.container_ready, trace.input_ready);
    EXPECT_LE(trace.input_ready, trace.exec_done);
    EXPECT_LE(trace.exec_done, trace.done);
    EXPECT_TRUE(trace.cold_start);
    EXPECT_GT(trace.instantiation_s(), 0.05);  // Cold start dominates.
    EXPECT_GT(trace.exec_s(), 0.0);
    EXPECT_NEAR(trace.total_s(),
                trace.mgmt_s() + trace.instantiation_s() + trace.data_s() +
                    trace.exec_s(),
                1e-9);
}

TEST_F(FaasFixture, WarmReuseWithinKeepalive)
{
    FaasConfig cfg;
    cfg.keepalive = 5 * sim::kSecond;
    FaasRuntime rt = make(cfg);
    InvokeRequest req;
    req.app = rt.intern("a");
    req.work_core_ms = 10.0;
    bool second_cold = true;
    rt.invoke(req, [&](const InvocationTrace&) {
        simulator_.schedule_in(sim::kSecond, [&]() {
            rt.invoke(req, [&](const InvocationTrace& t2) {
                second_cold = t2.cold_start;
            });
        });
    });
    simulator_.run();
    EXPECT_FALSE(second_cold);
    EXPECT_EQ(rt.cold_starts(), 1u);
    EXPECT_EQ(rt.warm_starts(), 1u);
}

TEST_F(FaasFixture, KeepaliveExpiryForcesColdStart)
{
    FaasConfig cfg;
    cfg.keepalive = sim::from_millis(200.0);
    FaasRuntime rt = make(cfg);
    InvokeRequest req;
    req.app = rt.intern("a");
    req.work_core_ms = 10.0;
    bool second_cold = false;
    rt.invoke(req, [&](const InvocationTrace&) {
        simulator_.schedule_in(10 * sim::kSecond, [&]() {
            rt.invoke(req, [&](const InvocationTrace& t2) {
                second_cold = t2.cold_start;
            });
        });
    });
    simulator_.run();
    EXPECT_TRUE(second_cold);
    EXPECT_EQ(rt.cold_starts(), 2u);
}

TEST_F(FaasFixture, WarmContainersArelPerApp)
{
    FaasConfig cfg;
    cfg.keepalive = 20 * sim::kSecond;
    FaasRuntime rt = make(cfg);
    InvokeRequest a;
    a.app = rt.intern("a");
    a.work_core_ms = 5.0;
    InvokeRequest b;
    b.app = rt.intern("b");
    b.work_core_ms = 5.0;
    bool b_cold = false;
    rt.invoke(a, [&](const InvocationTrace&) {
        simulator_.schedule_in(sim::kSecond, [&]() {
            rt.invoke(b, [&](const InvocationTrace& t) {
                b_cold = t.cold_start;
            });
        });
    });
    simulator_.run();
    EXPECT_TRUE(b_cold);  // "a"'s container cannot serve "b".
}

TEST_F(FaasFixture, FaultsRespawnAndComplete)
{
    FaasConfig cfg;
    cfg.fault_prob = 0.5;
    FaasRuntime rt = make(cfg);
    int completions = 0;
    int attempts_total = 0;
    InvokeRequest req;
    req.app = rt.intern("a");
    req.work_core_ms = 20.0;
    for (int i = 0; i < 40; ++i) {
        rt.invoke(req, [&](const InvocationTrace& t) {
            ++completions;
            attempts_total += t.attempts;
        });
    }
    simulator_.run();
    EXPECT_EQ(completions, 40);      // Every task eventually completes.
    EXPECT_GT(rt.faults(), 5u);      // Faults actually happened.
    EXPECT_GT(attempts_total, 40);   // Respawns recorded.
}

TEST_F(FaasFixture, ConcurrencyLimitQueues)
{
    FaasConfig cfg;
    cfg.max_concurrency = 4;
    FaasRuntime rt = make(cfg);
    int completions = 0;
    InvokeRequest req;
    req.app = rt.intern("a");
    req.work_core_ms = 100.0;
    for (int i = 0; i < 20; ++i)
        rt.invoke(req, [&](const InvocationTrace&) { ++completions; });
    simulator_.run();
    EXPECT_EQ(completions, 20);
}

TEST_F(FaasFixture, CoresNeverOversubscribed)
{
    FaasConfig cfg;
    FaasRuntime rt = make(cfg);
    InvokeRequest req;
    req.app = rt.intern("a");
    req.work_core_ms = 200.0;
    // 4 servers x 8 cores = 32 cores; offer 100 tasks.
    int completions = 0;
    for (int i = 0; i < 100; ++i)
        rt.invoke(req, [&](const InvocationTrace&) { ++completions; });
    bool ok = true;
    for (int t = 1; t <= 50; ++t) {
        simulator_.schedule_in(t * sim::from_millis(20.0), [&]() {
            for (const Server& s : cluster_.servers()) {
                if (s.busy_cores() > s.cores())
                    ok = false;
            }
        });
    }
    simulator_.run();
    EXPECT_TRUE(ok);
    EXPECT_EQ(completions, 100);
    EXPECT_EQ(cluster_.total_free_cores(), 32);
}

TEST_F(FaasFixture, PlacementPolicyOverride)
{
    FaasRuntime rt = make(FaasConfig{});
    rt.set_placement_policy(
        [](const InvokeRequest&, const Cluster&,
           std::optional<std::size_t>) -> std::optional<std::size_t> {
            return 3;
        });
    InvokeRequest req;
    req.app = rt.intern("a");
    req.work_core_ms = 5.0;
    std::size_t server = kNoServer;
    rt.invoke(req, [&](const InvocationTrace& t) { server = t.server; });
    simulator_.run();
    EXPECT_EQ(server, 3u);
}

TEST_F(FaasFixture, ParallelFanoutFasterForLargeWork)
{
    FaasConfig cfg;
    cfg.straggler_prob = 0.0;
    FaasRuntime rt = make(cfg);
    InvokeRequest req;
    req.app = rt.intern("big");
    req.work_core_ms = 2000.0;
    double serial_s = 0.0, parallel_s = 0.0;
    rt.invoke(req, [&](const InvocationTrace& t) { serial_s = t.total_s(); });
    simulator_.run();
    rt.invoke_parallel(req, 8, [&](const InvocationTrace& t) {
        parallel_s = t.total_s();
    });
    simulator_.run();
    EXPECT_GT(serial_s, 0.0);
    EXPECT_GT(parallel_s, 0.0);
    EXPECT_LT(parallel_s, serial_s * 0.55);
}

TEST_F(FaasFixture, ActiveCountTracksLoad)
{
    FaasRuntime rt = make(FaasConfig{});
    InvokeRequest req;
    req.app = rt.intern("a");
    req.work_core_ms = 50.0;
    for (int i = 0; i < 5; ++i)
        rt.invoke(req, nullptr);
    EXPECT_EQ(rt.active(), 5);
    simulator_.run();
    EXPECT_EQ(rt.active(), 0);
    EXPECT_EQ(rt.completed(), 5u);
}

TEST(Iaas, NoInstantiationFastPath)
{
    sim::Simulator s;
    sim::Rng rng(4);
    IaasConfig cfg;
    cfg.workers = 2;
    IaasPool pool(s, rng, cfg);
    IaasTrace trace;
    pool.submit(50.0, [&](const IaasTrace& t) { trace = t; });
    s.run();
    // LB service (1/800 s) + dispatch hop only; no instantiation.
    EXPECT_NEAR(trace.queue_s(), 0.0008 + 1.0 / 800.0, 1e-4);
    EXPECT_GT(trace.total_s(), 0.04);
}

TEST(Iaas, SaturationQueues)
{
    sim::Simulator s;
    sim::Rng rng(4);
    IaasConfig cfg;
    cfg.workers = 2;
    cfg.interference_sigma = 0.0;
    cfg.straggler_prob = 0.0;
    IaasPool pool(s, rng, cfg);
    sim::Summary waits;
    for (int i = 0; i < 20; ++i) {
        pool.submit(100.0,
                    [&](const IaasTrace& t) { waits.add(t.queue_s()); });
    }
    s.run();
    EXPECT_EQ(pool.completed(), 20u);
    // 20 tasks, 2 workers, 100 ms each: the last waits ~900 ms.
    EXPECT_GT(waits.max(), 0.5);
    EXPECT_EQ(pool.active(), 0);
}

TEST_F(FaasFixture, WarmParkingDeclinesUnderMemoryPressure)
{
    // Tiny-memory servers: after completion there is no headroom to
    // keep the idle container resident, so the next start is cold.
    sim::Simulator s;
    sim::Rng rng(7);
    Cluster tight(1, 4, 300);  // 300 MB total.
    DataStore store(s, rng, DataStoreConfig{});
    FaasConfig cfg;
    cfg.keepalive = 30 * sim::kSecond;
    FaasRuntime rt(s, rng, tight, store, cfg);
    InvokeRequest req;
    req.app = rt.intern("fat");
    req.memory_mb = 256;
    req.work_core_ms = 10.0;
    bool second_cold = false;
    rt.invoke(req, [&](const InvocationTrace&) {
        s.schedule_in(sim::kSecond, [&]() {
            // A second app occupies the memory the parked container
            // would have needed.
            InvokeRequest other;
            other.app = rt.intern("other");
            other.memory_mb = 256;
            other.work_core_ms = 5.0;
            rt.invoke(other, [&](const InvocationTrace& t2) {
                second_cold = t2.cold_start;
            });
        });
    });
    s.run();
    // The fat container could not stay warm (only 300 - 256 < 256 MB
    // headroom), so "other" cold-starts but can be placed.
    EXPECT_TRUE(second_cold);
    EXPECT_EQ(tight.server(0).used_memory_mb(), 0u);
}

TEST_F(FaasFixture, WarmClaimFollowsFreeCoreToAnotherServer)
{
    FaasConfig cfg;
    cfg.keepalive = 30 * sim::kSecond;
    FaasRuntime rt = make(cfg);
    InvokeRequest req;
    req.app = rt.intern("a");
    req.work_core_ms = 5.0;
    // Warm a container on some server, then saturate that server's
    // cores and warm another elsewhere; the claim must follow.
    std::size_t first_server = kNoServer;
    rt.invoke(req, [&](const InvocationTrace& t) {
        first_server = t.server;
    });
    simulator_.run();
    ASSERT_NE(first_server, kNoServer);
    for (int i = 0; i < 8; ++i)
        cluster_.server(first_server).acquire_core();
    bool warm = false;
    std::size_t second_server = kNoServer;
    req.preferred_server = first_server;
    rt.invoke(req, [&](const InvocationTrace& t) {
        warm = !t.cold_start;
        second_server = t.server;
    });
    simulator_.run();
    // No core on the warm server: the invocation runs elsewhere
    // (cold) rather than deadlocking.
    EXPECT_NE(second_server, first_server);
    EXPECT_FALSE(warm);
}

/**
 * A 4-server FaaS world for warm-pool tests. Its placement policy runs
 * a request on its hint when the hint can host it, else on the warm
 * server peek_warm reports (usable or not, so claim_warm's own skip
 * rules decide), else on the least-loaded server.
 */
struct WarmWorld
{
    explicit WarmWorld(sim::Time keepalive)
        : rt(simulator, rng, cluster, store, config(keepalive))
    {
        rt.set_placement_policy([](const InvokeRequest& r, const Cluster& c,
                                   std::optional<std::size_t> warm) {
            if (r.preferred_server != kNoServer &&
                c.server(r.preferred_server).can_host(r.memory_mb))
                return std::optional<std::size_t>(r.preferred_server);
            return warm ? warm : c.least_loaded(r.memory_mb);
        });
    }

    static FaasConfig
    config(sim::Time keepalive)
    {
        FaasConfig cfg;
        cfg.keepalive = keepalive;
        return cfg;
    }

    /**
     * Submit @p n concurrent invocations of @p app (hinted at @p hint)
     * at @p second and run the world for one more second.
     */
    std::vector<InvocationTrace>
    run(int second, const std::string& app, std::size_t hint = kNoServer,
        int n = 1)
    {
        std::vector<InvocationTrace> traces;
        InvokeRequest req;
        req.app = rt.intern(app);
        req.work_core_ms = 5.0;
        req.preferred_server = hint;
        simulator.schedule_at(second * sim::kSecond, [&, req, n]() {
            for (int i = 0; i < n; ++i) {
                rt.invoke(req, [&traces](const InvocationTrace& t) {
                    traces.push_back(t);
                });
            }
        });
        simulator.run_until((second + 1) * sim::kSecond);
        EXPECT_EQ(traces.size(), static_cast<std::size_t>(n));
        return traces;
    }

    /** One invocation; its trace. */
    InvocationTrace
    one(int second, const std::string& app, std::size_t hint = kNoServer)
    {
        std::vector<InvocationTrace> t = run(second, app, hint);
        return t.empty() ? InvocationTrace{} : t.front();
    }

    sim::Simulator simulator;
    sim::Rng rng{99};
    Cluster cluster{4, 8, 32 * 1024};
    DataStore store{simulator, rng, DataStoreConfig{}};
    FaasRuntime rt;
};

TEST(WarmPool, NewestContainerWins)
{
    WarmWorld w(30 * sim::kSecond);
    EXPECT_TRUE(w.one(0, "a", 2).cold_start);
    EXPECT_TRUE(w.one(1, "a", 0).cold_start);
    EXPECT_TRUE(w.one(2, "a", 3).cold_start);
    InvocationTrace t = w.one(3, "a");
    EXPECT_FALSE(t.cold_start);
    EXPECT_EQ(t.server, 3u);  // Parked last.
}

TEST(WarmPool, PreferredServerWins)
{
    WarmWorld w(30 * sim::kSecond);
    w.one(0, "a", 2);
    w.one(1, "a", 0);
    w.one(2, "a", 3);
    InvocationTrace t = w.one(3, "a", 2);
    EXPECT_FALSE(t.cold_start);
    EXPECT_EQ(t.server, 2u);
}

TEST(WarmPool, ClaimSkipsFullBenchedAndDownServers)
{
    // Containers parked on 2, then 0, then 3; server 3 (and then 0)
    // cannot take one, so the claim falls to the newest usable one.
    const std::vector<std::pair<const char*, void (*)(Server&)>> blocks = {
        {"full",
         [](Server& s) {
             while (s.free_cores() > 0)
                 s.acquire_core();
         }},
        {"probation", [](Server& s) { s.set_probation(true); }},
        {"down", [](Server& s) { s.set_down(true); }},
    };
    for (const auto& [name, block] : blocks) {
        SCOPED_TRACE(name);
        WarmWorld w(30 * sim::kSecond);
        w.one(0, "a", 2);
        w.one(1, "a", 0);
        w.one(2, "a", 3);
        block(w.cluster.server(3));
        InvocationTrace t = w.one(3, "a");
        EXPECT_FALSE(t.cold_start);
        EXPECT_EQ(t.server, 0u);
        block(w.cluster.server(0));
        t = w.one(4, "a");
        EXPECT_FALSE(t.cold_start);
        EXPECT_EQ(t.server, 2u);
    }
}

TEST(WarmPool, ExpiryRemovesItsOwnEntry)
{
    // Two containers parked on server 1 just after 0 s; one is reused
    // at 5 s and parked again. Each keep-alive expiry must remove its
    // own entry: the untouched one by 12 s, the re-parked one by 16 s.
    // An expiry that removed another entry would strand one for good.
    WarmWorld w(10 * sim::kSecond);
    w.run(0, "a", 1, 2);
    EXPECT_EQ(w.cluster.server(1).used_memory_mb(), 512u);
    EXPECT_FALSE(w.one(5, "a", 1).cold_start);
    w.simulator.run_until(12 * sim::kSecond);
    EXPECT_EQ(w.cluster.server(1).used_memory_mb(), 256u);
    w.simulator.run_until(16 * sim::kSecond);
    EXPECT_EQ(w.cluster.server(1).used_memory_mb(), 0u);
    EXPECT_TRUE(w.one(16, "a", 1).cold_start);
}

TEST(WarmPool, CrashEmptiesTheServerForEveryApp)
{
    WarmWorld w(30 * sim::kSecond);
    w.one(0, "a", 2);
    w.one(1, "a", 1);
    w.one(2, "b", 1);
    w.rt.crash_server(1);
    EXPECT_EQ(w.cluster.server(1).used_memory_mb(), 0u);
    w.rt.restore_server(1);
    EXPECT_TRUE(w.one(3, "b", 1).cold_start);  // "b"'s only container died.
    InvocationTrace a = w.one(4, "a");
    EXPECT_FALSE(a.cold_start);
    EXPECT_EQ(a.server, 2u);  // The newest survivor.
}

TEST(WarmPool, AppsKeepSeparateMruPools)
{
    WarmWorld w(30 * sim::kSecond);
    w.one(0, "a", 2);
    w.one(1, "b", 0);
    w.one(2, "a", 1);
    w.one(3, "b", 3);
    // Each app reuses its own newest container, never the other's.
    InvocationTrace a = w.one(4, "a");
    EXPECT_FALSE(a.cold_start);
    EXPECT_EQ(a.server, 1u);
    InvocationTrace b = w.one(5, "b");
    EXPECT_FALSE(b.cold_start);
    EXPECT_EQ(b.server, 3u);
    // "b" took its newest back; "a"'s pool still leads with server 1.
    a = w.one(6, "a");
    EXPECT_FALSE(a.cold_start);
    EXPECT_EQ(a.server, 1u);
    EXPECT_TRUE(w.one(7, "c").cold_start);  // No pool of its own.
}

TEST(FaasCrash, RedrivesTwoAppsWithPinnedTraces)
{
    // Server 1 runs six long invocations of apps "a" and "b" and holds
    // parked containers of both when it crashes. The parked ones die,
    // the running ones are re-driven through their Restore policies
    // and land on the survivors, claiming each app's own warm
    // containers there; every trace field is pinned.
    WarmWorld w(30 * sim::kSecond);
    std::vector<InvocationTrace> traces;
    const FaultRecovery policies[] = {FaultRecovery::Respawn,
                                      FaultRecovery::Checkpoint,
                                      FaultRecovery::None};
    for (int i = 0; i < 6; ++i) {
        InvokeRequest req;
        req.app = w.rt.intern(i % 2 == 0 ? "a" : "b");
        req.work_core_ms = 20000.0;
        req.preferred_server = 1;
        req.recovery = policies[i % 3];
        w.rt.invoke(req, [&traces](const InvocationTrace& t) {
            traces.push_back(t);
        });
    }
    w.run(1, "a", 1, 2);
    w.run(2, "b", 1, 2);
    w.one(3, "a", 2);
    w.one(4, "b", 0);
    EXPECT_EQ(w.cluster.server(1).used_memory_mb(), 6u * 256u + 4u * 256u);
    w.rt.crash_server(1);
    w.simulator.run();
    ASSERT_EQ(traces.size(), 6u);
    std::uint64_t digest = 1469598103934665603ull;
    auto mix = [&digest](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            digest ^= (v >> (i * 8)) & 0xff;
            digest *= 1099511628211ull;
        }
    };
    for (const InvocationTrace& t : traces) {
        for (sim::Time x : {t.submit, t.scheduled, t.container_ready,
                            t.input_ready, t.exec_done, t.done})
            mix(static_cast<std::uint64_t>(x));
        mix(t.server);
        mix(static_cast<std::uint64_t>(t.attempts));
        mix((t.cold_start ? 1u : 0u) | (t.lost ? 2u : 0u));
    }
    EXPECT_EQ(w.rt.killed_invocations(), 6u);
    EXPECT_EQ(w.rt.lost(), 2u);
    EXPECT_EQ(w.rt.warm_starts(), 2u);  // One re-drive per app's pool.
    EXPECT_EQ(digest, 7380984674381881608ull);
}

TEST(FaasCrash, LostBodiesReportInBodyStartOrder)
{
    // Five Restore-None invocations on one server, all executing when
    // the server crashes. Cold starts draw different latencies, so the
    // bodies start in an order of their own; the crash must re-drive
    // (here: lose) them in that order, the same order at every run.
    sim::Simulator simulator;
    sim::Rng rng(21);
    Cluster cluster(1, 8, 32 * 1024);
    DataStore store(simulator, rng, DataStoreConfig{});
    FaasRuntime rt(simulator, rng, cluster, store, FaasConfig{});
    InvokeRequest req;
    req.app = rt.intern("victim");
    req.work_core_ms = 20000.0;
    req.recovery = FaultRecovery::None;
    std::vector<InvocationTrace> lost;
    for (int i = 0; i < 5; ++i) {
        rt.invoke(req, [&](const InvocationTrace& t) { lost.push_back(t); });
    }
    simulator.run_until(3 * sim::kSecond);
    ASSERT_EQ(rt.active(), 5);
    EXPECT_TRUE(lost.empty());
    rt.crash_server(0);
    ASSERT_EQ(lost.size(), 5u);
    for (std::size_t i = 0; i < lost.size(); ++i) {
        EXPECT_TRUE(lost[i].lost);
        if (i > 0) {
            EXPECT_GE(lost[i].input_ready, lost[i - 1].input_ready) << i;
        }
    }
    EXPECT_EQ(rt.killed_invocations(), 5u);
}

TEST(FaasPlacement, CoLocationHintSkipsACrashedServer)
{
    // Twenty children hinted at their parent's server, which has
    // crashed for good. The hint must not strand them: under the stock
    // policy and under HiveMind's co-location-first placement alike,
    // every child runs elsewhere.
    for (bool hivemind : {false, true}) {
        SCOPED_TRACE(hivemind ? "HiveMind scheduler" : "stock policy");
        sim::Simulator simulator;
        sim::Rng rng(99);
        Cluster cluster(4, 8, 32 * 1024);
        DataStore store(simulator, rng, DataStoreConfig{});
        FaasRuntime rt(simulator, rng, cluster, store, FaasConfig{});
        std::unique_ptr<core::HiveMindScheduler> scheduler;
        if (hivemind) {
            scheduler = std::make_unique<core::HiveMindScheduler>(
                simulator, rng, rt, core::SchedulerConfig{});
            scheduler->install();
        }
        rt.crash_server(1);  // Never restored.
        InvokeRequest req;
        req.app = rt.intern("child");
        req.work_core_ms = 10.0;
        req.preferred_server = 1;
        int completed = 0;
        for (int i = 0; i < 20; ++i) {
            rt.invoke(req, [&](const InvocationTrace& t) {
                EXPECT_NE(t.server, 1u);
                ++completed;
            });
        }
        simulator.run_until(120 * sim::kSecond);
        EXPECT_EQ(completed, 20);
    }
}

/** Property: interference grows with server occupancy. */
class InterferenceProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(InterferenceProperty, BusyClusterIsMoreVariable)
{
    sim::Simulator s;
    sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
    Cluster idle_cluster(2, 32, 64 * 1024);
    Cluster busy_cluster(2, 32, 64 * 1024);
    DataStore store(s, rng, DataStoreConfig{});
    FaasConfig cfg;
    cfg.straggler_prob = 0.0;
    FaasRuntime idle_rt(s, rng, idle_cluster, store, cfg);
    FaasRuntime busy_rt(s, rng, busy_cluster, store, cfg);
    // Pre-occupy the busy cluster.
    for (int i = 0; i < 28; ++i) {
        busy_cluster.server(0).acquire_core();
        busy_cluster.server(1).acquire_core();
    }
    sim::Summary idle_lat, busy_lat;
    InvokeRequest req;
    req.app = idle_rt.intern("x");
    ASSERT_TRUE(busy_rt.intern("x") == req.app);  // Both fresh runtimes.
    req.work_core_ms = 100.0;
    for (int i = 0; i < 60; ++i) {
        idle_rt.invoke(req, [&](const InvocationTrace& t) {
            idle_lat.add(t.exec_s());
        });
        busy_rt.invoke(req, [&](const InvocationTrace& t) {
            busy_lat.add(t.exec_s());
        });
        s.run();
    }
    double idle_spread = idle_lat.p99() / idle_lat.median();
    double busy_spread = busy_lat.p99() / busy_lat.median();
    EXPECT_GT(busy_spread, idle_spread * 0.9);
    EXPECT_GT(busy_lat.stddev(), idle_lat.stddev() * 0.9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterferenceProperty,
                         ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace hivemind::cloud
