/**
 * @file
 * Extension — fault-recovery policies (DSL Restore, Listing 2).
 *
 * Compares None (lost work), Respawn (OpenWhisk's default restart
 * from scratch), and Checkpoint (resume from the last checkpoint)
 * under increasing function-failure rates. Controller failover is
 * abl_controller_ha's subject.
 */

#include <memory>

#include "bench_util.hpp"

using namespace hivemind;
using namespace hivemind::bench;

namespace {

struct Result
{
    sim::Summary latency;
    std::uint64_t lost = 0;
    std::uint64_t faults = 0;
};

Result
run_policy(cloud::FaultRecovery policy, double fault_prob)
{
    sim::Simulator simulator;
    sim::Rng rng(17);
    cloud::Cluster cluster(12, 40, platform::kServerMemoryMb);
    cloud::DataStore store(simulator, rng, cloud::DataStoreConfig{});
    cloud::FaasConfig cfg;
    cfg.fault_prob = fault_prob;
    cloud::FaasRuntime rt(simulator, rng, cluster, store, cfg);
    const cloud::AppId app_id = rt.intern("S1");
    Result out;
    cloud::InvokeRequest req;
    req.app = app_id;
    req.work_core_ms = 350.0;
    req.recovery = policy;
    auto grng = std::make_shared<sim::Rng>(rng.fork());
    sim::recurring(simulator, 0, [&, grng](const sim::Recur& self) {
        if (simulator.now() >= 60 * sim::kSecond)
            return;
        rt.invoke(req, [&](const cloud::InvocationTrace& t) {
            if (!t.lost)
                out.latency.add(t.total_s());
        });
        self.again_in(sim::from_seconds(grng->exponential(1.0 / 8.0)));
    });
    simulator.run();
    out.lost = rt.lost();
    out.faults = rt.faults();
    return out;
}

}  // namespace

int
main()
{
    print_header("Ablation: fault recovery",
                 "S1 under function failures: Restore policy comparison");
    std::printf("%-12s %-12s %10s %10s %10s %10s\n", "fault rate",
                "policy", "p50 (ms)", "p99 (ms)", "lost", "faults");
    struct Cell
    {
        const char* name;
        cloud::FaultRecovery policy;
        double rate;
    };
    std::vector<Cell> cells;
    for (double rate : {0.1, 0.3, 0.5}) {
        for (auto [name, policy] :
             {std::pair{"None", cloud::FaultRecovery::None},
              std::pair{"Respawn", cloud::FaultRecovery::Respawn},
              std::pair{"Checkpoint", cloud::FaultRecovery::Checkpoint}}) {
            cells.push_back({name, policy, rate});
        }
    }
    // Every (rate, policy) cell is an independent simulation: run the
    // grid on the run_sweep() pool, print in point order.
    std::vector<Result> grid = run_sweep(cells, [](const Cell& c) {
        return run_policy(c.policy, c.rate);
    });
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Result& r = grid[i];
        char rl[16];
        std::snprintf(rl, sizeof(rl), "%.0f%%", cells[i].rate * 100.0);
        std::printf("%-12s %-12s %10.0f %10.0f %10llu %10llu\n", rl,
                    cells[i].name, 1000.0 * r.latency.median(),
                    1000.0 * r.latency.p99(),
                    static_cast<unsigned long long>(r.lost),
                    static_cast<unsigned long long>(r.faults));
    }

    std::printf("\n(Checkpoint keeps tail latency near Respawn's median "
                "even at 50%% fault rates.)\n");
    return 0;
}
