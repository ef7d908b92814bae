/**
 * @file
 * Fig. 5c — Number of active serverless tasks over time while a
 * fraction of functions fail mid-run (0/5/10/20%), under the same
 * fluctuating load as Fig. 5b.
 *
 * Paper anchor: "Even for 20% failed tasks, OpenWhisk is able to hide
 * the increased workload, by quickly respawning tasks on new cores."
 *
 * A second section widens the lens from function failures to the four
 * failure domains of the full stack — device, link, server, and swarm
 * controller — each injected mid-scenario on HiveMind, with the
 * detection/recovery ledger each domain's machinery reports.
 */

#include <memory>

#include "apps/workload.hpp"
#include "bench_util.hpp"

using namespace hivemind;
using namespace hivemind::bench;

namespace {

constexpr sim::Time kDuration = 200 * sim::kSecond;
constexpr sim::Time kWindow = 10 * sim::kSecond;

struct SeriesResult
{
    std::vector<double> active;
    std::uint64_t completed = 0;
    std::uint64_t faults = 0;
};

SeriesResult
run_with_faults(double fault_prob)
{
    const apps::AppSpec& app = apps::app_by_id("S1");
    apps::LoadPattern pattern =
        apps::LoadPattern::fluctuating(4.0, 60.0, kDuration);
    sim::Simulator simulator;
    sim::Rng rng(9);
    cloud::Cluster cluster(12, 40, platform::kServerMemoryMb);
    cloud::DataStore store(simulator, rng, cloud::DataStoreConfig{});
    cloud::FaasConfig cfg;
    cfg.fault_prob = fault_prob;
    cloud::FaasRuntime rt(simulator, rng, cluster, store, cfg);
    const cloud::AppId app_id = rt.intern(app.id);
    // Sample the active count wherever it changes: right after each
    // submission and in each completion callback.
    sim::TimeSeries active;
    auto sample_active = [&] {
        active.add(simulator.now(), static_cast<double>(rt.active()));
    };
    auto grng = std::make_shared<sim::Rng>(rng.fork());
    sim::recurring(simulator, 0, [&, grng](const sim::Recur& self) {
        if (simulator.now() >= kDuration)
            return;
        cloud::InvokeRequest req;
        req.app = app_id;
        req.work_core_ms = app.work_core_ms;
        req.memory_mb = app.memory_mb;
        rt.invoke(req, [&sample_active](const cloud::InvocationTrace&) {
            sample_active();
        });
        sample_active();
        double rate = std::max(pattern.rate_at(simulator.now()), 0.2);
        self.again_in(sim::from_seconds(grng->exponential(1.0 / rate)));
    });
    simulator.run();
    SeriesResult out;
    out.active = active.window_means(kWindow, kDuration);
    out.completed = rt.completed();
    out.faults = rt.faults();
    return out;
}

}  // namespace

int
main()
{
    print_header("Figure 5c",
                 "Active serverless tasks over time under function "
                 "failures (per-10s-window mean)");
    const std::vector<double> rates = {0.0, 0.05, 0.10, 0.20};
    // Each fault rate is its own simulation: sweep them in parallel.
    std::vector<SeriesResult> results = run_sweep(rates, run_with_faults);

    std::printf("%8s %12s %12s %12s %12s\n", "time(s)", "no faults", "5%",
                "10%", "20%");
    for (std::size_t w = 0; w < results[0].active.size(); ++w) {
        std::printf("%8.0f", sim::to_seconds(
                                 static_cast<sim::Time>(w) * kWindow));
        for (int i = 0; i < 4; ++i)
            std::printf(" %12.0f", results[i].active[w]);
        std::printf("\n");
    }
    std::printf("\n%-12s %12s %12s\n", "fault rate", "completed", "faults");
    for (int i = 0; i < 4; ++i) {
        char rl[16];
        std::snprintf(rl, sizeof(rl), "%.0f%%", rates[i] * 100.0);
        std::printf("%-12s %12llu %12llu\n", rl,
                    static_cast<unsigned long long>(results[i].completed),
                    static_cast<unsigned long long>(results[i].faults));
    }
    std::printf("\n(Paper: respawning hides up to 20%% failures; active "
                "tasks rise slightly with the fault rate but every task "
                "completes.)\n");

    // --- Four failure domains, one fault each, mid-Scenario-A ---
    print_header("Fig. 5c (extended)",
                 "One injected fault per failure domain, HiveMind, "
                 "Scenario A (45 s window)");
    struct Domain
    {
        const char* name;
        platform::ScenarioConfig sc;
    };
    auto base = []() {
        platform::ScenarioConfig sc = scenario_a();
        sc.targets = 50;  // Out of reach: every run spans the window.
        sc.time_cap = 45 * sim::kSecond;
        return sc;
    };
    Domain domains[] = {
        {"none (baseline)", base()},
        {"device", base()},
        {"link", base()},
        {"server", base()},
        {"controller", base()},
    };
    domains[1].sc.faults.device_crash(12 * sim::kSecond, 3,
                                      9 * sim::kSecond);
    domains[2].sc.faults.link_burst(12 * sim::kSecond, 8 * sim::kSecond,
                                    0.9);
    // Off the whole second, so the crash lands while server 0 holds
    // running invocations and respawn has work to redo.
    constexpr std::size_t kServerRow = 3;
    domains[kServerRow].sc.faults.server_crash(sim::from_seconds(12.37), 0,
                                      3 * sim::kSecond);
    domains[4].sc.faults.controller_crash(12 * sim::kSecond);

    std::printf("%-18s %8s %8s %8s %10s %10s\n", "failure domain",
                "tasks", "dropped", "MTTD(s)", "MTTR(s)", "redo(cms)");
    // One scenario run per domain: independent sims, sweep them too.
    std::vector<Domain> domain_points(std::begin(domains),
                                      std::end(domains));
    std::vector<platform::RunMetrics> domain_rows =
        run_sweep(domain_points, [](const Domain& d) {
            return platform::run_scenario(
                d.sc, platform::PlatformOptions::hivemind(),
                paper_deployment(42));
        });
    int status = 0;
    for (std::size_t i = 0; i < domain_points.size(); ++i) {
        const Domain& d = domain_points[i];
        const platform::RunMetrics& m = domain_rows[i];
        const fault::RecoveryMetrics& rec = m.recovery;
        // Each domain reports detection/recovery through its own
        // machinery: heartbeats (device), retries (link), respawn
        // (server), standby election (controller).
        sim::Summary mttd = rec.mttd_s;
        mttd.merge(rec.controller_mttd_s);
        sim::Summary mttr = rec.mttr_s;
        mttr.merge(rec.controller_mttr_s);
        char mttd_buf[16] = "-";
        char mttr_buf[16] = "-";
        if (!mttd.empty())
            std::snprintf(mttd_buf, sizeof mttd_buf, "%.1f", mttd.mean());
        if (!mttr.empty())
            std::snprintf(mttr_buf, sizeof mttr_buf, "%.1f", mttr.mean());
        std::printf("%-18s %8llu %8llu %8s %10s %10.0f\n", d.name,
                    static_cast<unsigned long long>(m.tasks_completed),
                    static_cast<unsigned long long>(
                        rec.offloads_abandoned + rec.frames_dropped),
                    mttd_buf, mttr_buf, rec.reexecuted_core_ms);
        if (i == kServerRow && rec.reexecuted_core_ms <= 0.0) {
            std::fprintf(stderr, "FAIL: the server crash redid no work\n");
            status = 1;
        }
    }
    std::printf("\n(Every domain degrades throughput but none is fatal: "
                "repartitioning covers lost\ndevices, retries+breakers ride "
                "out link bursts, respawn redoes server work, and\nthe hot "
                "standby replays a checkpoint after a controller crash.)\n");
    return status;
}
