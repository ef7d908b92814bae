/**
 * @file
 * Fig. 6a — Task-latency variability on reserved versus serverless
 * deployments at modest load, for S1-S10.
 *
 * Paper anchor: "Latency variability is consistently higher with
 * serverless", driven by instantiation, scheduler placement, and
 * data sharing between dependent functions.
 */

#include <memory>

#include "bench_util.hpp"
#include "cloud/iaas.hpp"

using namespace hivemind;
using namespace hivemind::bench;

namespace {

constexpr sim::Time kDuration = 90 * sim::kSecond;

template <typename SubmitFn>
void
drive(sim::Simulator& simulator, sim::Rng& rng, double rate_hz,
      SubmitFn submit)
{
    auto grng = std::make_shared<sim::Rng>(rng.fork());
    sim::recurring(simulator, 0,
                   [&simulator, grng, rate_hz,
                    submit](const sim::Recur& self) {
                       if (simulator.now() >= kDuration)
                           return;
                       submit();
                       self.again_in(sim::from_seconds(
                           grng->exponential(1.0 / rate_hz)));
                   });
}

struct Row
{
    sim::Summary reserved;
    sim::Summary faas;
};

Row
run_app(const apps::AppSpec& app)
{
    // Modest load: half the paper's default swarm rate.
    double rate = app.task_rate_hz * 8.0;
    Row row;
    {
        sim::Simulator simulator;
        sim::Rng rng(4);
        cloud::IaasConfig cfg;
        cfg.workers = 64;  // Amply provisioned reserved pool.
        cloud::IaasPool pool(simulator, rng, cfg);
        drive(simulator, rng, rate, [&]() {
            pool.submit(app.work_core_ms, [&](const cloud::IaasTrace& t) {
                row.reserved.add(t.total_s());
            });
        });
        simulator.run();
    }
    {
        sim::Simulator simulator;
        sim::Rng rng(4);
        cloud::Cluster cluster(12, 40, platform::kServerMemoryMb);
        cloud::DataStore store(simulator, rng, cloud::DataStoreConfig{});
        cloud::FaasRuntime rt(simulator, rng, cluster, store,
                              cloud::FaasConfig{});
        const cloud::AppId app_id = rt.intern(app.id);
        drive(simulator, rng, rate, [&]() {
            cloud::InvokeRequest req;
            req.app = app_id;
            req.work_core_ms = app.work_core_ms;
            req.memory_mb = app.memory_mb;
            req.input_bytes = app.inter_bytes;
            req.output_bytes = app.inter_bytes;
            rt.invoke(req, [&](const cloud::InvocationTrace& t) {
                row.faas.add(t.total_s());
            });
        });
        simulator.run();
    }
    return row;
}

}  // namespace

int
main()
{
    print_header("Figure 6a",
                 "Latency variability (ms): reserved vs serverless at "
                 "modest load");
    std::printf("%-5s %33s  %33s\n", "",
                "---------- reserved ----------",
                "--------- serverless ---------");
    std::printf("%-5s %7s %7s %7s %9s  %7s %7s %7s %9s\n", "Job", "p5",
                "p50", "p95", "p95/p50", "p5", "p50", "p95", "p95/p50");

    // Per-app pairs of sims are independent: sweep the app list.
    const std::vector<apps::AppSpec>& apps = apps::all_apps();
    std::vector<Row> rows = run_sweep(apps, run_app);

    for (std::size_t i = 0; i < apps.size(); ++i) {
        const Row& r = rows[i];
        auto spread = [](const sim::Summary& s) {
            double med = s.median();
            return med > 0.0 ? s.percentile(95) / med : 0.0;
        };
        std::printf(
            "%-5s %7.0f %7.0f %7.0f %9.2f  %7.0f %7.0f %7.0f %9.2f\n",
            apps[i].id.c_str(), 1000.0 * r.reserved.percentile(5),
            1000.0 * r.reserved.median(),
            1000.0 * r.reserved.percentile(95), spread(r.reserved),
            1000.0 * r.faas.percentile(5), 1000.0 * r.faas.median(),
            1000.0 * r.faas.percentile(95), spread(r.faas));
    }
    std::printf("\n(Paper: the p95/p50 spread is consistently wider under "
                "serverless.)\n");
    return 0;
}
