/**
 * @file
 * Fig. 5a — Task latency with a fixed (reserved, equal-CPU-time)
 * deployment, serverless without intra-task parallelism, and
 * serverless with intra-task parallelism, for S1-S10.
 *
 * Latency here is measured inside the cloud (from request arrival to
 * response ready; Sec. 3's methodology excludes the wireless leg), so
 * the bench drives the runtimes directly. For fairness the fixed pool
 * gets the same aggregate CPU time as the offered load consumes.
 *
 * Paper anchors: serverless is ~an order of magnitude faster than the
 * fixed allocation for parallel jobs; S6/S7(/S8) gain little.
 */

#include <cmath>

#include "bench_util.hpp"
#include "cloud/iaas.hpp"

using namespace hivemind;
using namespace hivemind::bench;

namespace {

constexpr sim::Time kDuration = 90 * sim::kSecond;

/** Drive an open-loop arrival process into a callback. */
template <typename Fn>
void
drive(sim::Simulator& simulator, sim::Rng& rng, double rate_hz,
      sim::Time duration, Fn submit)
{
    auto rng_ptr = std::make_shared<sim::Rng>(rng.fork());
    sim::recurring(simulator, 0,
                   [&simulator, rng_ptr, rate_hz, duration,
                    submit](const sim::Recur& self) {
                       if (simulator.now() >= duration)
                           return;
                       submit();
                       self.again_in(sim::from_seconds(
                           rng_ptr->exponential(1.0 / rate_hz)));
                   });
}

struct Row
{
    sim::Summary fixed;
    sim::Summary faas;
    sim::Summary faas_par;
};

Row
run_app(const apps::AppSpec& app)
{
    double rate = app.task_rate_hz * 16.0;  // Whole-swarm offered load.
    Row row;

    // --- Fixed pool, provisioned for the average demand ---
    {
        sim::Simulator simulator;
        sim::Rng rng(1);
        cloud::IaasConfig cfg;
        // Equal total CPU time: workers x duration = offered work
        // (the paper's fairness condition) -> the pool runs at
        // ~100% utilization and queueing dominates.
        cfg.workers = std::max(
            1, static_cast<int>(rate * app.work_core_ms / 1000.0));
        cloud::IaasPool pool(simulator, rng, cfg);
        drive(simulator, rng, rate, kDuration, [&]() {
            pool.submit(app.work_core_ms, [&](const cloud::IaasTrace& t) {
                row.fixed.add(t.total_s());
            });
        });
        simulator.run();
    }

    // --- Serverless, one function per task / with fan-out ---
    auto run_faas = [&](int ways) {
        sim::Summary lat;
        sim::Simulator simulator;
        sim::Rng rng(1);
        cloud::Cluster cluster(12, 40, platform::kServerMemoryMb);
        cloud::DataStore store(simulator, rng, cloud::DataStoreConfig{});
        cloud::FaasRuntime rt(simulator, rng, cluster, store,
                              cloud::FaasConfig{});
        const cloud::AppId app_id = rt.intern(app.id);
        drive(simulator, rng, rate, kDuration, [&]() {
            cloud::InvokeRequest req;
            req.app = app_id;
            req.work_core_ms = app.work_core_ms;
            req.memory_mb = app.memory_mb;
            req.input_bytes = app.inter_bytes;
            req.output_bytes = app.inter_bytes;
            if (ways > 1) {
                rt.invoke_parallel(req, ways,
                                   [&](const cloud::InvocationTrace& t) {
                                       lat.add(t.total_s());
                                   });
            } else {
                rt.invoke(req, [&](const cloud::InvocationTrace& t) {
                    lat.add(t.total_s());
                });
            }
        });
        simulator.run();
        return lat;
    };
    row.faas = run_faas(1);
    row.faas_par = run_faas(app.parallelism);
    return row;
}

}  // namespace

int
main()
{
    print_header("Figure 5a",
                 "Cloud-side task latency (ms): fixed pool vs serverless vs "
                 "serverless with intra-task parallelism");
    std::printf("%-5s %28s %28s %28s\n", "", "fixed (equal CPU)",
                "serverless", "serverless (intra-task)");
    std::printf("%-5s %9s %9s %9s %9s %9s %9s %9s %9s %9s\n", "Job", "p25",
                "p50", "p95", "p25", "p50", "p95", "p25", "p50", "p95");

    // Each app's three deployments are independent simulations:
    // parcel the apps out to the run_sweep() pool.
    const std::vector<apps::AppSpec>& apps = apps::all_apps();
    std::vector<Row> rows = run_sweep(apps, run_app);

    for (std::size_t i = 0; i < apps.size(); ++i) {
        auto ms = [](const sim::Summary& s, double p) {
            return 1000.0 * s.percentile(p);
        };
        const Row& r = rows[i];
        std::printf(
            "%-5s %9.0f %9.0f %9.0f %9.0f %9.0f %9.0f %9.0f %9.0f %9.0f\n",
            apps[i].id.c_str(), ms(r.fixed, 25), ms(r.fixed, 50),
            ms(r.fixed, 95), ms(r.faas, 25), ms(r.faas, 50),
            ms(r.faas, 95), ms(r.faas_par, 25), ms(r.faas_par, 50),
            ms(r.faas_par, 95));
    }
    std::printf("\n(Paper: serverless ~10x faster than fixed for parallel "
                "jobs; S6/S7/S8 benefit least from fan-out.)\n");
    return 0;
}
