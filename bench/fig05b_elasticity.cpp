/**
 * @file
 * Fig. 5b — Face-recognition latency under a fluctuating load:
 * serverless versus fixed deployments provisioned for the average and
 * for the worst-case load.
 *
 * Paper anchors: serverless follows the load; the average-provisioned
 * pool saturates at the peak; the max-provisioned pool keeps latency
 * flat but idles most of the run.
 */

#include <cmath>
#include <memory>

#include "apps/workload.hpp"
#include "bench_util.hpp"
#include "cloud/iaas.hpp"

using namespace hivemind;
using namespace hivemind::bench;

namespace {

constexpr sim::Time kDuration = 400 * sim::kSecond;
constexpr sim::Time kWindow = 20 * sim::kSecond;

/** Per-window median latency of (completion time, latency) samples. */
std::vector<double>
window_medians(const std::vector<std::pair<sim::Time, double>>& samples)
{
    std::size_t windows =
        static_cast<std::size_t>(kDuration / kWindow);
    std::vector<sim::Summary> acc(windows);
    for (const auto& [t, lat] : samples) {
        std::size_t w = static_cast<std::size_t>(t / kWindow);
        if (w < windows)
            acc[w].add(lat);
    }
    std::vector<double> out;
    out.reserve(windows);
    for (auto& s : acc)
        out.push_back(s.median() * 1000.0);
    return out;
}

/** One deployment under test. */
enum class Mode { Serverless, FixedAvg, FixedMax };

struct Row
{
    std::vector<std::pair<sim::Time, double>> samples;
    int workers = 0;  // Fixed pools only.
};

Row
run_mode(Mode mode)
{
    const apps::AppSpec& app = apps::app_by_id("S1");
    apps::LoadPattern pattern =
        apps::LoadPattern::fluctuating(1.0, 80.0, kDuration);
    Row out;
    if (mode == Mode::Serverless) {
        sim::Simulator simulator;
        sim::Rng rng(3);
        cloud::Cluster cluster(12, 40, platform::kServerMemoryMb);
        cloud::DataStore store(simulator, rng, cloud::DataStoreConfig{});
        cloud::FaasRuntime rt(simulator, rng, cluster, store,
                              cloud::FaasConfig{});
        const cloud::AppId app_id = rt.intern(app.id);
        auto grng = std::make_shared<sim::Rng>(rng.fork());
        sim::recurring(simulator, 0, [&, grng](const sim::Recur& self) {
            if (simulator.now() >= kDuration)
                return;
            cloud::InvokeRequest req;
            req.app = app_id;
            req.work_core_ms = app.work_core_ms;
            req.memory_mb = app.memory_mb;
            rt.invoke(req, [&](const cloud::InvocationTrace& t) {
                out.samples.emplace_back(t.done, t.total_s());
            });
            double rate = std::max(pattern.rate_at(simulator.now()), 0.2);
            self.again_in(sim::from_seconds(grng->exponential(1.0 / rate)));
        });
        simulator.run();
        return out;
    }
    double provision_rate = mode == Mode::FixedAvg
                                ? pattern.average(kDuration)
                                : pattern.peak();
    sim::Simulator simulator;
    sim::Rng rng(3);
    cloud::IaasConfig cfg;
    cfg.workers = std::max(
        1, static_cast<int>(std::ceil(
               provision_rate * app.work_core_ms / 1000.0 * 1.15)));
    cloud::IaasPool pool(simulator, rng, cfg);
    auto grng = std::make_shared<sim::Rng>(rng.fork());
    sim::recurring(simulator, 0, [&, grng](const sim::Recur& self) {
        if (simulator.now() >= kDuration)
            return;
        pool.submit(app.work_core_ms, [&](const cloud::IaasTrace& t) {
            out.samples.emplace_back(t.done, t.total_s());
        });
        double rate = std::max(pattern.rate_at(simulator.now()), 0.2);
        self.again_in(sim::from_seconds(grng->exponential(1.0 / rate)));
    });
    simulator.run();
    out.workers = cfg.workers;
    return out;
}

}  // namespace

int
main()
{
    print_header("Figure 5b",
                 "S1 latency under fluctuating load: serverless vs fixed "
                 "(avg / max provisioned); per-20s-window median ms");
    apps::LoadPattern pattern =
        apps::LoadPattern::fluctuating(1.0, 80.0, kDuration);

    // The three deployments are independent simulations: run them on
    // the run_sweep() pool; results come back in point order.
    const std::vector<Mode> modes = {Mode::Serverless, Mode::FixedAvg,
                                     Mode::FixedMax};
    std::vector<Row> rows = run_sweep(modes, run_mode);

    std::printf("offered load: low 1.0 Hz, peak %.0f Hz, average %.1f Hz\n",
                pattern.peak(), pattern.average(kDuration));
    std::printf("fixed pools: avg-provisioned %d workers, max-provisioned "
                "%d workers\n\n",
                rows[1].workers, rows[2].workers);
    std::printf("%8s %12s %14s %14s %14s\n", "time(s)", "load(Hz)",
                "serverless", "fixed-avg", "fixed-max");
    auto f = window_medians(rows[0].samples);
    auto a = window_medians(rows[1].samples);
    auto m = window_medians(rows[2].samples);
    for (std::size_t w = 0; w < f.size(); ++w) {
        sim::Time t = static_cast<sim::Time>(w) * kWindow + kWindow / 2;
        std::printf("%8.0f %12.1f %14.0f %14.0f %14.0f\n",
                    sim::to_seconds(t), pattern.rate_at(t), f[w], a[w],
                    m[w]);
    }
    std::printf("\n(Paper: serverless tracks the load; the avg-provisioned "
                "pool saturates at the peak; the max pool wastes idle "
                "resources.)\n");
    return 0;
}
