/**
 * @file
 * Fig. 6b — Serverless latency breakdown into container
 * instantiation, data I/O (inter-function sharing), and execution,
 * for S1-S10; median and p99.
 *
 * Paper anchors: instantiation averages 22% of median and 29% of tail
 * latency; over 40% for the short weather-analytics tasks, under 20%
 * for the long maze-traversal tasks.
 */

#include <memory>

#include "bench_util.hpp"

using namespace hivemind;
using namespace hivemind::bench;

namespace {

constexpr sim::Time kDuration = 90 * sim::kSecond;

struct Row
{
    sim::Summary inst;
    sim::Summary data;
    sim::Summary exec;
};

Row
run_app(const apps::AppSpec& app)
{
    Row row;
    sim::Simulator simulator;
    sim::Rng rng(6);
    cloud::Cluster cluster(12, 40, platform::kServerMemoryMb);
    cloud::DataStore store(simulator, rng, cloud::DataStoreConfig{});
    cloud::FaasRuntime rt(simulator, rng, cluster, store,
                          cloud::FaasConfig{});
    const cloud::AppId app_id = rt.intern(app.id);
    double rate = app.task_rate_hz * 16.0;
    auto grng = std::make_shared<sim::Rng>(rng.fork());
    sim::recurring(simulator, 0, [&, grng](const sim::Recur& self) {
        if (simulator.now() >= kDuration)
            return;
        cloud::InvokeRequest req;
        req.app = app_id;
        req.work_core_ms = app.work_core_ms;
        req.memory_mb = app.memory_mb;
        req.input_bytes = app.inter_bytes;
        req.output_bytes = app.inter_bytes;
        rt.invoke(req, [&](const cloud::InvocationTrace& t) {
            row.inst.add(t.instantiation_s());
            row.data.add(t.data_s());
            row.exec.add(t.exec_s());
        });
        self.again_in(sim::from_seconds(grng->exponential(1.0 / rate)));
    });
    simulator.run();
    return row;
}

}  // namespace

int
main()
{
    print_header("Figure 6b",
                 "Serverless latency breakdown: instantiation / data I/O / "
                 "execution (% of stage sum)");
    std::printf("%-5s %27s   %27s\n", "", "-------- median % --------",
                "--------- p99 % ----------");
    std::printf("%-5s %8s %9s %8s   %8s %9s %8s\n", "Job", "inst", "dataIO",
                "exec", "inst", "dataIO", "exec");

    // One independent simulation per app: sweep the app list.
    const std::vector<apps::AppSpec>& apps = apps::all_apps();
    std::vector<Row> rows = run_sweep(apps, run_app);

    double inst_med_sum = 0.0, inst_tail_sum = 0.0;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const Row& r = rows[i];
        auto shares = [](double a, double b, double c, double out[3]) {
            double sum = a + b + c;
            out[0] = 100.0 * a / sum;
            out[1] = 100.0 * b / sum;
            out[2] = 100.0 * c / sum;
        };
        double med[3], tail[3];
        shares(r.inst.median(), r.data.median(), r.exec.median(), med);
        shares(r.inst.p99(), r.data.p99(), r.exec.p99(), tail);
        inst_med_sum += med[0];
        inst_tail_sum += tail[0];
        std::printf("%-5s %8.1f %9.1f %8.1f   %8.1f %9.1f %8.1f\n",
                    apps[i].id.c_str(), med[0], med[1], med[2], tail[0],
                    tail[1], tail[2]);
    }
    std::printf("\nMean instantiation share: median %.1f%% (paper 22%%), "
                "p99 %.1f%% (paper 29%%)\n",
                inst_med_sum / 10.0, inst_tail_sum / 10.0);
    return 0;
}
