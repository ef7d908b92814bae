/**
 * @file
 * Fig. 6c — Impact of the inter-function data-sharing protocol on
 * task latency: OpenWhisk's default CouchDB exchange, direct RPC,
 * and in-memory co-location; plus HiveMind's remote-memory fabric
 * (Sec. 4.4) as the fourth column.
 *
 * Paper anchor: CouchDB is slowest (controller handle lookup + two
 * store accesses), direct RPC considerably faster, in-memory fastest.
 */

#include <array>
#include <memory>

#include "bench_util.hpp"

using namespace hivemind;
using namespace hivemind::bench;

namespace {

constexpr sim::Time kDuration = 60 * sim::kSecond;

constexpr std::array<cloud::SharingProtocol, 4> kProtocols = {
    cloud::SharingProtocol::CouchDb, cloud::SharingProtocol::DirectRpc,
    cloud::SharingProtocol::InMemory,
    cloud::SharingProtocol::RemoteMemory};

/** Median latency (ms) per sharing protocol for one app. */
std::array<double, 4>
run_app(const apps::AppSpec& app)
{
    std::array<double, 4> med{};
    int col = 0;
    for (cloud::SharingProtocol proto : kProtocols) {
        sim::Summary lat;
        sim::Simulator simulator;
        sim::Rng rng(8);
        cloud::Cluster cluster(12, 40, platform::kServerMemoryMb);
        cloud::DataStore store(simulator, rng, cloud::DataStoreConfig{});
        cloud::FaasConfig cfg;
        cfg.sharing = proto;
        cloud::FaasRuntime rt(simulator, rng, cluster, store, cfg);
        const cloud::AppId app_id = rt.intern(app.id);
        double rate = app.task_rate_hz * 16.0;
        auto grng = std::make_shared<sim::Rng>(rng.fork());
        sim::recurring(simulator, 0, [&, grng](const sim::Recur& self) {
            if (simulator.now() >= kDuration)
                return;
            // Parent function writes, dependent child reads: two
            // hand-offs of the app's intermediate data per task.
            cloud::InvokeRequest req;
            req.app = app_id;
            req.work_core_ms = app.work_core_ms;
            req.memory_mb = app.memory_mb;
            req.input_bytes = app.inter_bytes;
            req.output_bytes = app.inter_bytes;
            rt.invoke(req, [&](const cloud::InvocationTrace& t) {
                lat.add(t.total_s());
            });
            self.again_in(
                sim::from_seconds(grng->exponential(1.0 / rate)));
        });
        simulator.run();
        med[col++] = 1000.0 * lat.median();
    }
    return med;
}

}  // namespace

int
main()
{
    print_header("Figure 6c",
                 "Task latency (ms) by data-sharing protocol between "
                 "dependent functions");
    std::printf("%-5s %12s %12s %12s %12s\n", "Job", "CouchDB", "RPC",
                "In-memory", "RemoteMem");

    // Each app's four protocol runs form one sweep point; the ten
    // apps fan out across the run_sweep() pool.
    const std::vector<apps::AppSpec>& apps = apps::all_apps();
    std::vector<std::array<double, 4>> rows = run_sweep(apps, run_app);

    for (std::size_t i = 0; i < apps.size(); ++i) {
        const std::array<double, 4>& med = rows[i];
        std::printf("%-5s %12.1f %12.1f %12.1f %12.1f\n",
                    apps[i].id.c_str(), med[0], med[1], med[2], med[3]);
    }
    std::printf("\n(Paper: CouchDB > RPC > in-memory; HiveMind's FPGA "
                "remote memory approaches in-memory without requiring "
                "co-location.)\n");
    return 0;
}
