/**
 * @file
 * Extension — wireless unreliability (Sec. 1: edge devices "are prone
 * to unreliable network connections").
 *
 * Sweeps the wireless corruption rate and measures its effect on S1's
 * tail latency for the centralized stack versus HiveMind, whose
 * smaller uplink payloads and straggler mitigation absorb most of the
 * retransmission penalty. Alongside latency the table now reports the
 * link-layer ledger — retransmissions performed and frames dropped
 * once the retry budget runs out. (Baseline re-cut after the
 * retransmit fix: a frame whose final attempt rolls lossy is counted
 * dropped and reported to the caller, never silently delivered, so
 * high-loss rows show real drops where the old table showed none.)
 */

#include "bench_util.hpp"

using namespace hivemind;
using namespace hivemind::bench;

namespace {

struct Point
{
    double loss;
    bool hivemind;
};

struct Row
{
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    std::uint64_t retransmissions = 0;
    std::uint64_t drops = 0;
};

Row
run_point(const Point& pt)
{
    platform::DeploymentConfig dep = paper_deployment(42);
    dep.wireless_loss = pt.loss;
    platform::JobConfig job;
    job.duration = 90 * sim::kSecond;
    job.drain = 60 * sim::kSecond;
    platform::RunMetrics m = platform::run_single_phase(
        apps::app_by_id("S1"),
        pt.hivemind ? platform::PlatformOptions::hivemind()
                    : platform::PlatformOptions::centralized_faas(),
        dep, job);
    Row row;
    row.p50_ms = 1000.0 * m.task_latency_s.median();
    row.p99_ms = 1000.0 * m.task_latency_s.p99();
    row.retransmissions = m.recovery.wireless_retransmissions;
    row.drops = m.recovery.frames_dropped;
    return row;
}

}  // namespace

int
main()
{
    print_header("Ablation: wireless loss",
                 "S1 latency (ms), retransmissions and dropped frames vs "
                 "wireless corruption rate");
    const double losses[] = {0.0, 0.01, 0.03, 0.10};
    std::vector<Point> points;
    for (double loss : losses)
        for (bool hm : {false, true})
            points.push_back({loss, hm});
    // Each (loss, platform) cell is its own simulation: fan the grid
    // out to the run_sweep() pool; rows print in point order.
    std::vector<Row> rows = run_sweep(points, run_point);

    std::printf("%-8s %40s %40s\n", "", "centralized cloud", "HiveMind");
    std::printf("%-8s %9s %9s %10s %9s %9s %9s %10s %9s\n", "loss", "p50",
                "p99", "retrans", "drops", "p50", "p99", "retrans",
                "drops");
    Json series = Json::array();
    for (std::size_t i = 0; i < points.size(); i += 2) {
        const Row& cen = rows[i];
        const Row& hm = rows[i + 1];
        char ll[16];
        std::snprintf(ll, sizeof(ll), "%.0f%%", points[i].loss * 100.0);
        std::printf("%-8s %9.0f %9.0f %10llu %9llu %9.0f %9.0f %10llu "
                    "%9llu\n",
                    ll, cen.p50_ms, cen.p99_ms,
                    static_cast<unsigned long long>(cen.retransmissions),
                    static_cast<unsigned long long>(cen.drops), hm.p50_ms,
                    hm.p99_ms,
                    static_cast<unsigned long long>(hm.retransmissions),
                    static_cast<unsigned long long>(hm.drops));
        for (const Row* r : {&cen, &hm}) {
            series.push(Json::object()
                            .kv("loss", points[i].loss)
                            .kv("platform",
                                r == &hm ? "hivemind" : "centralized")
                            .kv("p50_ms", r->p50_ms)
                            .kv("p99_ms", r->p99_ms)
                            .kv("retransmissions", r->retransmissions)
                            .kv("frames_dropped", r->drops));
        }
    }
    write_bench_json("wireless_loss",
                     Json::object()
                         .kv("bench", "abl_wireless_loss")
                         .kv("hw_threads",
                             static_cast<std::uint64_t>(
                                 std::thread::hardware_concurrency()))
                         .kv("app", "S1")
                         .kv("duration_s", 90.0)
                         .kv("rows", series));
    std::printf("\n(Retransmissions hit the centralized stack's 8 MB frame "
                "batches much harder than HiveMind's pre-filtered "
                "payloads; once the budget is exhausted the frame is "
                "dropped and counted, not silently delivered.)\n");
    return 0;
}
