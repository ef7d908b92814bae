#include "platform/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "platform/sweep.hpp"

namespace hivemind::platform {

namespace {

constexpr int kFleetVersion = 1;

util::Json
tenant_json(const FleetTenant& t)
{
    return util::Json::object()
        .kv("name", t.name)
        .kv("replicas", t.replicas)
        .kv("seed0", t.seed0)
        .kv("platform", t.platform)
        .kv("devices", static_cast<std::uint64_t>(t.devices))
        .kv("servers", static_cast<std::uint64_t>(t.servers))
        .kv("cores_per_server", t.cores_per_server)
        .kv("scale_infra", t.scale_infra)
        .kv("scenario", scenario_json(t.scenario));
}

FleetTenant
tenant_from_cursor(util::JsonCursor& in)
{
    FleetTenant t;
    util::parse_object(in, [&](util::JsonCursor& in,
                               const std::string& key) {
        if (key == "name")
            t.name = in.parse_string();
        else if (key == "replicas")
            t.replicas = static_cast<int>(in.parse_int());
        else if (key == "seed0")
            t.seed0 = static_cast<std::uint64_t>(in.parse_int());
        else if (key == "platform")
            t.platform = in.parse_string();
        else if (key == "devices")
            t.devices = static_cast<std::size_t>(in.parse_int());
        else if (key == "servers")
            t.servers = static_cast<std::size_t>(in.parse_int());
        else if (key == "cores_per_server")
            t.cores_per_server = static_cast<int>(in.parse_int());
        else if (key == "scale_infra")
            t.scale_infra = in.parse_bool();
        else if (key == "scenario")
            t.scenario = scenario_from_cursor(in);
        else
            in.fail("unknown tenant key \"" + key + "\"");
    });
    if (t.replicas < 1)
        in.fail("tenant \"" + t.name + "\" needs replicas >= 1");
    try {
        (void)platform_from_name(t.platform);
    } catch (const std::invalid_argument& e) {
        in.fail(e.what());
    }
    return t;
}

}  // namespace

std::size_t
FleetProfile::swarms() const
{
    std::size_t n = 0;
    for (const FleetTenant& t : tenants)
        n += static_cast<std::size_t>(t.replicas);
    return n;
}

util::Json
fleet_json(const FleetProfile& fleet)
{
    util::Json tenants = util::Json::array();
    for (const FleetTenant& t : fleet.tenants)
        tenants.push(tenant_json(t));
    return util::Json::object()
        .kv("version", kFleetVersion)
        .kv("name", fleet.name)
        .kv("tenants", tenants);
}

std::string
fleet_to_json(const FleetProfile& fleet)
{
    return fleet_json(fleet).str() + "\n";
}

FleetProfile
fleet_from_cursor(util::JsonCursor& in)
{
    FleetProfile fleet;
    bool saw_version = false;
    util::parse_object(in, [&](util::JsonCursor& in,
                               const std::string& key) {
        if (key == "version") {
            const std::int64_t v = in.parse_int();
            if (v != kFleetVersion)
                in.fail("unsupported fleet version " +
                        std::to_string(v));
            saw_version = true;
        } else if (key == "name") {
            fleet.name = in.parse_string();
        } else if (key == "tenants") {
            util::parse_array(in, [&](util::JsonCursor& in) {
                fleet.tenants.push_back(tenant_from_cursor(in));
            });
        } else {
            in.fail("unknown fleet key \"" + key + "\"");
        }
    });
    if (!saw_version)
        in.fail("fleet profile missing \"version\"");
    return fleet;
}

FleetProfile
fleet_from_json(const std::string& json)
{
    util::JsonCursor in(json, "fleet profile");
    FleetProfile fleet = fleet_from_cursor(in);
    if (!in.done())
        in.fail("trailing content after fleet object");
    return fleet;
}

util::Json
swarm_record_json(const SwarmRecord& rec)
{
    util::Json line = util::Json::object()
                          .kv("tenant", rec.tenant)
                          .kv("replica", rec.replica)
                          .kv("seed", rec.seed)
                          .kv("ok", rec.ok);
    if (!rec.ok)
        return line.kv("error", rec.error);
    const RunResult& r = rec.result;
    return line.kv("shards", r.shards)
        .kv("checksum", r.checksum)
        .kv("wall_s", r.wall_s)
        .kv("epochs", r.epochs)
        .kv("completion_s", r.metrics.completion_s)
        .kv("completed", r.metrics.completed)
        .kv("goal_fraction", r.metrics.goal_fraction)
        .kv("tasks_completed", r.metrics.tasks_completed)
        .kv("faults", r.metrics.faults)
        .kv("respawns", r.metrics.respawns)
        .kv("mttr_s", r.metrics.recovery.mttr_s.mean())
        .kv("radio_bytes", r.metrics.radio_bytes_total);
}

Fleet::Fleet(FleetProfile profile) : profile_(std::move(profile))
{
    for (const FleetTenant& t : profile_.tenants) {
        if (t.replicas < 1)
            throw std::invalid_argument("fleet tenant \"" + t.name +
                                        "\" needs replicas >= 1");
        (void)platform_from_name(t.platform);  // Throws on bad preset.
    }
}

DeploymentConfig
Fleet::deployment_of(const FleetTenant& tenant, int replica)
{
    DeploymentConfig dc;
    dc.devices = tenant.devices;
    dc.servers = tenant.servers;
    dc.cores_per_server = tenant.cores_per_server;
    dc.scale_infra = tenant.scale_infra;
    dc.seed = tenant.seed0 + static_cast<std::uint64_t>(replica);
    return dc;
}

FleetResult
Fleet::run(const FleetRunOptions& options) const
{
    struct Job
    {
        const FleetTenant* tenant = nullptr;
        int replica = 0;
    };
    std::vector<Job> jobs;
    jobs.reserve(profile_.swarms());
    for (const FleetTenant& t : profile_.tenants)
        for (int r = 0; r < t.replicas; ++r)
            jobs.push_back({&t, r});

    FleetResult result;
    result.workers = static_cast<int>(sweep_workers(
        jobs.size(),
        options.workers > 0 ? static_cast<unsigned>(options.workers) : 0));

    const auto wall0 = std::chrono::steady_clock::now();
    result.records = run_sweep(
        jobs,
        [](const Job& job) {
            SwarmRecord rec;
            rec.tenant = job.tenant->name;
            rec.replica = job.replica;
            rec.seed = job.tenant->seed0 +
                static_cast<std::uint64_t>(job.replica);
            try {
                rec.result = platform::run(
                    job.tenant->scenario,
                    platform_from_name(job.tenant->platform),
                    deployment_of(*job.tenant, job.replica));
                rec.ok = true;
            } catch (const std::exception& e) {
                rec.error = e.what();
            }
            return rec;
        },
        static_cast<unsigned>(result.workers));
    result.wall_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wall0)
                        .count();
    result.failed = static_cast<std::size_t>(
        std::count_if(result.records.begin(), result.records.end(),
                      [](const SwarmRecord& rec) { return !rec.ok; }));

    // Every swarm has finished and the pool has joined: the JSONL is
    // written here, untimed, in (tenant, replica) order, so its bytes
    // do not depend on the worker count or on completion order.
    if (options.metrics) {
        for (const SwarmRecord& rec : result.records)
            *options.metrics << swarm_record_json(rec).str() << '\n';
        options.metrics->flush();
    }
    return result;
}

}  // namespace hivemind::platform
