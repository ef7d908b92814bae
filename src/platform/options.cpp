#include "platform/options.hpp"

#include <cstdlib>
#include <stdexcept>

namespace hivemind::platform {

const char*
to_string(PlatformKind k)
{
    switch (k) {
      case PlatformKind::CentralizedIaas:
        return "CentralizedIaaS";
      case PlatformKind::CentralizedFaas:
        return "CentralizedFaaS";
      case PlatformKind::DistributedEdge:
        return "DistributedEdge";
      case PlatformKind::HiveMind:
        return "HiveMind";
    }
    return "?";
}

PlatformOptions
PlatformOptions::centralized_iaas()
{
    PlatformOptions o;
    o.kind = PlatformKind::CentralizedIaas;
    o.label = "Centralized IaaS";
    return o;
}

PlatformOptions
PlatformOptions::centralized_faas()
{
    PlatformOptions o;
    o.kind = PlatformKind::CentralizedFaas;
    o.label = "Centralized Cloud";
    return o;
}

PlatformOptions
PlatformOptions::distributed_edge()
{
    PlatformOptions o;
    o.kind = PlatformKind::DistributedEdge;
    o.label = "Distributed Edge";
    return o;
}

PlatformOptions
PlatformOptions::hivemind()
{
    PlatformOptions o;
    o.kind = PlatformKind::HiveMind;
    o.net_accel = true;
    o.remote_mem_accel = true;
    o.smart_scheduler = true;
    o.label = "HiveMind";
    return o;
}

PlatformOptions
PlatformOptions::centralized_net_accel()
{
    PlatformOptions o = centralized_faas();
    o.net_accel = true;
    o.label = "Centr-Net Accel";
    return o;
}

PlatformOptions
PlatformOptions::centralized_net_remote_mem()
{
    PlatformOptions o = centralized_net_accel();
    o.remote_mem_accel = true;
    o.label = "+Remote Mem";
    return o;
}

PlatformOptions
PlatformOptions::distributed_net_accel()
{
    PlatformOptions o = distributed_edge();
    o.net_accel = true;
    o.label = "Distr-Net Accel";
    return o;
}

PlatformOptions
PlatformOptions::hivemind_no_accel()
{
    PlatformOptions o = hivemind();
    o.net_accel = false;
    o.remote_mem_accel = false;
    o.label = "HiveMind-No Accel";
    return o;
}

const char*
platform_preset_name(PlatformKind kind)
{
    switch (kind) {
      case PlatformKind::CentralizedIaas:
        return "centralized_iaas";
      case PlatformKind::CentralizedFaas:
        return "centralized_faas";
      case PlatformKind::DistributedEdge:
        return "distributed_edge";
      case PlatformKind::HiveMind:
        return "hivemind";
    }
    return "?";
}

PlatformOptions
platform_from_name(const std::string& name)
{
    if (name == "hivemind")
        return PlatformOptions::hivemind();
    if (name == "centralized_faas")
        return PlatformOptions::centralized_faas();
    if (name == "centralized_iaas")
        return PlatformOptions::centralized_iaas();
    if (name == "distributed_edge")
        return PlatformOptions::distributed_edge();
    throw std::invalid_argument("unknown platform preset \"" + name + "\"");
}

namespace env {

std::optional<int>
shards()
{
    if (const char* v = std::getenv("HIVEMIND_SHARDS")) {
        const int n = std::atoi(v);
        if (n >= 1)
            return n;
    }
    return std::nullopt;
}

std::optional<long>
mission_s()
{
    if (const char* v = std::getenv("HIVEMIND_MISSION_S")) {
        const long n = std::atol(v);
        if (n >= 1)
            return n;
    }
    return std::nullopt;
}

std::optional<unsigned>
sweep_threads()
{
    if (const char* v = std::getenv("HIVEMIND_SWEEP_THREADS")) {
        const long n = std::strtol(v, nullptr, 10);
        return n > 0 ? static_cast<unsigned>(n) : 1u;
    }
    return std::nullopt;
}

}  // namespace env

}  // namespace hivemind::platform
