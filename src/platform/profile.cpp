#include "platform/profile.hpp"

#include <cstdint>
#include <utility>

#include "fault/fuzz.hpp"

namespace hivemind::platform {

namespace {

// v2 dropped v1's tick-batching toggle along with the per-device tick
// path; v3 dropped the engine switch along with the legacy engine; v4
// dropped the inject_failure_* shim and ha.enabled, which only
// restated the fault plan, and nests plan JSON v3; v5 dropped the
// settings no run varied (frame_task_rate_hz, obstacle_rate_hz,
// retrain_interval, detection, retry) and flattened ha to its one
// varied field, checkpoint_interval. Other versions, v1 to v4
// included, are rejected, not migrated.
constexpr int kProfileVersion = 5;

std::int64_t
ns(sim::Time t)
{
    return static_cast<std::int64_t>(t);
}

sim::Time
parse_time(util::JsonCursor& in)
{
    return static_cast<sim::Time>(in.parse_int());
}

ScenarioKind
parse_kind(util::JsonCursor& in)
{
    const std::string name = in.parse_string();
    if (name == "stationary_items")
        return ScenarioKind::StationaryItems;
    if (name == "moving_people")
        return ScenarioKind::MovingPeople;
    if (name == "treasure_hunt")
        return ScenarioKind::TreasureHunt;
    if (name == "rover_maze")
        return ScenarioKind::RoverMaze;
    in.fail("unknown scenario kind \"" + name + "\"");
}

apps::RetrainMode
parse_retrain(util::JsonCursor& in)
{
    const std::string name = in.parse_string();
    if (name == "none")
        return apps::RetrainMode::None;
    if (name == "self")
        return apps::RetrainMode::Self;
    if (name == "swarm")
        return apps::RetrainMode::Swarm;
    in.fail("unknown retrain mode \"" + name + "\"");
}

cloud::FaultRecovery
parse_recovery(util::JsonCursor& in)
{
    const std::string name = in.parse_string();
    if (name == "none")
        return cloud::FaultRecovery::None;
    if (name == "respawn")
        return cloud::FaultRecovery::Respawn;
    if (name == "checkpoint")
        return cloud::FaultRecovery::Checkpoint;
    in.fail("unknown recovery policy \"" + name + "\"");
}

}  // namespace

const char*
scenario_kind_name(ScenarioKind k)
{
    switch (k) {
    case ScenarioKind::StationaryItems:
        return "stationary_items";
    case ScenarioKind::MovingPeople:
        return "moving_people";
    case ScenarioKind::TreasureHunt:
        return "treasure_hunt";
    case ScenarioKind::RoverMaze:
        return "rover_maze";
    }
    return "stationary_items";
}

const char*
retrain_mode_name(apps::RetrainMode m)
{
    switch (m) {
    case apps::RetrainMode::None:
        return "none";
    case apps::RetrainMode::Self:
        return "self";
    case apps::RetrainMode::Swarm:
        return "swarm";
    }
    return "none";
}

const char*
recovery_name(cloud::FaultRecovery r)
{
    switch (r) {
    case cloud::FaultRecovery::None:
        return "none";
    case cloud::FaultRecovery::Respawn:
        return "respawn";
    case cloud::FaultRecovery::Checkpoint:
        return "checkpoint";
    }
    return "none";
}

util::Json
scenario_json(const ScenarioConfig& sc)
{
    return util::Json::object()
        .kv("version", kProfileVersion)
        .kv("kind", scenario_kind_name(sc.kind))
        .kv("field_size_m", sc.field_size_m)
        .kv("targets", static_cast<std::uint64_t>(sc.targets))
        .kv("retrain", retrain_mode_name(sc.retrain))
        .kv("time_cap", ns(sc.time_cap))
        .kv("max_passes", sc.max_passes)
        .kv("course_legs", sc.course_legs)
        .kv("maze_side", sc.maze_side)
        .kv("frame_bytes_override", sc.frame_bytes_override)
        .kv("faults", fault::plan_json(sc.faults))
        .kv("recovery", recovery_name(sc.recovery))
        .kv("checkpoint_interval", ns(sc.checkpoint_interval))
        .kv("shards", sc.shards)
        .kv("adaptive_lookahead", sc.adaptive_lookahead);
}

std::string
scenario_to_json(const ScenarioConfig& sc)
{
    return scenario_json(sc).str() + "\n";
}

ScenarioConfig
scenario_from_cursor(util::JsonCursor& in)
{
    ScenarioConfig sc;
    bool saw_version = false;
    util::parse_object(in, [&](util::JsonCursor& in,
                               const std::string& key) {
        if (key == "version") {
            const std::int64_t v = in.parse_int();
            if (v != kProfileVersion)
                in.fail("unsupported profile version " +
                        std::to_string(v));
            saw_version = true;
        } else if (key == "kind") {
            sc.kind = parse_kind(in);
        } else if (key == "field_size_m") {
            sc.field_size_m = in.parse_number();
        } else if (key == "targets") {
            sc.targets = static_cast<std::size_t>(in.parse_int());
        } else if (key == "retrain") {
            sc.retrain = parse_retrain(in);
        } else if (key == "time_cap") {
            sc.time_cap = parse_time(in);
        } else if (key == "max_passes") {
            sc.max_passes = static_cast<int>(in.parse_int());
        } else if (key == "course_legs") {
            sc.course_legs = static_cast<int>(in.parse_int());
        } else if (key == "maze_side") {
            sc.maze_side = static_cast<int>(in.parse_int());
        } else if (key == "frame_bytes_override") {
            sc.frame_bytes_override =
                static_cast<std::uint64_t>(in.parse_int());
        } else if (key == "faults") {
            sc.faults = fault::plan_from_cursor(in);
        } else if (key == "recovery") {
            sc.recovery = parse_recovery(in);
        } else if (key == "checkpoint_interval") {
            sc.checkpoint_interval = parse_time(in);
        } else if (key == "shards") {
            sc.shards = static_cast<int>(in.parse_int());
        } else if (key == "adaptive_lookahead") {
            sc.adaptive_lookahead = in.parse_bool();
        } else {
            in.fail("unknown profile key \"" + key + "\"");
        }
    });
    if (!saw_version)
        in.fail("profile missing \"version\"");
    return sc;
}

ScenarioConfig
scenario_from_json(const std::string& json)
{
    util::JsonCursor in(json, "scenario profile");
    ScenarioConfig sc = scenario_from_cursor(in);
    if (!in.done())
        in.fail("trailing content after profile object");
    return sc;
}

}  // namespace hivemind::platform
