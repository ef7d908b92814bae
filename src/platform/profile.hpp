#pragma once

/**
 * @file
 * Declarative scenario profiles: the JSON form of ScenarioConfig.
 *
 * A profile is the canonical way to configure a run — the same
 * discipline as fault reproducers (fault::plan_to_json): a versioned
 * object, strict unknown-key rejection, exact round-trip
 * (scenario_from_json(scenario_to_json(sc)) == sc). Fleet profiles
 * (platform/fleet.hpp) embed one scenario profile per tenant; the
 * fault plan nests in the existing reproducer format under "faults".
 *
 * Compatibility contract (see DESIGN.md "Fleet service mode"):
 * within one schema version, every key is optional and defaults to the
 * ScenarioConfig default, so ADDING a key with a default is not a
 * version bump. Renaming, removing, retyping a key, or changing a
 * default's meaning IS — bump "version", teach the parser both
 * versions (or reject the old one loudly), and document the bump in
 * DESIGN.md. Unknown keys always throw: a typo'd knob must never
 * silently run the default experiment. The current schema is
 * version 5 (v4 also carried frame_task_rate_hz, obstacle_rate_hz,
 * retrain_interval and the detection, retry and ha objects, v3 the
 * since-removed inject_failure_* shim and ha.enabled as well, v2 the
 * engine switch too, v1 the tick-batching toggle too).
 *
 * Times serialize as integer nanoseconds (sim::Time's native unit);
 * doubles in the shortest form that round-trips bit-exactly
 * (util::format_double).
 */

#include <string>

#include "platform/scenario.hpp"
#include "util/json.hpp"

namespace hivemind::platform {

/** Stable profile identifiers (distinct from the display names). */
const char* scenario_kind_name(ScenarioKind k);
const char* retrain_mode_name(apps::RetrainMode m);
const char* recovery_name(cloud::FaultRecovery r);

/** Serialize @p sc as a self-contained versioned profile. */
std::string scenario_to_json(const ScenarioConfig& sc);

/**
 * Parse a profile produced by scenario_to_json() (whitespace and key
 * order free; unknown keys rejected; missing keys keep defaults).
 * Throws std::invalid_argument on malformed input.
 */
ScenarioConfig scenario_from_json(const std::string& json);

/** The profile as a util::Json value, for embedding (fleet tenants). */
util::Json scenario_json(const ScenarioConfig& sc);

/** Nested-object counterpart of scenario_from_json(). */
ScenarioConfig scenario_from_cursor(util::JsonCursor& in);

}  // namespace hivemind::platform
