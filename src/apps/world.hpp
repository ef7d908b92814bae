#pragma once

/**
 * @file
 * Scenario worlds: the physical ground truth the swarm senses.
 *
 * Scenario A (Sec. 2.1): 15 tennis balls placed in a baseball field;
 * the swarm must locate all of them. Scenario B: 25 people moving
 * within the field; the swarm must count unique people, so the same
 * person photographed by two drones must be deduplicated. The rover
 * port (Sec. 5.5) adds a Treasure Hunt (chain of instruction panels)
 * and a Maze world.
 */

#include <cstddef>
#include <vector>

#include "geo/motion.hpp"
#include "geo/vec2.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace hivemind::apps {

/** Static items (tennis balls) scattered in a field — Scenario A. */
class ItemField
{
  public:
    /** Place @p items uniformly at random inside @p field. */
    ItemField(const geo::Rect& field, std::size_t items, sim::Rng& rng);

    const geo::Rect& field() const { return field_; }
    std::size_t item_count() const { return items_.size(); }
    const std::vector<geo::Vec2>& items() const { return items_; }

    /**
     * Fill @p out with the indices, ascending, of items inside a
     * camera footprint of @p w x @p h meters centered at @p center.
     */
    void items_in_view(const geo::Vec2& center, double w, double h,
                       std::vector<std::size_t>& out) const;

    /** Record that an item was located. */
    void mark_found(std::size_t item) { found_[item] = true; }
    bool found(std::size_t item) const { return found_[item]; }
    std::size_t found_count() const;
    bool all_found() const { return found_count() == items_.size(); }

  private:
    geo::Rect field_;
    std::vector<geo::Vec2> items_;
    std::vector<bool> found_;
};

/** Moving people in a field — Scenario B. */
class CrowdField
{
  public:
    /**
     * @param field the area people roam
     * @param people population size (unknown to the system)
     * @param walk_speed_mps pedestrian speed
     */
    CrowdField(const geo::Rect& field, std::size_t people,
               double walk_speed_mps, sim::Rng& rng);

    const geo::Rect& field() const { return field_; }
    std::size_t population() const { return walkers_.size(); }

    /**
     * Fill @p out with the person ids, ascending, visible in a
     * footprint at time @p t. Time must be non-decreasing across calls
     * (walkers advance lazily).
     */
    void people_in_view(sim::Time t, const geo::Vec2& center, double w,
                        double h, std::vector<std::size_t>& out);

    /** Record that a person was counted (post-deduplication). */
    void mark_counted(std::size_t person) { counted_[person] = true; }
    std::size_t counted_count() const;

  private:
    geo::Rect field_;
    std::vector<geo::RandomWaypointWalker> walkers_;
    std::vector<bool> counted_;
};

/**
 * Treasure-hunt course for the rover swarm (Sec. 5.5): a chain of
 * instruction panels; reading panel i (image-to-text) reveals the
 * location of panel i+1, ending at a final target.
 */
class TreasureHunt
{
  public:
    /** Lay out @p panels panels randomly in @p area. */
    TreasureHunt(const geo::Rect& area, std::size_t panels, sim::Rng& rng);

    std::size_t panel_count() const { return panels_.size(); }
    const geo::Vec2& panel(std::size_t i) const { return panels_[i]; }
    const geo::Vec2& final_target() const { return panels_.back(); }

    /** Total leg-by-leg course length from @p start, meters. */
    double course_length(const geo::Vec2& start) const;

  private:
    std::vector<geo::Vec2> panels_;
};

}  // namespace hivemind::apps
