#pragma once

/**
 * @file
 * Swarm load balancer: field partitioning and failure recovery.
 *
 * The controller "consists of a load balancer, which partitions the
 * available work across all devices" (Sec. 4.2). At time zero the
 * field is divided equally among the devices (Sec. 2.1); when a
 * device fails, "HiveMind ... repartitions its assigned area equally
 * among its neighboring drones assuming they have sufficient battery,
 * and updates their routing information" (Fig. 10).
 */

#include <cstddef>
#include <optional>
#include <vector>

#include "geo/coverage.hpp"
#include "geo/vec2.hpp"

namespace hivemind::core {

/** Assigns field regions (and coverage routes) to devices. */
class SwarmLoadBalancer
{
  public:
    /**
     * Partition @p field equally among @p devices devices.
     *
     * Device i initially owns strip i, left to right.
     */
    SwarmLoadBalancer(const geo::Rect& field, std::size_t devices);

    /** The region currently assigned to @p device (nullopt if failed). */
    std::optional<geo::Rect> region_of(std::size_t device) const;

    /** Devices that still hold a region. */
    std::vector<std::size_t> active_devices() const;

    /**
     * Handle a device failure: its strip is split between the
     * neighbouring strips' owners (Fig. 10).
     *
     * @return the devices whose regions changed (need new routes).
     */
    std::vector<std::size_t> handle_failure(std::size_t device);

    /**
     * Handle a device rejoining after a transient failure: the widest
     * current strip is split in half and the right half handed to the
     * rejoiner (the inverse of the neighbour-absorbs-strip recovery).
     * No-op when the device still holds a region.
     *
     * @return the devices whose regions changed (donor + rejoiner).
     */
    std::vector<std::size_t> handle_rejoin(std::size_t device);

    /** Coverage sweep of a device's current region. */
    std::vector<geo::Vec2> route_for(std::size_t device,
                                     double track_spacing) const;

    /** Total area still assigned (conservation invariant). */
    double assigned_area() const;

    const geo::Rect& field() const { return field_; }

    /**
     * Serializable partition state for controller checkpoints
     * (Sec. 4.6): the ordered (device, region) list.
     */
    struct Snapshot
    {
        std::vector<std::pair<std::size_t, geo::Rect>> assignments;
    };

    /** Capture the current partition. */
    Snapshot snapshot() const;

    /** Replace the partition with a checkpointed one (standby replay). */
    void restore(const Snapshot& snap);

  private:
    struct Assignment
    {
        std::size_t device;
        geo::Rect region;
    };

    static constexpr std::size_t kNoPosition = static_cast<std::size_t>(-1);

    /** Rebuild position_ from assignments_. */
    void reindex();

    geo::Rect field_;
    std::vector<Assignment> assignments_;  // Ordered left to right.
    /**
     * Device id -> index of its assignment (kNoPosition when it holds
     * none), so a route request finds its region without a scan. A
     * vector, not a hash map, so no result can hang on hash order.
     */
    std::vector<std::size_t> position_;
};

}  // namespace hivemind::core
