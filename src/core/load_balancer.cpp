#include "core/load_balancer.hpp"

#include <algorithm>

namespace hivemind::core {

SwarmLoadBalancer::SwarmLoadBalancer(const geo::Rect& field,
                                     std::size_t devices)
    : field_(field)
{
    std::vector<geo::Rect> strips = geo::partition_field(field, devices);
    assignments_.reserve(devices);
    for (std::size_t i = 0; i < strips.size(); ++i)
        assignments_.push_back({i, strips[i]});
    reindex();
}

void
SwarmLoadBalancer::reindex()
{
    std::fill(position_.begin(), position_.end(), kNoPosition);
    // Right to left, so a device listed twice maps to its first entry,
    // the one a left-to-right scan would find.
    for (std::size_t i = assignments_.size(); i-- > 0;) {
        const std::size_t device = assignments_[i].device;
        if (device >= position_.size())
            position_.resize(device + 1, kNoPosition);
        position_[device] = i;
    }
}

std::optional<geo::Rect>
SwarmLoadBalancer::region_of(std::size_t device) const
{
    if (device >= position_.size() || position_[device] == kNoPosition)
        return std::nullopt;
    return assignments_[position_[device]].region;
}

std::vector<std::size_t>
SwarmLoadBalancer::active_devices() const
{
    std::vector<std::size_t> out;
    out.reserve(assignments_.size());
    for (const Assignment& a : assignments_)
        out.push_back(a.device);
    return out;
}

std::vector<std::size_t>
SwarmLoadBalancer::handle_failure(std::size_t device)
{
    std::vector<std::size_t> changed;
    if (device >= position_.size() || position_[device] == kNoPosition)
        return changed;
    const std::size_t i = position_[device];
    // Mirror geo::repartition_after_failure on the Rect list while
    // tracking which owners grew.
    std::vector<geo::Rect> regions;
    regions.reserve(assignments_.size());
    for (const Assignment& a : assignments_)
        regions.push_back(a.region);
    geo::repartition_after_failure(regions, i);
    if (i > 0)
        changed.push_back(assignments_[i - 1].device);
    if (i + 1 < assignments_.size())
        changed.push_back(assignments_[i + 1].device);
    assignments_.erase(assignments_.begin() + static_cast<std::ptrdiff_t>(i));
    for (std::size_t j = 0; j < assignments_.size(); ++j)
        assignments_[j].region = regions[j];
    reindex();
    return changed;
}

std::vector<std::size_t>
SwarmLoadBalancer::handle_rejoin(std::size_t device)
{
    std::vector<std::size_t> changed;
    if (region_of(device))
        return changed;  // Still holds a region; nothing to do.
    if (assignments_.empty()) {
        // Everyone was gone: the rejoiner takes the whole field.
        assignments_.push_back({device, field_});
        reindex();
        changed.push_back(device);
        return changed;
    }
    // Split the widest strip (deterministic first-max, left to right):
    // the donor keeps the left half, the rejoiner works the right.
    std::size_t widest = 0;
    for (std::size_t i = 1; i < assignments_.size(); ++i) {
        if (assignments_[i].region.width() >
            assignments_[widest].region.width())
            widest = i;
    }
    geo::Rect& donor = assignments_[widest].region;
    double mid = (donor.x0 + donor.x1) / 2.0;
    geo::Rect given{mid, donor.y0, donor.x1, donor.y1};
    donor.x1 = mid;
    changed.push_back(assignments_[widest].device);
    changed.push_back(device);
    assignments_.insert(
        assignments_.begin() + static_cast<std::ptrdiff_t>(widest) + 1,
        {device, given});
    reindex();
    return changed;
}

std::vector<geo::Vec2>
SwarmLoadBalancer::route_for(std::size_t device, double track_spacing) const
{
    auto region = region_of(device);
    if (!region)
        return {};
    return geo::coverage_route(*region, track_spacing);
}

SwarmLoadBalancer::Snapshot
SwarmLoadBalancer::snapshot() const
{
    Snapshot snap;
    snap.assignments.reserve(assignments_.size());
    for (const Assignment& a : assignments_)
        snap.assignments.emplace_back(a.device, a.region);
    return snap;
}

void
SwarmLoadBalancer::restore(const Snapshot& snap)
{
    assignments_.clear();
    assignments_.reserve(snap.assignments.size());
    for (const auto& [device, region] : snap.assignments)
        assignments_.push_back({device, region});
    reindex();
}

double
SwarmLoadBalancer::assigned_area() const
{
    double a = 0.0;
    for (const Assignment& as : assignments_)
        a += as.region.area();
    return a;
}

}  // namespace hivemind::core
