#include "apps/world.hpp"

namespace hivemind::apps {

namespace {

bool
in_footprint(const geo::Vec2& p, const geo::Vec2& center, double w, double h)
{
    return p.x >= center.x - w / 2.0 && p.x <= center.x + w / 2.0 &&
        p.y >= center.y - h / 2.0 && p.y <= center.y + h / 2.0;
}

}  // namespace

ItemField::ItemField(const geo::Rect& field, std::size_t items,
                     sim::Rng& rng)
    : field_(field), found_(items, false)
{
    items_.reserve(items);
    for (std::size_t i = 0; i < items; ++i) {
        items_.push_back({rng.uniform(field.x0, field.x1),
                          rng.uniform(field.y0, field.y1)});
    }
}

void
ItemField::items_in_view(const geo::Vec2& center, double w, double h,
                         std::vector<std::size_t>& out) const
{
    out.clear();
    for (std::size_t i = 0; i < items_.size(); ++i) {
        if (in_footprint(items_[i], center, w, h))
            out.push_back(i);
    }
}

std::size_t
ItemField::found_count() const
{
    std::size_t n = 0;
    for (bool f : found_) {
        if (f)
            ++n;
    }
    return n;
}

CrowdField::CrowdField(const geo::Rect& field, std::size_t people,
                       double walk_speed_mps, sim::Rng& rng)
    : field_(field), counted_(people, false)
{
    walkers_.reserve(people);
    for (std::size_t i = 0; i < people; ++i) {
        walkers_.emplace_back(field, walk_speed_mps, /*pause_s=*/5.0, rng);
    }
}

void
CrowdField::people_in_view(sim::Time t, const geo::Vec2& center, double w,
                           double h, std::vector<std::size_t>& out)
{
    out.clear();
    for (std::size_t i = 0; i < walkers_.size(); ++i) {
        if (in_footprint(walkers_[i].position_at(t), center, w, h))
            out.push_back(i);
    }
}

std::size_t
CrowdField::counted_count() const
{
    std::size_t n = 0;
    for (bool c : counted_) {
        if (c)
            ++n;
    }
    return n;
}

TreasureHunt::TreasureHunt(const geo::Rect& area, std::size_t panels,
                           sim::Rng& rng)
{
    panels_.reserve(panels);
    for (std::size_t i = 0; i < panels; ++i) {
        panels_.push_back({rng.uniform(area.x0, area.x1),
                           rng.uniform(area.y0, area.y1)});
    }
}

double
TreasureHunt::course_length(const geo::Vec2& start) const
{
    double len = 0.0;
    geo::Vec2 pos = start;
    for (const geo::Vec2& p : panels_) {
        len += pos.distance_to(p);
        pos = p;
    }
    return len;
}

}  // namespace hivemind::apps
