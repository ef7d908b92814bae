/**
 * @file
 * Tests for geometry, coverage partitioning, mazes, and motion models
 * (src/geo).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "geo/coverage.hpp"
#include "geo/maze.hpp"
#include "geo/motion.hpp"
#include "geo/vec2.hpp"

namespace hivemind::geo {
namespace {

TEST(Vec2, Arithmetic)
{
    Vec2 a{3.0, 4.0};
    EXPECT_DOUBLE_EQ(a.norm(), 5.0);
    Vec2 b = a + Vec2{1.0, 1.0};
    EXPECT_DOUBLE_EQ(b.x, 4.0);
    EXPECT_DOUBLE_EQ((a - a).norm(), 0.0);
    EXPECT_DOUBLE_EQ((a * 2.0).norm(), 10.0);
    Vec2 u = a.normalized();
    EXPECT_NEAR(u.norm(), 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(Vec2{}.normalized().norm(), 0.0);
}

TEST(Rect, ContainsAndClamp)
{
    Rect r{0, 0, 10, 5};
    EXPECT_DOUBLE_EQ(r.area(), 50.0);
    EXPECT_TRUE(r.contains({5, 2}));
    EXPECT_FALSE(r.contains({10, 2}));  // Half-open.
    Vec2 c = r.clamp({20, -3});
    EXPECT_DOUBLE_EQ(c.x, 10.0);
    EXPECT_DOUBLE_EQ(c.y, 0.0);
    EXPECT_DOUBLE_EQ(r.center().x, 5.0);
}

TEST(Coverage, PartitionConservesArea)
{
    Rect field{0, 0, 96, 96};
    auto strips = partition_field(field, 16);
    ASSERT_EQ(strips.size(), 16u);
    double total = 0.0;
    for (const Rect& r : strips) {
        total += r.area();
        EXPECT_NEAR(r.area(), field.area() / 16.0, 1e-9);
    }
    EXPECT_NEAR(total, field.area(), 1e-6);
    // Strips abut.
    for (std::size_t i = 1; i < strips.size(); ++i)
        EXPECT_DOUBLE_EQ(strips[i].x0, strips[i - 1].x1);
}

TEST(Coverage, PartitionZeroDevices)
{
    EXPECT_TRUE(partition_field(Rect{0, 0, 10, 10}, 0).empty());
}

TEST(Coverage, RouteCoversRegion)
{
    Rect region{0, 0, 20, 30};
    auto route = coverage_route(region, 6.7);
    ASSERT_FALSE(route.empty());
    // Track x positions must be spaced at most the footprint apart.
    std::set<double> xs;
    for (const Vec2& p : route)
        xs.insert(p.x);
    ASSERT_GE(xs.size(), 3u);
    double prev = -1.0;
    for (double x : xs) {
        if (prev >= 0.0) {
            EXPECT_LE(x - prev, 6.7 + 1e-9);
        }
        prev = x;
    }
    EXPECT_GT(route_length(route), region.height());
}

TEST(Coverage, RepartitionMiddleFailure)
{
    auto strips = partition_field(Rect{0, 0, 90, 10}, 3);
    double before = 0.0;
    for (const Rect& r : strips)
        before += r.area();
    repartition_after_failure(strips, 1);
    ASSERT_EQ(strips.size(), 2u);
    double after = strips[0].area() + strips[1].area();
    EXPECT_NEAR(after, before, 1e-9);
    EXPECT_DOUBLE_EQ(strips[0].x1, 45.0);
    EXPECT_DOUBLE_EQ(strips[1].x0, 45.0);
}

TEST(Coverage, RepartitionEdgeFailures)
{
    auto strips = partition_field(Rect{0, 0, 90, 10}, 3);
    repartition_after_failure(strips, 0);  // Leftmost fails.
    ASSERT_EQ(strips.size(), 2u);
    EXPECT_DOUBLE_EQ(strips[0].x0, 0.0);
    repartition_after_failure(strips, 1);  // Now-rightmost fails.
    ASSERT_EQ(strips.size(), 1u);
    EXPECT_DOUBLE_EQ(strips[0].x0, 0.0);
    EXPECT_DOUBLE_EQ(strips[0].x1, 90.0);
}

TEST(Coverage, RepartitionFirstAndLastAbsorbFullStrip)
{
    // First index: the right neighbour inherits the freed strip whole.
    auto strips = partition_field(Rect{0, 0, 80, 10}, 4);
    repartition_after_failure(strips, 0);
    ASSERT_EQ(strips.size(), 3u);
    EXPECT_DOUBLE_EQ(strips[0].x0, 0.0);
    EXPECT_DOUBLE_EQ(strips[0].x1, 40.0);

    // Last index: the left neighbour absorbs it instead.
    strips = partition_field(Rect{0, 0, 80, 10}, 4);
    repartition_after_failure(strips, 3);
    ASSERT_EQ(strips.size(), 3u);
    EXPECT_DOUBLE_EQ(strips[2].x0, 40.0);
    EXPECT_DOUBLE_EQ(strips[2].x1, 80.0);
    double area = 0.0;
    for (const Rect& r : strips)
        area += r.area();
    EXPECT_NEAR(area, 800.0, 1e-9);
}

TEST(Coverage, RepartitionSingleRegionLeavesFieldUncovered)
{
    auto strips = partition_field(Rect{0, 0, 50, 10}, 1);
    repartition_after_failure(strips, 0);  // No neighbour to absorb it.
    EXPECT_TRUE(strips.empty());
}

TEST(Coverage, RepartitionOutOfRangeIndexIsNoop)
{
    auto strips = partition_field(Rect{0, 0, 50, 10}, 2);
    auto before = strips;
    repartition_after_failure(strips, 2);  // One past the end.
    repartition_after_failure(strips, 99);
    ASSERT_EQ(strips.size(), before.size());
    for (std::size_t i = 0; i < strips.size(); ++i) {
        EXPECT_DOUBLE_EQ(strips[i].x0, before[i].x0);
        EXPECT_DOUBLE_EQ(strips[i].x1, before[i].x1);
    }
}

TEST(Maze, PerfectMazeHasSpanningTreePassages)
{
    sim::Rng rng(42);
    Maze m(8, 6, rng);
    EXPECT_EQ(m.passage_count(), 8u * 6u - 1u);
}

TEST(Maze, BoundaryAlwaysWalled)
{
    sim::Rng rng(42);
    Maze m(5, 5, rng);
    for (int x = 0; x < 5; ++x) {
        EXPECT_TRUE(m.wall(x, 0, Dir::South));
        EXPECT_TRUE(m.wall(x, 4, Dir::North));
    }
    for (int y = 0; y < 5; ++y) {
        EXPECT_TRUE(m.wall(0, y, Dir::West));
        EXPECT_TRUE(m.wall(4, y, Dir::East));
    }
}

TEST(Maze, DirectionHelpers)
{
    EXPECT_EQ(left_of(Dir::North), Dir::West);
    EXPECT_EQ(right_of(Dir::North), Dir::East);
    EXPECT_EQ(reverse_of(Dir::North), Dir::South);
    EXPECT_EQ(left_of(right_of(Dir::East)), Dir::East);
}

/** Property: the wall follower solves every perfect maze. */
class WallFollowerProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(WallFollowerProperty, ReachesExit)
{
    sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
    int side = 4 + GetParam() % 9;
    Maze m(side, side, rng);
    std::size_t bound =
        static_cast<std::size_t>(side) * static_cast<std::size_t>(side) * 8;
    auto trace = wall_follow(m, side - 1, side - 1, bound);
    ASSERT_FALSE(trace.empty());
    EXPECT_EQ(trace.back().x, side - 1);
    EXPECT_EQ(trace.back().y, side - 1);
    EXPECT_LT(trace.size(), bound);
    // Every step moves to a 4-adjacent cell.
    for (std::size_t i = 1; i < trace.size(); ++i) {
        int dx = std::abs(trace[i].x - trace[i - 1].x);
        int dy = std::abs(trace[i].y - trace[i - 1].y);
        EXPECT_EQ(dx + dy, 1);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WallFollowerProperty,
                         ::testing::Range(1, 17));

TEST(RandomWaypoint, StaysInBounds)
{
    sim::Rng rng(13);
    Rect bounds{0, 0, 50, 30};
    RandomWaypointWalker w(bounds, 1.4, 5.0, rng);
    for (int s = 0; s <= 600; s += 3) {
        Vec2 p = w.position_at(static_cast<sim::Time>(s) * sim::kSecond);
        EXPECT_GE(p.x, bounds.x0 - 1e-9);
        EXPECT_LE(p.x, bounds.x1 + 1e-9);
        EXPECT_GE(p.y, bounds.y0 - 1e-9);
        EXPECT_LE(p.y, bounds.y1 + 1e-9);
    }
}

TEST(RandomWaypoint, SpeedBounded)
{
    sim::Rng rng(17);
    Rect bounds{0, 0, 100, 100};
    RandomWaypointWalker w(bounds, 2.0, 1.0, rng);
    Vec2 prev = w.position_at(0);
    for (int s = 1; s <= 300; ++s) {
        Vec2 cur = w.position_at(static_cast<sim::Time>(s) * sim::kSecond);
        EXPECT_LE(prev.distance_to(cur), 2.0 + 1e-6);
        prev = cur;
    }
}

}  // namespace
}  // namespace hivemind::geo
