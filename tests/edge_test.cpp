/**
 * @file
 * Tests for edge devices: battery, on-board executor, kinematics
 * (src/edge).
 */

#include <gtest/gtest.h>

#include "edge/battery.hpp"
#include "edge/device.hpp"
#include "sim/simulator.hpp"

namespace hivemind::edge {
namespace {

TEST(Battery, DrainAndDepletion)
{
    Battery b(100.0);
    EXPECT_DOUBLE_EQ(b.remaining_fraction(), 1.0);
    b.drain(25.0);
    EXPECT_DOUBLE_EQ(b.remaining_fraction(), 0.75);
    EXPECT_DOUBLE_EQ(b.consumed_percent(), 25.0);
    EXPECT_FALSE(b.depleted());
    b.drain(80.0);
    EXPECT_TRUE(b.depleted());
    EXPECT_DOUBLE_EQ(b.remaining_fraction(), 0.0);
    EXPECT_DOUBLE_EQ(b.consumed_percent(), 100.0);
}

TEST(Battery, NegativeDrainIgnored)
{
    Battery b(100.0);
    b.drain(-5.0);
    EXPECT_DOUBLE_EQ(b.used_j(), 0.0);
}

TEST(DeviceSpec, Presets)
{
    DeviceSpec drone = DeviceSpec::drone();
    DeviceSpec rover = DeviceSpec::rover();
    EXPECT_EQ(drone.kind, "drone");
    EXPECT_EQ(rover.kind, "rover");
    EXPECT_GT(drone.speed_mps, rover.speed_mps);
    EXPECT_GT(rover.cpu_speed_factor, drone.cpu_speed_factor);
    EXPECT_GT(drone.power.motion_w, rover.power.motion_w);  // Hovering.
    // Sec. 2.1 constants.
    EXPECT_DOUBLE_EQ(drone.speed_mps, 4.0);
    EXPECT_DOUBLE_EQ(drone.footprint_w, 6.7);
    EXPECT_DOUBLE_EQ(drone.footprint_h, 8.75);
}

TEST(OnboardExecutor, SlowerThanCloudCore)
{
    sim::Simulator s;
    sim::Rng rng(1);
    OnboardExecutor ex(s, rng, 0.12, 16);
    double latency = 0.0;
    ex.submit(120.0, [&](double l) { latency = l; });
    s.run();
    // 120 ms of reference work at 0.12x speed is ~1 s.
    EXPECT_GT(latency, 0.8);
    EXPECT_LT(latency, 1.3);
    EXPECT_EQ(ex.completed(), 1u);
    EXPECT_GT(ex.busy_seconds(), 0.8);
}

TEST(OnboardExecutor, FifoSingleCore)
{
    sim::Simulator s;
    sim::Rng rng(1);
    OnboardExecutor ex(s, rng, 1.0, 16);
    std::vector<int> order;
    ex.submit(10.0, [&](double) { order.push_back(1); });
    ex.submit(10.0, [&](double) { order.push_back(2); });
    ex.submit(10.0, [&](double) { order.push_back(3); });
    EXPECT_EQ(ex.depth(), 3u);
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(OnboardExecutor, QueueOverflowSheds)
{
    sim::Simulator s;
    sim::Rng rng(1);
    OnboardExecutor ex(s, rng, 1.0, 4);
    int completions = 0;
    for (int i = 0; i < 20; ++i)
        ex.submit(10.0, [&](double) { ++completions; });
    s.run();
    EXPECT_GT(ex.shed(), 0u);
    EXPECT_EQ(static_cast<std::uint64_t>(completions) + ex.shed(), 20u);
}

TEST(Device, RouteFollowing)
{
    sim::Simulator s;
    sim::Rng rng(2);
    Device dev(s, rng, 0, DeviceSpec::drone());
    dev.set_route({{0, 0}, {0, 40}, {10, 40}});
    // 50 m at 4 m/s -> 12.5 s.
    EXPECT_NEAR(dev.route_duration_s(), 12.5, 1e-9);
    geo::Vec2 p0 = dev.position_at(0);
    EXPECT_DOUBLE_EQ(p0.x, 0.0);
    geo::Vec2 mid = dev.position_at(5 * sim::kSecond);
    EXPECT_DOUBLE_EQ(mid.x, 0.0);
    EXPECT_NEAR(mid.y, 20.0, 1e-9);
    geo::Vec2 turn = dev.position_at(11 * sim::kSecond);
    EXPECT_NEAR(turn.y, 40.0, 1e-9);
    EXPECT_NEAR(turn.x, 4.0, 1e-9);
    geo::Vec2 end = dev.position_at(60 * sim::kSecond);
    EXPECT_NEAR(end.x, 10.0, 1e-9);
    EXPECT_TRUE(dev.route_done(13 * sim::kSecond));
    EXPECT_FALSE(dev.route_done(12 * sim::kSecond));
}

TEST(Device, EmptyAndSinglePointRoutes)
{
    sim::Simulator s;
    sim::Rng rng(2);
    Device dev(s, rng, 0, DeviceSpec::drone());
    geo::Vec2 p = dev.position_at(5 * sim::kSecond);
    EXPECT_DOUBLE_EQ(p.x, 0.0);
    dev.set_route({{3, 4}});
    EXPECT_DOUBLE_EQ(dev.position_at(sim::kSecond).x, 3.0);
    EXPECT_DOUBLE_EQ(dev.route_duration_s(), 0.0);
}

TEST(Device, EnergyAccounting)
{
    sim::Simulator s;
    sim::Rng rng(2);
    DeviceSpec spec = DeviceSpec::drone();
    Device dev(s, rng, 0, spec);
    dev.account_motion(10.0);
    dev.account_compute(4.0);
    dev.account_radio(1'000'000);
    dev.account_idle(10.0);
    double expected = spec.power.motion_w * 10.0 +
        spec.power.compute_w * 4.0 +
        spec.power.radio_j_per_byte * 1e6 + spec.power.idle_w * 10.0;
    EXPECT_NEAR(dev.battery().used_j(), expected, 1e-9);
    EXPECT_TRUE(dev.alive());
}

TEST(Device, BatteryDepletionKills)
{
    sim::Simulator s;
    sim::Rng rng(2);
    Device dev(s, rng, 0, DeviceSpec::drone());
    dev.account_motion(1e6);  // Way past capacity.
    EXPECT_TRUE(dev.battery().depleted());
    EXPECT_FALSE(dev.alive());
}

TEST(Device, FailureFlag)
{
    sim::Simulator s;
    sim::Rng rng(2);
    Device dev(s, rng, 0, DeviceSpec::drone());
    EXPECT_TRUE(dev.alive());
    dev.set_failed(true);
    EXPECT_FALSE(dev.alive());
    dev.set_failed(false);
    EXPECT_TRUE(dev.alive());
}

/** Property: flight duration scales linearly with route length. */
class RouteDurationProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(RouteDurationProperty, LinearInLength)
{
    sim::Simulator s;
    sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
    Device dev(s, rng, 0, DeviceSpec::drone());
    double len = 10.0 * GetParam();
    dev.set_route({{0, 0}, {len, 0}});
    EXPECT_NEAR(dev.route_duration_s(), len / 4.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Lengths, RouteDurationProperty,
                         ::testing::Values(1, 2, 5, 10, 50));

}  // namespace
}  // namespace hivemind::edge
