/**
 * @file
 * Tests for the application suite: specs, detection/learning models,
 * scenario worlds, and load patterns (src/apps).
 */

#include <gtest/gtest.h>

#include "apps/appspec.hpp"
#include "apps/detection.hpp"
#include "apps/workload.hpp"
#include "apps/world.hpp"

namespace hivemind::apps {
namespace {

TEST(AppSpec, TenApplications)
{
    const auto& apps = all_apps();
    ASSERT_EQ(apps.size(), 10u);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        EXPECT_EQ(apps[i].id, "S" + std::to_string(i + 1));
        EXPECT_GT(apps[i].work_core_ms, 0.0);
        EXPECT_GT(apps[i].task_rate_hz, 0.0);
        EXPECT_GE(apps[i].parallelism, 1);
        EXPECT_GT(apps[i].input_bytes, 0u);
    }
}

TEST(AppSpec, LookupById)
{
    EXPECT_EQ(app_by_id("S1").name, "Face Recognition");
    EXPECT_EQ(app_by_id("S10").name, "SLAM");
    EXPECT_THROW(app_by_id("S11"), std::invalid_argument);
    EXPECT_THROW(app_by_id(""), std::invalid_argument);
}

TEST(AppSpec, PaperCharacterization)
{
    // S3/S4/S7 are the edge-friendly trio of Secs. 2.3 / 5.1.
    EXPECT_TRUE(app_by_id("S3").edge_friendly);
    EXPECT_TRUE(app_by_id("S4").edge_friendly);
    EXPECT_TRUE(app_by_id("S7").edge_friendly);
    EXPECT_FALSE(app_by_id("S1").edge_friendly);
    // S4 gains from running in place (skips re-planning round trips).
    EXPECT_LT(app_by_id("S4").edge_work_factor, 1.0);
    // S7 is the shortest task (instantiation dominates, Fig. 6b);
    // S6 is long-running with a low rate (drones move slowly).
    const auto& apps = all_apps();
    for (const AppSpec& a : apps) {
        EXPECT_LE(app_by_id("S7").work_core_ms, a.work_core_ms);
    }
    EXPECT_GT(app_by_id("S6").work_core_ms, 500.0);
    EXPECT_LT(app_by_id("S6").task_rate_hz, 0.5);
    // S9/S10 have ample parallelism (Sec. 3.2).
    EXPECT_GE(app_by_id("S9").parallelism, 8);
    EXPECT_GE(app_by_id("S10").parallelism, 8);
}

TEST(Detection, NoRetrainStaysAtBase)
{
    DetectionModel m;
    EXPECT_DOUBLE_EQ(m.p_correct(), kBaseCorrect);
    m.observe(RetrainMode::None, 1000, 16000);
    EXPECT_DOUBLE_EQ(m.p_correct(), kBaseCorrect);
}

TEST(Detection, LearningImprovesAccuracy)
{
    DetectionModel m;
    double before = m.p_correct();
    m.observe(RetrainMode::Self, 400, 6400);
    double after = m.p_correct();
    EXPECT_GT(after, before);
    EXPECT_LE(after, kMaxCorrect);
}

TEST(Detection, SwarmLearnsFasterThanSelf)
{
    DetectionModel self_model;
    DetectionModel swarm_model;
    // Same per-device feedback; the swarm pools 16 devices' worth.
    self_model.observe(RetrainMode::Self, 100, 1600);
    swarm_model.observe(RetrainMode::Swarm, 100, 1600);
    EXPECT_GT(swarm_model.p_correct(), self_model.p_correct());
}

TEST(Detection, ErrorSplitSumsToResidual)
{
    DetectionModel m;
    EXPECT_NEAR(m.p_false_negative() + m.p_false_positive(),
                1.0 - m.p_correct(), 1e-12);
    // Most of the residual error is a miss.
    EXPECT_GT(m.p_false_negative(), m.p_false_positive());
}

TEST(Detection, ModeNames)
{
    EXPECT_STREQ(to_string(RetrainMode::None), "None");
    EXPECT_STREQ(to_string(RetrainMode::Self), "Self");
    EXPECT_STREQ(to_string(RetrainMode::Swarm), "Swarm");
}

TEST(ItemField, PlacementAndVisibility)
{
    sim::Rng rng(5);
    geo::Rect field{0, 0, 100, 100};
    ItemField items(field, 15, rng);
    EXPECT_EQ(items.item_count(), 15u);
    for (const geo::Vec2& p : items.items())
        EXPECT_TRUE(field.contains(p));
    // A footprint covering the whole field sees everything.
    std::vector<std::size_t> view;
    items.items_in_view({50, 50}, 200, 200, view);
    EXPECT_EQ(view.size(), 15u);
    // A tiny footprint far away sees nothing... unless unlucky. The
    // query replaces what the list held.
    items.items_in_view({-500, -500}, 1, 1, view);
    EXPECT_TRUE(view.empty());
}

TEST(ItemField, FoundTracking)
{
    sim::Rng rng(5);
    ItemField items(geo::Rect{0, 0, 10, 10}, 3, rng);
    EXPECT_EQ(items.found_count(), 0u);
    EXPECT_FALSE(items.all_found());
    items.mark_found(0);
    items.mark_found(0);  // Idempotent.
    EXPECT_EQ(items.found_count(), 1u);
    items.mark_found(1);
    items.mark_found(2);
    EXPECT_TRUE(items.all_found());
}

TEST(CrowdField, PopulationAndCounting)
{
    sim::Rng rng(6);
    CrowdField crowd(geo::Rect{0, 0, 50, 50}, 25, 1.4, rng);
    EXPECT_EQ(crowd.population(), 25u);
    std::vector<std::size_t> all;
    crowd.people_in_view(0, {25, 25}, 200, 200, all);
    EXPECT_EQ(all.size(), 25u);
    crowd.mark_counted(3);
    crowd.mark_counted(3);
    EXPECT_EQ(crowd.counted_count(), 1u);
}

TEST(CrowdField, PeopleMove)
{
    sim::Rng rng(6);
    CrowdField crowd(geo::Rect{0, 0, 50, 50}, 10, 1.4, rng);
    std::vector<std::size_t> t0, t1;
    crowd.people_in_view(0, {10, 10}, 8, 8, t0);
    crowd.people_in_view(120 * sim::kSecond, {10, 10}, 8, 8, t1);
    // Not a strict guarantee per person, but the sets differ with
    // overwhelming probability over two minutes.
    EXPECT_TRUE(t0 != t1 || t0.empty());
}

TEST(TreasureHunt, CourseLayout)
{
    sim::Rng rng(7);
    geo::Rect area{0, 0, 30, 30};
    TreasureHunt hunt(area, 5, rng);
    EXPECT_EQ(hunt.panel_count(), 5u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_TRUE(area.contains(hunt.panel(i)));
    double len = hunt.course_length({0, 0});
    EXPECT_GT(len, 0.0);
    // Triangle inequality: course length >= direct distance to final.
    geo::Vec2 origin{0, 0};
    double direct = origin.distance_to(hunt.final_target());
    EXPECT_GE(len, direct - 1e-9);
}

TEST(LoadPattern, ConstantAndInterpolation)
{
    LoadPattern p = LoadPattern::constant(5.0);
    EXPECT_DOUBLE_EQ(p.rate_at(0), 5.0);
    EXPECT_DOUBLE_EQ(p.rate_at(100 * sim::kSecond), 5.0);

    LoadPattern ramp;
    ramp.add(0, 0.0);
    ramp.add(10 * sim::kSecond, 10.0);
    EXPECT_DOUBLE_EQ(ramp.rate_at(5 * sim::kSecond), 5.0);
    EXPECT_DOUBLE_EQ(ramp.rate_at(20 * sim::kSecond), 10.0);
    EXPECT_DOUBLE_EQ(ramp.peak(), 10.0);
}

TEST(LoadPattern, FluctuatingShape)
{
    sim::Time dur = 400 * sim::kSecond;
    LoadPattern p = LoadPattern::fluctuating(1.0, 50.0, dur);
    EXPECT_DOUBLE_EQ(p.rate_at(0), 1.0);
    EXPECT_DOUBLE_EQ(p.rate_at(dur / 2), 50.0);
    EXPECT_DOUBLE_EQ(p.rate_at(dur), 1.0);
    EXPECT_GT(p.average(dur), 1.0);
    EXPECT_LT(p.average(dur), 50.0);
}

}  // namespace
}  // namespace hivemind::apps
