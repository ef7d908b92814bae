/**
 * @file
 * Tests for the workload algorithm core of embedding deduplication
 * (S5 / FaceNet's Euclidean-space clustering).
 */

#include <gtest/gtest.h>

#include "apps/embedding.hpp"

namespace hivemind {
namespace {

// ---------------------------------------------------------------------
// Embedding deduplication
// ---------------------------------------------------------------------

TEST(Embedding, DistanceBasics)
{
    apps::Embedding a{};
    apps::Embedding b{};
    EXPECT_DOUBLE_EQ(apps::embedding_distance(a, b), 0.0);
    b[0] = 3.0;
    b[1] = 4.0;
    EXPECT_DOUBLE_EQ(apps::embedding_distance(a, b), 5.0);
}

TEST(Embedding, IdentitiesRespectSeparation)
{
    sim::Rng rng(2);
    auto ids = apps::make_identities(20, 0.8, rng);
    ASSERT_EQ(ids.size(), 20u);
    for (std::size_t i = 0; i < ids.size(); ++i) {
        for (std::size_t j = i + 1; j < ids.size(); ++j) {
            EXPECT_GE(apps::embedding_distance(ids[i], ids[j]), 0.8);
        }
    }
}

TEST(Deduplicator, ExactSightingsCountExactly)
{
    sim::Rng rng(3);
    auto ids = apps::make_identities(10, 0.8, rng);
    apps::Deduplicator dedup(0.4);
    for (int round = 0; round < 5; ++round) {
        for (const auto& id : ids)
            dedup.submit(apps::observe(id, 0.0, rng));
    }
    EXPECT_EQ(dedup.unique_count(), 10u);
    EXPECT_EQ(dedup.sightings(), 50u);
}

TEST(Deduplicator, LowNoiseHighPrecisionAndRecall)
{
    sim::Rng rng(4);
    auto ids = apps::make_identities(15, 0.9, rng);
    apps::Deduplicator dedup(0.45);
    std::vector<std::size_t> truth;
    for (int round = 0; round < 8; ++round) {
        for (std::size_t p = 0; p < ids.size(); ++p) {
            dedup.submit(apps::observe(ids[p], 0.02, rng));
            truth.push_back(p);
        }
    }
    auto score = dedup.score(truth);
    EXPECT_GT(score.precision, 0.98);
    EXPECT_GT(score.recall, 0.98);
    EXPECT_EQ(dedup.unique_count(), 15u);
}

TEST(Deduplicator, HighNoiseFragmentsClusters)
{
    // When per-dimension noise rivals identity separation, the count
    // inflates (false "new people"): recall drops.
    sim::Rng rng(5);
    auto ids = apps::make_identities(10, 0.9, rng);
    apps::Deduplicator dedup(0.35);
    std::vector<std::size_t> truth;
    for (int round = 0; round < 10; ++round) {
        for (std::size_t p = 0; p < ids.size(); ++p) {
            dedup.submit(apps::observe(ids[p], 0.15, rng));
            truth.push_back(p);
        }
    }
    EXPECT_GT(dedup.unique_count(), 10u);
    EXPECT_LT(dedup.score(truth).recall, 0.95);
}

TEST(Deduplicator, HugeThresholdMergesEveryone)
{
    sim::Rng rng(6);
    auto ids = apps::make_identities(8, 0.8, rng);
    apps::Deduplicator dedup(100.0);
    for (const auto& id : ids)
        dedup.submit(apps::observe(id, 0.01, rng));
    EXPECT_EQ(dedup.unique_count(), 1u);
}

/** Property sweep: the threshold trades precision against recall. */
class ThresholdSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(ThresholdSweep, ScoresAreProbabilities)
{
    sim::Rng rng(7);
    auto ids = apps::make_identities(12, 0.9, rng);
    apps::Deduplicator dedup(GetParam());
    std::vector<std::size_t> truth;
    for (int round = 0; round < 6; ++round) {
        for (std::size_t p = 0; p < ids.size(); ++p) {
            dedup.submit(apps::observe(ids[p], 0.05, rng));
            truth.push_back(p);
        }
    }
    auto s = dedup.score(truth);
    EXPECT_GE(s.precision, 0.0);
    EXPECT_LE(s.precision, 1.0);
    EXPECT_GE(s.recall, 0.0);
    EXPECT_LE(s.recall, 1.0);
    EXPECT_GE(dedup.unique_count(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdSweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.8, 1.5));

}  // namespace
}  // namespace hivemind
