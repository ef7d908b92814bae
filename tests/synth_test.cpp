/**
 * @file
 * Tests for program synthesis: placement enumeration, API synthesis,
 * the cost model, and the explorer (src/synth).
 */

#include <gtest/gtest.h>

#include "dsl/scenarios.hpp"
#include "platform/fnv.hpp"
#include "synth/api_synth.hpp"
#include "synth/cost_model.hpp"
#include "synth/explorer.hpp"
#include "synth/placement.hpp"

namespace hivemind::synth {
namespace {

dsl::TaskGraph
two_tier()
{
    dsl::TaskGraph g("ab");
    dsl::TaskDef a;
    a.name = "A";
    a.data_out = "x";
    a.work_core_ms = 100.0;
    a.output_bytes = 1u << 20;
    dsl::TaskDef b;
    b.name = "B";
    b.data_in = "x";
    b.work_core_ms = 200.0;
    b.parallelism = 8;
    g.add_task(a).add_task(b).add_edge("A", "B");
    return g;
}

TEST(Placement, TwoTierEnumeratesFourModels)
{
    // Sec. 4.2: "For a simple, 2-tier task graph (A -> B), HiveMind
    // would compose the APIs for a total of 4 end-to-end scenarios."
    auto placements = enumerate_placements(two_tier());
    EXPECT_EQ(placements.size(), 4u);
}

TEST(Placement, PinsReduceTheSpace)
{
    dsl::TaskGraph g = two_tier();
    g.place("A", dsl::PlacementHint::Edge);
    auto placements = enumerate_placements(g);
    ASSERT_EQ(placements.size(), 2u);
    for (const auto& p : placements)
        EXPECT_EQ(p.at("A"), Location::Edge);
}

TEST(Placement, SensorAndActuatorPinnedToEdge)
{
    dsl::TaskGraph g("s");
    dsl::TaskDef collect;
    collect.name = "collect";
    collect.sensor_source = true;
    dsl::TaskDef act;
    act.name = "steer";
    act.actuator_sink = true;
    dsl::TaskDef mid;
    mid.name = "infer";
    g.add_task(collect).add_task(mid).add_task(act);
    g.add_edge("collect", "infer").add_edge("infer", "steer");
    auto placements = enumerate_placements(g);
    ASSERT_EQ(placements.size(), 2u);  // Only "infer" is free.
    for (const auto& p : placements) {
        EXPECT_EQ(p.at("collect"), Location::Edge);
        EXPECT_EQ(p.at("steer"), Location::Edge);
    }
}

TEST(Placement, ScenarioBSpaceRespectsListing3Pins)
{
    dsl::TaskGraph g = dsl::scenario_b_graph();
    // collectImage is a sensor source; obstacleAvoidance is pinned to
    // the edge and an actuator. Free: createRoute, faceRecognition,
    // deduplication -> 8 placements.
    auto placements = enumerate_placements(g);
    EXPECT_EQ(placements.size(), 8u);
}

TEST(Placement, CrossingCount)
{
    dsl::TaskGraph g = two_tier();
    PlacementAssignment same{{"A", Location::Cloud}, {"B", Location::Cloud}};
    PlacementAssignment split{{"A", Location::Edge}, {"B", Location::Cloud}};
    EXPECT_EQ(count_crossings(g, same), 0u);
    EXPECT_EQ(count_crossings(g, split), 1u);
}

TEST(Placement, DescribeIsStable)
{
    PlacementAssignment p{{"A", Location::Edge}, {"B", Location::Cloud}};
    EXPECT_EQ(describe(p), "A@Edge,B@Cloud");
}

TEST(ApiSynth, KindsFollowPlacement)
{
    dsl::TaskGraph g = two_tier();
    PlacementAssignment split{{"A", Location::Edge}, {"B", Location::Cloud}};
    auto stubs = synthesize_apis(g, split, false);
    ASSERT_EQ(stubs.size(), 1u);
    EXPECT_EQ(stubs[0].kind, ApiKind::ThriftRpc);

    PlacementAssignment cloud{{"A", Location::Cloud}, {"B", Location::Cloud}};
    stubs = synthesize_apis(g, cloud, false);
    ASSERT_EQ(stubs.size(), 1u);
    EXPECT_EQ(stubs[0].kind, ApiKind::OpenWhiskAction);

    stubs = synthesize_apis(g, cloud, true);
    EXPECT_EQ(stubs[0].kind, ApiKind::RemoteMemory);

    PlacementAssignment edge{{"A", Location::Edge}, {"B", Location::Edge}};
    stubs = synthesize_apis(g, edge, false);
    EXPECT_EQ(stubs[0].kind, ApiKind::LocalCall);
}

TEST(ApiSynth, RenderedHeaderMentionsEveryApi)
{
    dsl::TaskGraph g = dsl::scenario_b_graph();
    PlacementAssignment p;
    for (const std::string& n : g.task_names())
        p[n] = Location::Cloud;
    auto stubs = synthesize_apis(g, p, false);
    EXPECT_EQ(stubs.size(), 4u);  // Four edges in the Listing 3 graph.
    std::string header = render_api_header(g, stubs);
    for (const ApiStub& s : stubs)
        EXPECT_NE(header.find(s.name), std::string::npos);
    EXPECT_NE(header.find("#pragma once"), std::string::npos);
}

TEST(CostModel, AllCloudPaysNetworkOnce)
{
    dsl::TaskGraph g = two_tier();
    PlacementAssignment cloud{{"A", Location::Cloud}, {"B", Location::Cloud}};
    PlacementAssignment edge{{"A", Location::Edge}, {"B", Location::Edge}};
    auto cloud_est = estimate_placement(g, cloud);
    auto edge_est = estimate_placement(g, edge);
    EXPECT_EQ(cloud_est.crossing_bytes, 0u);
    EXPECT_EQ(edge_est.crossing_bytes, 0u);
    EXPECT_GT(cloud_est.cloud_cost, 0.0);
    EXPECT_DOUBLE_EQ(edge_est.cloud_cost, 0.0);
    EXPECT_GT(edge_est.edge_energy_j, 0.0);
    // Slow edge CPU makes all-edge slower for this compute-heavy app.
    EXPECT_GT(edge_est.latency_s, cloud_est.latency_s);
}

TEST(CostModel, CrossingAddsBytesAndEnergy)
{
    dsl::TaskGraph g = two_tier();
    PlacementAssignment split{{"A", Location::Edge}, {"B", Location::Cloud}};
    auto est = estimate_placement(g, split);
    EXPECT_EQ(est.crossing_bytes, 1u << 20);
    EXPECT_GT(est.edge_energy_j, 0.0);
}

TEST(CostModel, ParallelismShortensCloudLatency)
{
    dsl::TaskGraph g = two_tier();
    PlacementAssignment cloud{{"A", Location::Cloud}, {"B", Location::Cloud}};
    auto with_par = estimate_placement(g, cloud);
    g.task("B").parallelism = 1;
    auto without = estimate_placement(g, cloud);
    EXPECT_LT(with_par.latency_s, without.latency_s);
}

TEST(CostModel, EstimatesArePinned)
{
    // Pins the cost model's estimate of every placement of the four
    // scenario graphs. A change to any constant the model reads, or
    // to the order of an expression, moves this digest.
    namespace fnv = platform::fnv;
    std::uint64_t hash = fnv::kBasis;
    for (const dsl::TaskGraph& g :
         {dsl::scenario_a_graph(), dsl::scenario_b_graph(),
          dsl::treasure_hunt_graph(), dsl::rover_maze_graph()}) {
        for (const PlacementAssignment& p : enumerate_placements(g)) {
            PlacementEstimate est = estimate_placement(g, p);
            fnv::mix(hash, fnv::bits(est.latency_s));
            fnv::mix(hash, fnv::bits(est.edge_energy_j));
            fnv::mix(hash, fnv::bits(est.cloud_cost));
            fnv::mix(hash, est.crossing_bytes);
        }
    }
    EXPECT_EQ(hash, 0x2e5998f395ae01e3ull) << std::hex << "0x" << hash;
}

TEST(Explorer, BestRespectsObjective)
{
    dsl::TaskGraph g = two_tier();
    PlacementExplorer explorer(g);
    Objective latency_obj;
    auto best_latency = explorer.best(latency_obj);
    // Latency-optimal: everything in the cloud for heavy compute.
    EXPECT_EQ(best_latency.placement.at("B"), Location::Cloud);

    Objective energy_obj;
    energy_obj.w_latency = 0.0;
    energy_obj.w_energy = 1.0;
    auto best_energy = explorer.best(energy_obj);
    // Energy-optimal placement can differ; it must not consume more
    // energy than the latency-optimal one.
    EXPECT_LE(best_energy.estimate.edge_energy_j,
              best_latency.estimate.edge_energy_j + 1e-12);
}

TEST(Explorer, ExploreAllCoversSpace)
{
    dsl::TaskGraph g = dsl::scenario_b_graph();
    PlacementExplorer explorer(g);
    auto all = explorer.explore_all();
    EXPECT_EQ(all.size(), 8u);
    for (const auto& r : all)
        EXPECT_GT(r.estimate.latency_s, 0.0);
}

TEST(Explorer, ParetoFrontierIsNonDominated)
{
    dsl::TaskGraph g = dsl::scenario_b_graph();
    PlacementExplorer explorer(g);
    auto frontier = explorer.pareto();
    ASSERT_FALSE(frontier.empty());
    for (const auto& a : frontier) {
        for (const auto& b : frontier) {
            if (&a == &b)
                continue;
            bool dominates =
                b.estimate.latency_s <= a.estimate.latency_s &&
                b.estimate.edge_energy_j <= a.estimate.edge_energy_j &&
                (b.estimate.latency_s < a.estimate.latency_s ||
                 b.estimate.edge_energy_j < a.estimate.edge_energy_j);
            EXPECT_FALSE(dominates);
        }
    }
    // Frontier is sorted by latency.
    for (std::size_t i = 1; i < frontier.size(); ++i) {
        EXPECT_GE(frontier[i].estimate.latency_s,
                  frontier[i - 1].estimate.latency_s);
    }
}

TEST(Explorer, ParetoTiesKeepExploreAllOrder)
{
    // Five free tasks give 32 placements, past the size where an
    // unstable sort stops behaving like insertion sort. Every estimate
    // is one of two equal points, so all 32 sit on the frontier and
    // only a stable sort reproduces the enumeration order.
    dsl::TaskGraph g("chain");
    for (int i = 0; i < 5; ++i) {
        dsl::TaskDef t;
        t.name = "t" + std::to_string(i);
        g.add_task(t);
        if (i > 0)
            g.add_edge("t" + std::to_string(i - 1), t.name);
    }
    PlacementExplorer explorer(g);
    explorer.set_profiler([](const dsl::TaskGraph&,
                             const PlacementAssignment& p) {
        bool cloud = p.at("t0") == Location::Cloud;
        PlacementEstimate e;
        e.latency_s = cloud ? 1.0 : 2.0;
        e.edge_energy_j = cloud ? 2.0 : 1.0;
        return e;
    });
    std::vector<PlacementAssignment> expected;
    for (double latency : {1.0, 2.0})
        for (const ExplorationResult& r : explorer.explore_all())
            if (r.estimate.latency_s == latency)
                expected.push_back(r.placement);
    auto frontier = explorer.pareto();
    ASSERT_EQ(frontier.size(), 32u);
    for (std::size_t i = 0; i < frontier.size(); ++i)
        EXPECT_EQ(frontier[i].placement, expected[i]) << "rank " << i;
}

TEST(Explorer, ProfilerOverrides)
{
    dsl::TaskGraph g = two_tier();
    PlacementExplorer explorer(g);
    explorer.set_profiler([](const dsl::TaskGraph&,
                             const PlacementAssignment& p) {
        PlacementEstimate e;
        // Make all-edge artificially optimal.
        e.latency_s =
            p.at("B") == Location::Edge ? 0.001 : 100.0;
        return e;
    });
    auto best = explorer.best(Objective{});
    EXPECT_EQ(best.placement.at("B"), Location::Edge);
}

TEST(Explorer, InfeasibleFallback)
{
    dsl::TaskGraph g = two_tier();
    dsl::GraphConstraints c;
    c.latency_s = 1e-9;  // Impossible.
    g.constrain(c);
    PlacementExplorer explorer(g);
    auto best = explorer.best(Objective{});
    EXPECT_FALSE(best.feasible);
    EXPECT_FALSE(best.placement.empty());
}

/** Property: enumeration size is 2^(free tasks). */
class EnumerationSize : public ::testing::TestWithParam<int>
{
};

TEST_P(EnumerationSize, PowerOfTwo)
{
    dsl::TaskGraph g("chain");
    int n = GetParam();
    std::string prev;
    for (int i = 0; i < n; ++i) {
        dsl::TaskDef t;
        t.name = "t" + std::to_string(i);
        g.add_task(t);
        if (!prev.empty())
            g.add_edge(prev, t.name);
        prev = t.name;
    }
    auto placements = enumerate_placements(g);
    EXPECT_EQ(placements.size(), 1ull << n);
    // All placements distinct.
    for (std::size_t i = 0; i < placements.size(); ++i) {
        for (std::size_t j = i + 1; j < placements.size(); ++j)
            EXPECT_NE(placements[i], placements[j]);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EnumerationSize,
                         ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
}  // namespace hivemind::synth
