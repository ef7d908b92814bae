/**
 * @file
 * Tour of the HiveMind DSL text front-end and the compiler path:
 * parse a .hm document, validate it, enumerate placements, and print
 * the C++ API stubs the synthesis engine generates (Sec. 4.1).
 *
 * Usage: dsl_tour [file.hm]   (runs a built-in document by default)
 */

#include <cstdio>

#include "dsl/parser.hpp"
#include "synth/api_synth.hpp"
#include "synth/explorer.hpp"

using namespace hivemind;

namespace {

const char* kBuiltinDoc = R"(# Crop-monitoring application (weed mapping).
taskgraph crop_monitor
constraint exec_time=60s cost=500

task collectMultispectral out=rawScans sensor work=6ms output=4MB
task stitchOrtho in=rawScans out=orthomosaic work=180ms input=4MB output=6MB parallelism=4
task weedSegmentation in=orthomosaic out=weedMask work=420ms input=6MB output=1MB parallelism=8 arg.model=unet_small
task sprayPlanner in=weedMask out=sprayPlan work=60ms input=1MB output=64KB
task actuateSprayer in=sprayPlan actuator work=10ms input=64KB

edge collectMultispectral stitchOrtho
edge stitchOrtho weedSegmentation
edge weedSegmentation sprayPlanner
edge sprayPlanner actuateSprayer

serial stitchOrtho weedSegmentation
learn weedSegmentation global
persist weedSegmentation
persist sprayPlanner
restore sprayPlanner checkpoint
priority actuateSprayer 9
)";

}  // namespace

int
main(int argc, char** argv)
{
    dsl::ParseResult parsed = argc > 1 ? dsl::parse_file(argv[1])
                                       : dsl::parse(kBuiltinDoc);
    if (!parsed.ok()) {
        for (const std::string& e : parsed.errors)
            std::fprintf(stderr, "parse error: %s\n", e.c_str());
        return 1;
    }
    dsl::TaskGraph& graph = parsed.graph;
    std::printf("Parsed task graph '%s' with %zu tasks.\n",
                graph.name().c_str(), graph.size());

    auto errors = graph.validate();
    if (!errors.empty()) {
        for (const std::string& e : errors)
            std::fprintf(stderr, "validation: %s\n", e.c_str());
        return 1;
    }
    std::printf("Validation: OK. Topological order:");
    auto topo = graph.topo_order();
    for (const std::string& t : *topo)
        std::printf(" %s", t.c_str());
    std::printf("\n\n");

    // Placement exploration (Sec. 4.2).
    auto placements = synth::enumerate_placements(graph);
    std::printf("Meaningful execution models: %zu (sensor source and "
                "actuator pinned to the edge)\n",
                placements.size());
    synth::PlacementExplorer explorer(graph);
    synth::Objective objective;
    objective.w_latency = 1.0;
    objective.w_energy = 0.02;
    auto best = explorer.best(objective);
    std::printf("Selected: %s\n  est. latency %.0f ms | device energy "
                "%.1f J | cloud cost %.1f | crossing %.1f MB\n\n",
                synth::describe(best.placement).c_str(),
                1000.0 * best.estimate.latency_s,
                best.estimate.edge_energy_j, best.estimate.cloud_cost,
                static_cast<double>(best.estimate.crossing_bytes) / 1e6);

    std::printf("Latency/energy Pareto frontier:\n");
    for (const auto& r : explorer.pareto()) {
        std::printf("  %7.0f ms  %7.1f J  %s\n",
                    1000.0 * r.estimate.latency_s,
                    r.estimate.edge_energy_j,
                    synth::describe(r.placement).c_str());
    }

    // API synthesis (Sec. 4.1).
    auto stubs = synth::synthesize_apis(graph, best.placement,
                                        /*use_remote_memory=*/true);
    std::printf("\nGenerated cross-task API header "
                "(%zu stubs):\n------------------------------------------"
                "--------------------------\n%s",
                stubs.size(),
                synth::render_api_header(graph, stubs).c_str());
    return 0;
}
