// Stress instances: shapes chosen to break naive implementations --
// enormous aspect ratios, co-circular degeneracies, structured graphs,
// higher dimension. Every algorithm must keep its guarantee on all of them.
#include <gtest/gtest.h>

#include "analysis/audit.hpp"
#include "core/approx_greedy.hpp"
#include "core/greedy.hpp"
#include "core/greedy_metric.hpp"
#include "core/self_optimality.hpp"
#include "gen/graphs.hpp"
#include "gen/named_graphs.hpp"
#include "gen/points.hpp"
#include "graph/traversal.hpp"
#include "nets/net_hierarchy.hpp"
#include "spanners/baswana_sen.hpp"
#include "spanners/wspd_spanner.hpp"
#include "util/random.hpp"
#include "wspd/quadtree.hpp"
#include "wspd/wspd.hpp"

namespace gsp {
namespace {

TEST(StressTest, ExponentialSpiralFullPipeline) {
    // Aspect ratio ~1.5^25: buckets, nets and quadtrees all see dozens of
    // scales with mostly-empty levels.
    const EuclideanMetric spiral = exponential_spiral(100, 1.5);

    const Graph greedy = greedy_spanner_metric(spiral, 1.5);
    EXPECT_LE(max_stretch_metric(spiral, greedy), 1.5 + 1e-9);
    EXPECT_TRUE(removable_edges(greedy, 1.5).empty());

    const ApproxGreedyResult approx = approx_greedy_spanner(spiral, 0.5);
    EXPECT_LE(max_stretch_metric(spiral, approx.spanner), 1.5 + 1e-9);
    EXPECT_GT(approx.buckets, 5u);  // the aspect ratio actually exercised bucketing

    const NetHierarchy nets(spiral);
    EXPECT_TRUE(nets.check_invariants());

    const QuadTree tree(spiral);
    EXPECT_TRUE(tree.check_invariants());
    const auto pairs = well_separated_pairs(tree, 2.0);
    EXPECT_TRUE(check_unique_coverage(tree, pairs));
}

TEST(StressTest, CocircularPointsEverywhere) {
    // All points on one circle: ties and collinearities abound.
    const EuclideanMetric circ = circle_points(96, 50.0);
    const Graph greedy = greedy_spanner_metric(circ, 1.2);
    EXPECT_LE(max_stretch_metric(circ, greedy), 1.2 + 1e-9);
    const ApproxGreedyResult approx = approx_greedy_spanner(circ, 0.5);
    EXPECT_LE(max_stretch_metric(circ, approx.spanner), 1.5 + 1e-9);
    const Graph w = wspd_spanner(circ, 0.5);
    EXPECT_LE(max_stretch_metric(circ, w), 1.5 + 1e-9);
}

TEST(StressTest, GridPointsExactDuplicatedDistances) {
    // Integer grid: massive weight ties in the sorted pair list.
    const EuclideanMetric grid = grid_points(12, 12);
    const Graph h = greedy_spanner_metric(grid, 1.5);
    EXPECT_LE(max_stretch_metric(grid, h), 1.5 + 1e-9);
    // Fixpoint even with all the ties (deterministic tie-breaking).
    EXPECT_TRUE(same_edge_set(h, greedy_spanner(h, 1.5)));
}

TEST(StressTest, ThreeDimensionalDoublingBehaviour) {
    Rng rng(3);
    const EuclideanMetric pts = uniform_points(300, 3, 60.0, rng);
    const Graph h = greedy_spanner_metric(pts, 1.5);
    EXPECT_LE(max_stretch_metric(pts, h), 1.5 + 1e-9);
    // 3D constant is bigger than 2D's but still "a constant": edges/n well
    // below the complete graph's (n-1)/2.
    EXPECT_LT(static_cast<double>(h.num_edges()) / 300.0, 8.0);
    // Approximate-greedy must take the generic (net-spanner) base path in 3D.
    const ApproxGreedyResult r = approx_greedy_spanner(pts, 1.0);
    EXPECT_LE(max_stretch_metric(pts, r.spanner), 2.0 + 1e-9);
}

TEST(StressTest, BaswanaSenOnStructuredGraphs) {
    Rng rng(5);
    // Structured inputs have pathological clusterings; stretch must hold.
    const Graph grid = grid_graph(12, 12, {.lo = 1.0, .hi = 1.0}, rng);
    const Graph cube = hypercube_graph(7, {.lo = 1.0, .hi = 2.0}, rng);
    for (std::uint64_t seed : {1u, 2u}) {
        EXPECT_LE(max_stretch_over_edges(grid, baswana_sen_spanner(grid, 2, seed)),
                  3.0 + 1e-9);
        EXPECT_LE(max_stretch_over_edges(cube, baswana_sen_spanner(cube, 3, seed)),
                  5.0 + 1e-9);
    }
}

TEST(StressTest, GreedyOnHeavyTailWeights) {
    // Weights spanning six orders of magnitude: limit-based Dijkstra and
    // MST interplay under extreme scale mixes.
    Rng rng(7);
    Graph g(80);
    for (VertexId v = 1; v < 80; ++v) {
        g.add_edge(static_cast<VertexId>(rng.index(v)), v,
                   std::pow(10.0, rng.uniform(-3.0, 3.0)));
    }
    for (int extra = 0; extra < 400; ++extra) {
        const auto u = static_cast<VertexId>(rng.index(80));
        const auto v = static_cast<VertexId>(rng.index(80));
        if (u != v && !g.has_edge(u, v)) {
            g.add_edge(u, v, std::pow(10.0, rng.uniform(-3.0, 3.0)));
        }
    }
    for (double t : {1.5, 4.0}) {
        const Graph h = greedy_spanner(g, t);
        EXPECT_LE(max_stretch_over_edges(g, h), t + 1e-9);
        EXPECT_TRUE(contains_kruskal_mst(g, h));
        EXPECT_TRUE(removable_edges(h, t).empty());
    }
}

TEST(StressTest, ClusteredPointsApproxGreedy) {
    // Dense blobs with wide gaps: the weight buckets straddle the two
    // scales, and E0 gets exercised.
    Rng rng(11);
    const EuclideanMetric pts = clustered_points(400, 2, 5, 1000.0, 0.5, rng);
    const ApproxGreedyResult r = approx_greedy_spanner(pts, 0.5);
    EXPECT_LE(max_stretch_metric(pts, r.spanner), 1.5 + 1e-9);
    EXPECT_TRUE(is_connected(r.spanner));
}

TEST(StressTest, PetersenFamilyGreedyAcrossStretches) {
    // Unit-weight named graphs at the girth boundary: t just below girth-1
    // keeps everything, t just above starts pruning.
    const Graph p = petersen_graph();  // girth 5
    EXPECT_EQ(greedy_spanner(p, 3.9).num_edges(), 15u);
    EXPECT_LT(greedy_spanner(p, 4.0).num_edges(), 15u);
}

}  // namespace
}  // namespace gsp
