// Cross-module integration tests: properties that tie several subsystems
// together, mirroring how the paper's arguments compose.
#include <gtest/gtest.h>

#include "analysis/audit.hpp"
#include "core/greedy.hpp"
#include "core/greedy_metric.hpp"
#include "core/self_optimality.hpp"
#include "exact/optimal_spanner.hpp"
#include "gen/graphs.hpp"
#include "gen/hard_instances.hpp"
#include "gen/incidence.hpp"
#include "gen/named_graphs.hpp"
#include "gen/points.hpp"
#include "graph/girth.hpp"
#include "graph/mst.hpp"
#include "metric/doubling.hpp"
#include "metric/graph_metric.hpp"
#include "util/random.hpp"

namespace gsp {
namespace {

TEST(IntegrationTest, GreedyOutputIsInsertionOrderInvariant) {
    // Ties are broken by (weight, canonical endpoints), never by edge id,
    // so shuffling the input edge list cannot change the spanner.
    Rng rng(5);
    const Graph g = erdos_renyi(40, 0.3, {.lo = 1.0, .hi = 1.0}, rng);  // all ties!
    std::vector<Edge> edges(g.edges().begin(), g.edges().end());
    Rng shuffle_rng(9);
    shuffle_rng.shuffle(edges);
    const Graph shuffled(g.num_vertices(), edges);
    for (double t : {1.5, 3.0}) {
        EXPECT_TRUE(same_edge_set(greedy_spanner(g, t), greedy_spanner(shuffled, t)))
            << "t=" << t;
    }
}

TEST(IntegrationTest, Observation9DoublingDimensionAtMostDoubles) {
    // The metric induced by a t-spanner (t <= 2) has ddim <= 2 * ddim(M).
    // Executable form with greedy (1.5)-spanners of 2D point sets, using
    // the packing lower bound vs the cover upper bound consistently.
    Rng rng(11);
    const EuclideanMetric pts = uniform_points(80, 2, 50.0, rng);
    const DoublingEstimate base = estimate_doubling(pts);
    const Graph h = greedy_spanner_metric(pts, 1.5);
    const GraphMetric mh(h);
    const DoublingEstimate stretched = estimate_doubling(mh);
    // Compare like-for-like estimates with the observation's factor 2
    // (plus 1 for estimator noise).
    EXPECT_LE(stretched.ddim_upper(), 2.0 * base.ddim_upper() + 1.0);
}

TEST(IntegrationTest, StretchComposesMultiplicatively) {
    // A t2-spanner of (the metric of) a t1-spanner is a t1*t2-spanner of
    // the original -- the "transitivity" §5.1 relies on.
    Rng rng(13);
    const EuclideanMetric pts = uniform_points(70, 2, 50.0, rng);
    const Graph h1 = greedy_spanner_metric(pts, 1.3);
    const GraphMetric m1(h1);
    const Graph h2 = greedy_spanner_metric(m1, 1.4);
    // h2's edges are pairs of M_H1; map them back onto h1 paths? h2 is a
    // graph over the same vertex ids with metric weights, so measuring it
    // against the original metric directly is the composition claim.
    EXPECT_LE(max_stretch_metric(pts, h2), 1.3 * 1.4 + 1e-9);
}

TEST(IntegrationTest, ExactSolverConfirmsGirthRigidity) {
    // PG(2,2) incidence graph: girth 6, so at t = 3 *every* edge is forced
    // and the exact optimum is the graph itself -- instantly, because the
    // branch-and-bound's forced-edge preprocessing proves it.
    const Graph g = projective_plane_incidence(2);
    const auto r = optimal_spanner(g, 3.0);
    EXPECT_TRUE(r.proven_optimal);
    EXPECT_EQ(r.spanner.num_edges(), g.num_edges());
    // And the greedy finds the same thing (it IS optimal here).
    EXPECT_EQ(greedy_spanner(g, 3.0).num_edges(), g.num_edges());
}

TEST(IntegrationTest, TreeInputIsItsOwnGreedySpanner) {
    Rng rng(17);
    Graph tree(60);
    for (VertexId v = 1; v < 60; ++v) {
        tree.add_edge(static_cast<VertexId>(rng.index(v)), v, rng.uniform(0.5, 3.0));
    }
    for (double t : {1.0, 2.0, 10.0}) {
        EXPECT_TRUE(same_edge_set(greedy_spanner(tree, t), tree));
        EXPECT_TRUE(removable_edges(tree, t).empty());
    }
}

TEST(IntegrationTest, HugeStretchMetricGreedyIsMetricMst) {
    Rng rng(19);
    const EuclideanMetric pts = uniform_points(50, 2, 20.0, rng);
    const Graph h = greedy_spanner_metric(pts, 1e9);
    EXPECT_EQ(h.num_edges(), pts.size() - 1);
    EXPECT_NEAR(h.total_weight(), metric_mst_weight(pts), 1e-9);
}

TEST(IntegrationTest, SampledStretchIsConsistentWithExact) {
    Rng rng(23);
    const EuclideanMetric pts = uniform_points(60, 2, 50.0, rng);
    const Graph h = greedy_spanner_metric(pts, 1.5);
    const double exact = max_stretch_metric(pts, h);
    const double sampled = max_stretch_metric_sampled(pts, h, 10, 7);
    EXPECT_LE(sampled, exact + 1e-12);        // sampling can only miss the max
    const double full = max_stretch_metric_sampled(pts, h, pts.size(), 7);
    EXPECT_DOUBLE_EQ(full, exact);            // sources >= n falls back to exact
}

TEST(IntegrationTest, GreedySpannerOfDisconnectedMetricCompletionGraph) {
    // A disconnected *graph* whose components are metric completions: the
    // greedy must span each component and the components must stay apart.
    Rng rng(31);
    Graph g(20);
    for (VertexId i = 0; i < 10; ++i) {
        for (VertexId j = i + 1; j < 10; ++j) {
            g.add_edge(i, j, rng.uniform(1.0, 2.0));
            g.add_edge(i + 10, j + 10, rng.uniform(1.0, 2.0));
        }
    }
    const Graph h = greedy_spanner(g, 2.0);
    EXPECT_LE(max_stretch_over_edges(g, h), 2.0 + 1e-9);
    for (const Edge& e : h.edges()) {
        EXPECT_EQ(e.u < 10, e.v < 10) << "edge crosses components";
    }
}

TEST(IntegrationTest, Figure1GreedyIsLemma3Fixpoint) {
    // The Figure-1 greedy spanner -- despite being 1.67x larger than the
    // optimum -- is itself un-improvable, which is the paper's whole point.
    const auto inst = figure1_instance(petersen_graph(), 0.1);
    const Graph h = greedy_spanner(inst.graph, 3.0);
    EXPECT_TRUE(greedy_is_fixpoint(inst.graph, 3.0));
    EXPECT_TRUE(removable_edges(h, 3.0).empty());
    EXPECT_TRUE(contains_kruskal_mst(inst.graph, h));
}

}  // namespace
}  // namespace gsp
