// Tests for Algorithm Approximate-Greedy (paper §5).
#include "core/approx_greedy.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "analysis/audit.hpp"
#include "api/candidate_source.hpp"
#include "api/session.hpp"
#include "core/greedy_metric.hpp"
#include "core/self_optimality.hpp"
#include "gen/hard_instances.hpp"
#include "gen/points.hpp"
#include "graph/traversal.hpp"
#include "util/random.hpp"

namespace gsp {
namespace {

/// Configured approximate-greedy through the unified API (one-shot
/// session).
ApproxGreedyResult approx_with(const MetricSpace& m, const ApproxParams& params,
                               std::size_t threads = 1) {
    SpannerSession session;
    BuildOptions options;
    options.approx = params;
    options.engine.num_threads = threads;
    return approx_greedy_build(session, m, options);
}

class ApproxGreedyStretchTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t, double>> {};

TEST_P(ApproxGreedyStretchTest, OverallStretchWithinOnePlusEps) {
    const auto [seed, n, eps] = GetParam();
    Rng rng(seed);
    const EuclideanMetric pts = uniform_points(n, 2, 100.0, rng);
    const ApproxGreedyResult r = approx_greedy_spanner(pts, eps);
    EXPECT_TRUE(is_connected(r.spanner));
    EXPECT_LE(max_stretch_metric(pts, r.spanner), 1.0 + eps + 1e-9);
    // The base's own budget must hold too.
    EXPECT_LE(max_stretch_metric(pts, r.base), r.t_base + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(UniformPoints, ApproxGreedyStretchTest,
                         ::testing::Combine(::testing::Values(2u, 31u),
                                            ::testing::Values(80u, 250u),
                                            ::testing::Values(0.3, 0.5, 1.0)));

TEST(ApproxGreedyTest, ParallelPipelineMatchesSerial) {
    // The engine's parallel prefilter stage must leave the simulation
    // bit-identical to the serial run.
    Rng rng(23);
    const EuclideanMetric pts = uniform_points(250, 2, 100.0, rng);
    const ApproxGreedyResult serial = approx_with(pts, ApproxParams{.epsilon = 0.5});
    for (const std::size_t threads : {2u, 4u}) {
        const ApproxGreedyResult par =
            approx_with(pts, ApproxParams{.epsilon = 0.5}, threads);
        EXPECT_TRUE(same_edge_set(par.spanner, serial.spanner)) << "threads=" << threads;
    }
}

TEST(ApproxGreedyTest, Lemma11GapHoldsForNonLightEdges) {
    // Every kept edge outside E0 must have its second-shortest path heavier
    // than t_sim * w(e) -- the exact invariant Lemma 13's lightness proof
    // consumes. removable_edges() finds any edge violating it.
    Rng rng(7);
    const EuclideanMetric pts = uniform_points(200, 2, 100.0, rng);
    const ApproxGreedyResult r = approx_greedy_spanner(pts, 0.5);
    const auto removable = removable_edges(r.spanner, r.t_sim);
    // Light edges (E0) may be removable; they are the first `light_edges`
    // ids of the spanner by construction. Nothing else may be.
    for (EdgeId id : removable) {
        EXPECT_LT(id, r.light_edges)
            << "non-E0 edge " << id << " violates the Lemma-11 gap";
    }
}

TEST(ApproxGreedyTest, SpannerIsSubgraphOfBase) {
    Rng rng(11);
    const EuclideanMetric pts = uniform_points(150, 2, 50.0, rng);
    const ApproxGreedyResult r = approx_greedy_spanner(pts, 0.5);
    for (const Edge& e : r.spanner.edges()) {
        EXPECT_TRUE(r.base.has_edge(e.u, e.v));
    }
    EXPECT_LE(r.spanner.num_edges(), r.base.num_edges());
}

TEST(ApproxGreedyTest, LightnessIsCloseToGreedy) {
    // Theorem 6's point: the approximate greedy pays only a constant factor
    // over the exact greedy in weight.
    Rng rng(13);
    const EuclideanMetric pts = uniform_points(250, 2, 100.0, rng);
    const ApproxGreedyResult r = approx_greedy_spanner(pts, 0.5);
    const Graph exact = greedy_spanner_metric(pts, 1.5);
    const double ratio = r.spanner.total_weight() / exact.total_weight();
    EXPECT_LT(ratio, 4.0);
    EXPECT_GE(ratio, 1.0 - 1e-9);  // approximate can't beat the optimal-ish greedy much
}

TEST(ApproxGreedyTest, GenericDoublingMetricPath) {
    // Non-Euclidean input exercises the net-spanner base (the paper's
    // doubling-metric extension -- its Theorem 6).
    const MatrixMetric star = geometric_star_metric(64, 1.6);
    const ApproxGreedyResult r =
        approx_with(star, ApproxParams{.epsilon = 0.5, .net_degree_cap = 16});
    EXPECT_LE(max_stretch_metric(star, r.spanner), 1.5 + 1e-9);
    // The greedy spanner's hub degree is n-1 = 63 here; approximate-greedy
    // inherits the base's bounded degree.
    const Graph exact = greedy_spanner_metric(star, 1.5);
    EXPECT_EQ(exact.max_degree(), star.size() - 1);
    EXPECT_LT(r.spanner.max_degree(), star.size() / 2);
}

TEST(ApproxGreedyTest, InputValidation) {
    Rng rng(1);
    const EuclideanMetric pts = uniform_points(10, 2, 1.0, rng);
    EXPECT_THROW(approx_greedy_spanner(pts, 0.0), std::invalid_argument);
    EXPECT_THROW(approx_greedy_spanner(pts, 1.5), std::invalid_argument);
}

TEST(ApproxGreedyTest, TrivialInputs) {
    const EuclideanMetric one(2, {0.0, 0.0});
    EXPECT_EQ(approx_greedy_spanner(one, 0.5).spanner.num_edges(), 0u);
    const EuclideanMetric two(2, {0.0, 0.0, 3.0, 0.0});
    const ApproxGreedyResult r = approx_greedy_spanner(two, 0.5);
    EXPECT_EQ(r.spanner.num_edges(), 1u);
}

TEST(ApproxGreedyTest, StatsAreCoherent) {
    Rng rng(19);
    const EuclideanMetric pts = uniform_points(200, 2, 100.0, rng);
    SpannerSession session;
    BuildOptions options;
    options.approx.epsilon = 0.5;
    BuildReport report;
    const ApproxGreedyResult r = approx_greedy_build(session, pts, options, &report);
    EXPECT_GT(r.buckets, 0u);
    // The engine decides every base edge that is not seeded into E0.
    EXPECT_EQ(report.stats.edges_examined + r.light_edges, r.base.num_edges());
    EXPECT_GE(r.seconds_total, r.seconds_base);
    EXPECT_NEAR(r.t_base * r.t_sim, 1.5, 1e-12);
}

}  // namespace
}  // namespace gsp
