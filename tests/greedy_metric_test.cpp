#include "core/greedy_metric.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <tuple>

#include "analysis/audit.hpp"
#include "api/candidate_source.hpp"
#include "api/session.hpp"
#include "core/self_optimality.hpp"
#include "graph/graph.hpp"
#include "metric/euclidean.hpp"
#include "metric/matrix_metric.hpp"
#include "util/random.hpp"

namespace gsp {
namespace {

EuclideanMetric random_points(std::size_t n, std::size_t dim, Rng& rng) {
    std::vector<double> coords;
    coords.reserve(n * dim);
    for (std::size_t i = 0; i < n * dim; ++i) coords.push_back(rng.uniform(0.0, 100.0));
    return EuclideanMetric(dim, std::move(coords));
}

/// The unified-API spelling of the old use_distance_cache switch: cached =
/// the full engine (optionally parallel), naive = every optimisation off.
Graph metric_spanner_with(const MetricSpace& m, double t, bool cached,
                          std::size_t threads = 1, GreedyStats* stats = nullptr) {
    SpannerSession session;
    BuildOptions options;
    options.stretch = t;
    if (cached) {
        options.engine.num_threads = threads;
    } else {
        options.engine = EngineTuning::naive();
    }
    MetricCandidateSource source(m);
    BuildReport report;
    Graph h = session.build(source, options, &report);
    if (stats != nullptr) *stats = report.stats;
    return h;
}

TEST(GreedyMetricTest, RejectsStretchBelowOne) {
    const EuclideanMetric m(1, {0.0, 1.0});
    EXPECT_THROW(greedy_spanner_metric(m, 0.9), std::invalid_argument);
}

TEST(GreedyMetricTest, TrivialSizes) {
    const EuclideanMetric empty(1, {});
    EXPECT_EQ(greedy_spanner_metric(empty, 2.0).num_edges(), 0u);
    const EuclideanMetric one(1, {0.0});
    EXPECT_EQ(greedy_spanner_metric(one, 2.0).num_edges(), 0u);
    const EuclideanMetric two(1, {0.0, 5.0});
    const Graph h = greedy_spanner_metric(two, 2.0);
    EXPECT_EQ(h.num_edges(), 1u);
    EXPECT_DOUBLE_EQ(h.total_weight(), 5.0);
}

TEST(GreedyMetricTest, CollinearPointsLargeStretchGivesPath) {
    const EuclideanMetric line(1, {0.0, 1.0, 2.0, 3.0, 4.0});
    const Graph h = greedy_spanner_metric(line, 1.5);
    // On a line the path already has stretch exactly 1 -- nothing else enters.
    EXPECT_EQ(h.num_edges(), 4u);
    for (const Edge& e : h.edges()) EXPECT_DOUBLE_EQ(e.weight, 1.0);
}

TEST(GreedyMetricTest, StretchOneOnMetricGivesCompletePruning) {
    // Points 0, 1, 2 equally spaced: d(0,2) = 2 = d(0,1)+d(1,2), so the long
    // edge is redundant at t = 1 (witness path of equal weight exists).
    const EuclideanMetric line(1, {0.0, 1.0, 2.0});
    const Graph h = greedy_spanner_metric(line, 1.0);
    EXPECT_EQ(h.num_edges(), 2u);
}

// The heart of the Farshi-Gudmundsson acceleration claim: identical output.
class CacheEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t, std::size_t, double>> {
};

TEST_P(CacheEquivalenceTest, CachedAndNaiveAgreeExactly) {
    const auto [seed, n, dim, t] = GetParam();
    Rng rng(seed);
    const EuclideanMetric m = random_points(n, dim, rng);
    GreedyStats cached_stats;
    GreedyStats naive_stats;
    const Graph cached = metric_spanner_with(m, t, /*cached=*/true, 1, &cached_stats);
    const Graph naive = metric_spanner_with(m, t, /*cached=*/false, 1, &naive_stats);
    EXPECT_TRUE(same_edge_set(cached, naive));
    // The cache must never run *more* Dijkstras than the naive loop.
    EXPECT_LE(cached_stats.dijkstra_runs, naive_stats.dijkstra_runs);
}

INSTANTIATE_TEST_SUITE_P(RandomPointSets, CacheEquivalenceTest,
                         ::testing::Combine(::testing::Values(2u, 13u, 77u),
                                            ::testing::Values(20u, 45u),
                                            ::testing::Values(1u, 2u, 3u),
                                            ::testing::Values(1.1, 1.5, 2.0)));

TEST(GreedyMetricTest, ParallelCachedEngineMatchesNaiveAtEveryThreadCount) {
    // Acceptance criterion: greedy_spanner_metric with the incremental
    // store and group probes enabled is bit-identical to the naive kernel
    // at thread counts {1, 2, 4, hardware}.
    for (const std::uint64_t seed : {4u, 31u}) {
        Rng rng(seed);
        const EuclideanMetric m = random_points(48, 2, rng);
        const Graph naive = metric_spanner_with(m, 1.5, /*cached=*/false);
        for (const std::size_t threads : {1u, 2u, 4u, 0u}) {
            const Graph cached = metric_spanner_with(m, 1.5, /*cached=*/true, threads);
            EXPECT_TRUE(same_edge_set(cached, naive))
                << "seed " << seed << " num_threads=" << threads;
        }
    }
}

class GreedyMetricPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t, double>> {};

TEST_P(GreedyMetricPropertyTest, AllPairsStretchHolds) {
    const auto [seed, n, t] = GetParam();
    Rng rng(seed);
    const EuclideanMetric m = random_points(n, 2, rng);
    const Graph h = greedy_spanner_metric(m, t);
    EXPECT_LE(max_stretch_metric(m, h), t + 1e-9);
}

TEST_P(GreedyMetricPropertyTest, SharesMstWithMetric) {
    const auto [seed, n, t] = GetParam();
    Rng rng(seed ^ 0x1234);
    const EuclideanMetric m = random_points(n, 2, rng);
    const Graph h = greedy_spanner_metric(m, t);
    // Observations 2 + 6: H and M have a common MST, so equal MST weights.
    EXPECT_NEAR(metric_mst_gap(m, h), 0.0, 1e-9);
}

TEST_P(GreedyMetricPropertyTest, SpannerIsConnected) {
    const auto [seed, n, t] = GetParam();
    Rng rng(seed ^ 0x9999);
    const EuclideanMetric m = random_points(n, 2, rng);
    const Graph h = greedy_spanner_metric(m, t);
    EXPECT_GE(h.num_edges(), m.size() - 1);  // at least a spanning tree
}

INSTANTIATE_TEST_SUITE_P(RandomPointSets, GreedyMetricPropertyTest,
                         ::testing::Combine(::testing::Values(5u, 23u),
                                            ::testing::Values(15u, 40u),
                                            ::testing::Values(1.05, 1.25, 2.0)));

TEST(GreedyMetricTest, MatrixMetricInstanceWorks) {
    // A non-Euclidean metric: shortest-path closure of a weighted star plus
    // one heavy rim edge.
    const MatrixMetric m({{0, 1, 1, 1},
                          {1, 0, 1.8, 2},
                          {1, 1.8, 0, 2},
                          {1, 2, 2, 0}},
                         true);
    const Graph h = greedy_spanner_metric(m, 1.2);
    EXPECT_LE(max_stretch_metric(m, h), 1.2 + 1e-12);
}

}  // namespace
}  // namespace gsp
