#include "metric/metric_space.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/session.hpp"
#include "graph/mst.hpp"
#include "graph/shortest_paths.hpp"
#include "metric/euclidean.hpp"
#include "metric/graph_metric.hpp"
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

TEST(EuclideanMetricTest, KnownDistances) {
    const EuclideanMetric m(2, {0.0, 0.0, 3.0, 4.0, 0.0, 1.0});
    EXPECT_EQ(m.size(), 3u);
    EXPECT_DOUBLE_EQ(m.distance(0, 1), 5.0);
    EXPECT_DOUBLE_EQ(m.distance(0, 2), 1.0);
    EXPECT_DOUBLE_EQ(m.distance(1, 2), std::sqrt(9.0 + 9.0));
    EXPECT_DOUBLE_EQ(m.distance(1, 1), 0.0);
    EXPECT_DOUBLE_EQ(m.squared_distance(0, 1), 25.0);
}

TEST(EuclideanMetricTest, PointAccessor) {
    const EuclideanMetric m(3, {1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
    const auto p = m.point(1);
    ASSERT_EQ(p.size(), 3u);
    EXPECT_DOUBLE_EQ(p[0], 4.0);
    EXPECT_THROW((void)m.point(2), std::out_of_range);
}

TEST(EuclideanMetricTest, RejectsBadShapes) {
    EXPECT_THROW(EuclideanMetric(0, {}), std::invalid_argument);
    EXPECT_THROW(EuclideanMetric(2, {1.0, 2.0, 3.0}), std::invalid_argument);
}

TEST(EuclideanMetricTest, RejectsNonFiniteCoordinatesNamingThePoint) {
    // Six 2D points with one poisoned coordinate (point 3's y): NaN, +inf
    // and -inf must each fail at construction, and the message must name
    // point 3 so a caller can find it.
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
        std::vector<double> coords = {0.0, 0.0, 1.0, 0.0, 0.0, 1.0,
                                      1.0, 1.0, 2.0, 0.0, 0.0, 2.0};
        coords[7] = bad;
        try {
            const EuclideanMetric m(2, std::move(coords));
            ADD_FAILURE() << "accepted coordinate " << bad;
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("point 3"), std::string::npos)
                << e.what();
        }
    }
}

/// Six distinct 2D points (x spans points 0 and 4) scaled by `scale`.
std::vector<double> six_points_scaled(double scale) {
    std::vector<double> coords = {0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 0.0, 0.0, 2.0};
    for (double& c : coords) c *= scale;
    return coords;
}

TEST(EuclideanMetricTest, RejectsSquaredExtentOutsideNormalDoubles) {
    // Scaled by 1e200 the squared extent overflows to inf; scaled by
    // 1e-200 it underflows to 0 although the points stay distinct. Both
    // must fail at construction, naming the axis and its two extreme
    // points, instead of returning empty spanners, throwing from a deep
    // layer or hanging downstream.
    for (const double scale : {1e200, 1e-200}) {
        try {
            const EuclideanMetric m(2, six_points_scaled(scale));
            ADD_FAILURE() << "accepted scale " << scale;
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("axis 0 spans points 0 and 4"),
                      std::string::npos)
                << e.what();
        }
    }
    // Coincident points have no extent to underflow.
    EXPECT_NO_THROW(EuclideanMetric(2, {1e-200, 1e-200, 1e-200, 1e-200}));
}

TEST(EuclideanMetricTest, LargeButRepresentableExtentStillBuilds) {
    // Scaled by 1e150 the squared extent (~8e300) is still finite: the
    // metric constructs and every algorithm that takes points spans them.
    // Scaled by 4e153 it (~1.28e308) is just inside the double range, so
    // even the square of twice the diagonal overflows: no builder may
    // square a length at input scale that can exceed the extent.
    for (const double scale : {1e150, 4e153}) {
        const EuclideanMetric m(2, six_points_scaled(scale));
        SpannerSession session;
        BuildOptions options;
        options.stretch = 2.0;
        for (const AlgorithmInfo* info : AlgorithmRegistry::global().algorithms()) {
            if (info->input == InputKind::kGraph) continue;
            const Graph h = AlgorithmRegistry::global().build(info->name, session,
                                                              BuildInput::of(m), options);
            EXPECT_GE(h.num_edges(), m.size() - 1) << info->name << " scale=" << scale;
            EXPECT_TRUE(std::isfinite(h.total_weight())) << info->name << " scale=" << scale;
        }
    }
}

TEST(EuclideanMetricTest, DistancesFromIsBitwiseDistance) {
    // The metric source's row weights come from distances_from, so they
    // must be distance() bit for bit: the candidate tie order and the
    // consistency of the engine's A* heuristic both rest on it. A
    // contracted FMA in either path (a missing -ffp-contract=off at an
    // FMA-capable -march) breaks it. Points: coincident pairs, -0.0
    // coordinates, denormal offsets and magnitudes up to 1e150, whose
    // squares reach 1e300; every target count from 0 to 33.
    constexpr double kDenormal = std::numeric_limits<double>::denorm_min();
    Rng rng(23);
    std::vector<double> coords;
    for (std::size_t i = 0; i < 40; ++i) {
        double x = (rng.uniform01() - 0.5) * 2e3;
        double y = (rng.uniform01() - 0.5) * 2e3;
        switch (i % 5) {
            case 0:
                y = -0.0;
                break;
            case 1:  // coincides with point i - 1, with +0.0 for its -0.0
                x = coords[coords.size() - 2];
                y = 0.0;
                break;
            case 2:
                x = kDenormal;
                y = -kDenormal;
                break;
            case 3:
                x = rng.uniform01() * 1e150;
                y = -rng.uniform01() * 1e150;
                break;
            default:
                break;
        }
        coords.push_back(x);
        coords.push_back(y);
    }
    const EuclideanMetric m(2, std::move(coords));
    for (VertexId src = 0; src < 5; ++src) {
        for (std::size_t n = 0; n <= 33; ++n) {
            std::vector<VertexId> targets(n);
            for (VertexId& t : targets) t = static_cast<VertexId>(rng.index(m.size()));
            std::vector<Weight> out(n, -1.0);
            m.distances_from(src, targets, out.data());
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                          std::bit_cast<std::uint64_t>(m.distance(src, targets[i])))
                    << "src " << src << " n=" << n << " target " << targets[i];
            }
        }
    }
}

TEST(EuclideanMetricTest, Make2dHelper) {
    const std::vector<std::pair<double, double>> pts = {{0, 0}, {1, 0}};
    const EuclideanMetric m = make_euclidean_2d(pts);
    EXPECT_EQ(m.size(), 2u);
    EXPECT_DOUBLE_EQ(m.distance(0, 1), 1.0);
}

TEST(EuclideanMetricTest, SatisfiesMetricAxioms) {
    Rng rng(5);
    const EuclideanMetric m = random_points(25, 3, rng);
    EXPECT_TRUE(check_metric(m).ok());
}

TEST(MatrixMetricTest, AcceptsValidMetric) {
    const MatrixMetric m({{0, 1, 2}, {1, 0, 1.5}, {2, 1.5, 0}});
    EXPECT_EQ(m.size(), 3u);
    EXPECT_DOUBLE_EQ(m.distance(0, 2), 2.0);
    EXPECT_TRUE(check_metric(m).ok());
}

TEST(MatrixMetricTest, RejectsNonSquare) {
    EXPECT_THROW(MatrixMetric({{0, 1}, {1, 0}, {2, 2}}), std::invalid_argument);
}

TEST(MatrixMetricTest, RejectsAsymmetry) {
    EXPECT_THROW(MatrixMetric({{0, 1}, {2, 0}}), std::invalid_argument);
}

TEST(MatrixMetricTest, RejectsNonzeroDiagonal) {
    EXPECT_THROW(MatrixMetric({{1, 1}, {1, 0}}), std::invalid_argument);
}

TEST(MatrixMetricTest, RejectsTriangleViolation) {
    // d(0,2)=10 > d(0,1)+d(1,2)=2.
    EXPECT_THROW(MatrixMetric({{0, 1, 10}, {1, 0, 1}, {10, 1, 0}}), std::invalid_argument);
    // Same matrix passes when triangle validation is off (documented escape
    // hatch for intermediate constructions).
    EXPECT_NO_THROW(MatrixMetric({{0, 1, 10}, {1, 0, 1}, {10, 1, 0}}, false));
}

TEST(CheckMetricTest, FlagsTriangleViolationMagnitude) {
    const MatrixMetric bad({{0, 1, 10}, {1, 0, 1}, {10, 1, 0}}, false);
    const MetricCheck c = check_metric(bad);
    EXPECT_FALSE(c.ok());
    EXPECT_FALSE(c.triangle);
    EXPECT_NEAR(c.worst_violation, 8.0, 1e-12);
}

TEST(GraphMetricTest, MatchesFloydWarshall) {
    Rng rng(13);
    Graph g(12);
    for (VertexId v = 1; v < 12; ++v) {
        g.add_edge(static_cast<VertexId>(rng.index(v)), v, rng.uniform(0.5, 3.0));
    }
    for (int extra = 0; extra < 8; ++extra) {
        const auto u = static_cast<VertexId>(rng.index(12));
        const auto v = static_cast<VertexId>(rng.index(12));
        if (u != v && !g.has_edge(u, v)) g.add_edge(u, v, rng.uniform(0.5, 3.0));
    }
    const GraphMetric m(g);
    const auto fw = floyd_warshall(g);
    for (VertexId i = 0; i < 12; ++i) {
        for (VertexId j = 0; j < 12; ++j) {
            EXPECT_NEAR(m.distance(i, j), fw[i][j], 1e-9);
        }
    }
    EXPECT_TRUE(check_metric(m).ok());
}

TEST(GraphMetricTest, RejectsDisconnected) {
    Graph g(3);
    g.add_edge(0, 1, 1.0);
    EXPECT_THROW(GraphMetric{g}, std::invalid_argument);
}

TEST(CompleteGraphTest, HasAllPairs) {
    const EuclideanMetric m(1, {0.0, 1.0, 3.0});
    const Graph g = complete_graph(m);
    EXPECT_EQ(g.num_vertices(), 3u);
    EXPECT_EQ(g.num_edges(), 3u);
    EXPECT_DOUBLE_EQ(g.total_weight(), 1.0 + 3.0 + 2.0);
}

TEST(MetricMstTest, MatchesKruskalOnCompleteGraph) {
    Rng rng(31);
    const EuclideanMetric m = random_points(40, 2, rng);
    const Weight implicit = metric_mst_weight(m);
    const Weight explicit_w = kruskal_mst(complete_graph(m)).weight;
    EXPECT_NEAR(implicit, explicit_w, 1e-9);
    const auto edges = metric_mst_edges(m);
    EXPECT_EQ(edges.size(), m.size() - 1);
    Weight sum = 0;
    for (const Edge& e : edges) sum += e.weight;
    EXPECT_NEAR(sum, implicit, 1e-9);
}

TEST(MetricExtremaTest, DiameterAndMinDistance) {
    const EuclideanMetric m(1, {0.0, 1.0, 10.0});
    EXPECT_DOUBLE_EQ(metric_diameter(m), 10.0);
    EXPECT_DOUBLE_EQ(metric_min_distance(m), 1.0);
}

}  // namespace
}  // namespace gsp
