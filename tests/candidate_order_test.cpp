// Byte identity of every whole-list source and of the WSPD stream: the
// materialize() output must equal, byte for byte, an independent
// std::sort of the same candidates by the source's tie rule -- (weight,
// u, v) for the metric pairs, the base-spanner edges and the WSPD pairs,
// (weight, min, max, edge id) for graph edges. The metric source places
// its pairs into weight slices and sorts each slice on its own, so the
// inputs cover what can go wrong at a slice boundary: long equal-weight
// runs (a 0.1-spaced lattice, a two-valued metric), keys spread over
// about a thousand octaves (coordinates scaled by 1e-150 and by 1e150),
// and lists too short to fill one slice (n in {0, 1, 2, 3}).
#include "api/candidate_source.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "api/build_options.hpp"
#include "gen/graphs.hpp"
#include "gen/points.hpp"
#include "graph/graph.hpp"
#include "metric/graph_metric.hpp"
#include "metric/matrix_metric.hpp"
#include "metric/metric_space.hpp"
#include "util/random.hpp"
#include "wspd/quadtree.hpp"
#include "wspd/wspd.hpp"

namespace gsp {
namespace {

bool tie_less(const GreedyCandidate& a, const GreedyCandidate& b) {
    return std::tie(a.weight, a.u, a.v) < std::tie(b.weight, b.u, b.v);
}

std::vector<GreedyCandidate> materialized(CandidateSource& source) {
    std::vector<GreedyCandidate> out;
    source.materialize(out);
    return out;
}

void expect_same_bytes(const std::vector<GreedyCandidate>& got,
                       const std::vector<GreedyCandidate>& want, const std::string& label) {
    ASSERT_EQ(got.size(), want.size()) << label;
    if (got.empty()) return;  // memcmp must not see an empty vector's null data()
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(GreedyCandidate)), 0)
        << label;
}

/// Every pair i < j at the metric's own distance, sorted by (weight, u, v).
std::vector<GreedyCandidate> reference_pairs(const MetricSpace& m) {
    std::vector<GreedyCandidate> want;
    for (VertexId i = 0; i < m.size(); ++i) {
        for (VertexId j = i + 1; j < m.size(); ++j) {
            want.push_back(GreedyCandidate{i, j, m.distance(i, j)});
        }
    }
    std::sort(want.begin(), want.end(), tie_less);
    return want;
}

/// One candidate per well-separated pair: its representatives (min, max)
/// at their exact distance, sorted by (weight, u, v).
std::vector<GreedyCandidate> reference_wspd(const EuclideanMetric& m, double separation) {
    std::vector<GreedyCandidate> want;
    if (m.size() < 2) return want;
    const QuadTree tree(m);
    for (const WspdPair& p : well_separated_pairs(tree, separation)) {
        const VertexId a = tree.node(p.a).representative;
        const VertexId b = tree.node(p.b).representative;
        const VertexId u = std::min(a, b);
        const VertexId v = std::max(a, b);
        want.push_back(GreedyCandidate{u, v, m.distance(u, v)});
    }
    std::sort(want.begin(), want.end(), tie_less);
    return want;
}

/// The base spanner's edges heavier than D/n (D its heaviest edge), as
/// stored, sorted by (weight, u, v).
std::vector<GreedyCandidate> reference_heavy(const Graph& base) {
    std::vector<GreedyCandidate> want;
    Weight max_w = 0.0;
    for (const Edge& e : base.edges()) max_w = std::max(max_w, e.weight);
    const Weight threshold = max_w / static_cast<double>(base.num_vertices());
    for (const Edge& e : base.edges()) {
        if (e.weight > threshold) want.push_back(GreedyCandidate{e.u, e.v, e.weight});
    }
    std::sort(want.begin(), want.end(), tie_less);
    return want;
}

void expect_metric_sources_sorted(const MetricSpace& m, const std::string& label) {
    MetricCandidateSource metric(m);
    expect_same_bytes(materialized(metric), reference_pairs(m), label + " metric-pairs");

    BuildOptions options;
    BaseSpannerCandidateSource approx(m, options);
    expect_same_bytes(materialized(approx), reference_heavy(approx.base()),
                      label + " base-spanner-edges");
}

void expect_point_sources_sorted(const EuclideanMetric& pts, const std::string& label) {
    expect_metric_sources_sorted(pts, label);
    WspdCandidateSource wspd(pts, 8.0);
    expect_same_bytes(materialized(wspd), reference_wspd(pts, 8.0), label + " wspd-pairs");
}

EuclideanMetric scaled(const EuclideanMetric& pts, double factor) {
    std::vector<double> coords;
    for (VertexId i = 0; i < pts.size(); ++i) {
        for (const double x : pts.point(i)) coords.push_back(x * factor);
    }
    return EuclideanMetric(pts.dim(), std::move(coords));
}

TEST(CandidateOrderTest, UniformAndClusteredPoints) {
    Rng rng(7);
    expect_point_sources_sorted(uniform_points(400, 2, 200.0, rng), "uniform");
    expect_point_sources_sorted(clustered_points(400, 2, 6, 200.0, 2.0, rng), "clustered");
}

TEST(CandidateOrderTest, DecimalLatticeWithLongEqualWeightRuns) {
    std::vector<double> coords;
    for (int i = 0; i < 20; ++i) {
        for (int j = 0; j < 20; ++j) {
            coords.push_back(0.1 * i);
            coords.push_back(0.1 * j);
        }
    }
    const EuclideanMetric lattice(2, std::move(coords));
    // The runs really are long (decimal spacing is inexact, so a lattice
    // distance splits into a few runs an ulp apart, not one).
    const auto want = reference_pairs(lattice);
    std::size_t longest = 0;
    for (std::size_t i = 0, j = 0; i < want.size(); i = j) {
        while (j < want.size() && want[j].weight == want[i].weight) ++j;
        longest = std::max(longest, j - i);
    }
    EXPECT_GT(longest, 200u);
    expect_point_sources_sorted(lattice, "lattice");
}

TEST(CandidateOrderTest, ThreeDimensionalPoints) {
    Rng rng(11);
    const EuclideanMetric pts = uniform_points(300, 3, 100.0, rng);
    expect_metric_sources_sorted(pts, "3d");
}

TEST(CandidateOrderTest, MetricsThatAreNotEuclidean) {
    // Every distance in {1, 2} is a metric: two weights, each a run of
    // thousands of pairs in random (u, v) positions.
    Rng rng(13);
    const std::size_t n = 200;
    std::vector<std::vector<Weight>> matrix(n, std::vector<Weight>(n, 0.0));
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            matrix[i][j] = matrix[j][i] = rng.uniform01() < 0.5 ? 1.0 : 2.0;
        }
    }
    const MatrixMetric two_valued(std::move(matrix));
    MetricCandidateSource source(two_valued);
    expect_same_bytes(materialized(source), reference_pairs(two_valued), "two-valued");

    const Graph g = random_graph_nm(150, 600, {.lo = 1.0, .hi = 4.0}, rng);
    const GraphMetric paths(g);
    expect_metric_sources_sorted(paths, "graph metric");
}

TEST(CandidateOrderTest, KeysSpanningAThousandOctaves) {
    Rng rng(17);
    const EuclideanMetric unit = uniform_points(300, 2, 1.0, rng);
    expect_point_sources_sorted(scaled(unit, 1e-150), "1e-150");
    expect_point_sources_sorted(scaled(unit, 1e150), "1e150");
    // Half the points at each scale in one set: weights from ~1e-153 to
    // ~1e150 in one list.
    std::vector<double> coords;
    for (VertexId i = 0; i < unit.size(); ++i) {
        const double factor = i % 2 == 0 ? 1e-150 : 1e150;
        coords.push_back(unit.point(i)[0] * factor);
        coords.push_back(unit.point(i)[1] * factor);
    }
    const EuclideanMetric mixed(2, std::move(coords));
    const auto want = reference_pairs(mixed);
    EXPECT_GT(std::log2(want.back().weight / want.front().weight), 990.0);
    expect_metric_sources_sorted(mixed, "mixed scales");
}

TEST(CandidateOrderTest, TinyInputs) {
    for (std::size_t n = 0; n <= 3; ++n) {
        std::vector<double> coords;
        for (std::size_t i = 0; i < n; ++i) {
            coords.push_back(static_cast<double>(i * i));
            coords.push_back(1.0);
        }
        const EuclideanMetric pts(2, std::move(coords));
        expect_point_sources_sorted(pts, "n=" + std::to_string(n));
    }
}

TEST(CandidateOrderTest, NanWeightFailsWithOneClearError) {
    // A caller's metric that answers NaN for one pair: the placement has
    // no place for it, so the source refuses the list instead of ordering
    // it arbitrarily.
    struct NanPair final : MetricSpace {
        [[nodiscard]] std::size_t size() const override { return 50; }
        [[nodiscard]] Weight distance(VertexId i, VertexId j) const override {
            if (std::min(i, j) == 3 && std::max(i, j) == 7) return std::nan("");
            return 1.0 + std::abs(static_cast<double>(i) - static_cast<double>(j));
        }
    };
    const NanPair m;
    MetricCandidateSource source(m);
    std::vector<GreedyCandidate> out;
    EXPECT_THROW(source.materialize(out), std::invalid_argument);
}

TEST(CandidateOrderTest, MetricThatChangesBetweenPassesFailsInsteadOfWritingOutOfBounds) {
    // Each call answers a larger distance, so the count pass sees weights
    // the range pass never did.
    struct Drifting final : MetricSpace {
        [[nodiscard]] std::size_t size() const override { return 50; }
        [[nodiscard]] Weight distance(VertexId, VertexId) const override {
            return static_cast<double>(++calls);
        }
        mutable std::size_t calls = 0;
    };
    const Drifting m;
    MetricCandidateSource source(m);
    std::vector<GreedyCandidate> out;
    EXPECT_THROW(source.materialize(out), std::logic_error);
}

TEST(CandidateOrderTest, GraphEdgesKeepTheirIdTieRule) {
    // Weights from a small set, endpoints stored in either order, and a
    // parallel edge: the (weight, min, max, id) rule decides every tie.
    Rng rng(19);
    Graph g(60);
    for (int k = 0; k < 400; ++k) {
        const auto u = static_cast<VertexId>(rng.uniform_int(0, 59));
        const auto v = static_cast<VertexId>(rng.uniform_int(0, 59));
        if (u == v) continue;
        g.add_edge(u, v, static_cast<double>(1 + k % 3));
    }
    g.add_edge(g.edge(0).v, g.edge(0).u, g.edge(0).weight);
    std::vector<EdgeId> ids(g.num_edges());
    for (EdgeId i = 0; i < ids.size(); ++i) ids[i] = i;
    std::sort(ids.begin(), ids.end(), [&](EdgeId a, EdgeId b) {
        const Edge& ea = g.edge(a);
        const Edge& eb = g.edge(b);
        return std::make_tuple(ea.weight, std::min(ea.u, ea.v), std::max(ea.u, ea.v), a) <
               std::make_tuple(eb.weight, std::min(eb.u, eb.v), std::max(eb.u, eb.v), b);
    });
    std::vector<GreedyCandidate> want;
    for (const EdgeId id : ids) {
        want.push_back(GreedyCandidate{g.edge(id).u, g.edge(id).v, g.edge(id).weight});
    }
    GraphCandidateSource source(g);
    expect_same_bytes(materialized(source), want, "graph-edges");
}

}  // namespace
}  // namespace gsp
