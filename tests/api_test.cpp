// Tests for the unified API layer (src/api): BuildOptions validation, the
// candidate-source seam, SpannerSession warm-start counters, BuildReport
// (reset-per-run + JSON), and the algorithm registry.
#include "api/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/audit.hpp"
#include "api/build_options.hpp"
#include "api/build_report.hpp"
#include "api/candidate_source.hpp"
#include "api/registry.hpp"
#include "core/greedy.hpp"
#include "core/greedy_metric.hpp"
#include "gen/graphs.hpp"
#include "gen/points.hpp"
#include "metric/euclidean.hpp"
#include "metric/matrix_metric.hpp"
#include "spanners/reroute.hpp"
#include "util/random.hpp"

namespace gsp {
namespace {

TEST(BuildOptionsTest, ValidatesTheSharedFields) {
    BuildOptions ok;
    EXPECT_NO_THROW(ok.validate());

    BuildOptions bad_stretch;
    bad_stretch.stretch = 0.5;
    EXPECT_THROW(bad_stretch.validate(), std::invalid_argument);

    // NaN fails every comparison, so only a NaN-proof check catches it.
    BuildOptions nan_stretch;
    nan_stretch.stretch = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(nan_stretch.validate(), std::invalid_argument);

    BuildOptions bad_chunk;
    bad_chunk.engine.chunk_soft_cap = 0;
    EXPECT_THROW(bad_chunk.validate(), std::invalid_argument);
}

TEST(BuildOptionsTest, SectionsAreValidatedOnlyByTheirConsumers) {
    // A build must never be vetoed by a section it does not consume: a
    // theta build with a nonsense approx section goes through, while the
    // same options fail on the algorithm that actually reads the section.
    Rng rng(4);
    const EuclideanMetric pts = uniform_points(24, 2, 10.0, rng);
    const Graph g = erdos_renyi(24, 0.3, {.lo = 1.0, .hi = 2.0}, rng);
    SpannerSession session;
    const AlgorithmRegistry& registry = AlgorithmRegistry::global();

    BuildOptions options;
    options.approx.epsilon = 2.0;   // invalid for greedy-approx only
    options.baswana_sen.k = 0;      // invalid for baswana-sen only
    EXPECT_NO_THROW(registry.build("theta", session, BuildInput::of(pts), options));
    EXPECT_NO_THROW(registry.build("greedy", session, BuildInput::of(g), options));
    EXPECT_THROW(registry.build("greedy-approx", session, BuildInput::of(pts), options),
                 std::invalid_argument);
    EXPECT_THROW(registry.build("baswana-sen", session, BuildInput::of(g), options),
                 std::invalid_argument);
    BuildOptions theta_opts;
    theta_opts.geometric.cones = 3;
    EXPECT_THROW(registry.build("theta", session, BuildInput::of(pts), theta_opts),
                 std::invalid_argument);
}

TEST(RegistryTest, CoversTheAdvertisedAlgorithms) {
    const AlgorithmRegistry& registry = AlgorithmRegistry::global();
    std::set<std::string> names;
    for (const AlgorithmInfo* info : registry.algorithms()) {
        names.insert(std::string(info->name));
        EXPECT_EQ(registry.find(info->name), info);
    }
    for (const char* expected :
         {"greedy", "greedy-metric", "greedy-approx", "greedy-wspd", "theta", "yao",
          "wspd", "net", "baswana-sen"}) {
        EXPECT_TRUE(names.count(expected)) << expected << " missing from the registry";
    }
    EXPECT_EQ(registry.find("no-such-algorithm"), nullptr);
}

TEST(RegistryTest, RejectsUnknownNamesAndInputMismatches) {
    Rng rng(3);
    const Graph g = erdos_renyi(20, 0.3, {.lo = 1.0, .hi = 2.0}, rng);
    const EuclideanMetric pts = uniform_points(20, 3, 10.0, rng);  // 3D on purpose
    const MatrixMetric mat({{0, 1, 2}, {1, 0, 1}, {2, 1, 0}}, true);
    SpannerSession session;
    const BuildOptions options;
    const AlgorithmRegistry& registry = AlgorithmRegistry::global();

    EXPECT_THROW(registry.build("nope", session, BuildInput::of(g), options),
                 std::invalid_argument);
    // greedy needs a graph; theta needs a *2D* Euclidean metric; greedy-wspd
    // accepts any-dimension Euclidean but not a matrix metric.
    EXPECT_THROW(registry.build("greedy", session, BuildInput::of(pts), options),
                 std::invalid_argument);
    EXPECT_THROW(registry.build("theta", session, BuildInput::of(pts), options),
                 std::invalid_argument);
    EXPECT_THROW(registry.build("greedy-wspd", session, BuildInput::of(mat), options),
                 std::invalid_argument);
    EXPECT_NO_THROW(registry.build("greedy-wspd", session, BuildInput::of(pts), options));
}

TEST(RegistryTest, DuplicatePointsFailAtTheFrontDoorWithOneMessage) {
    // Two coincident points among six: every point algorithm fails before
    // any work, with one message naming both indices.
    const std::vector<std::pair<double, double>> xy = {
        {0.0, 0.0}, {3.0, 1.0}, {1.0, 4.0}, {5.0, 2.0}, {3.0, 1.0}, {2.0, 6.0}};
    const EuclideanMetric pts = make_euclidean_2d(xy);
    SpannerSession session;
    const BuildOptions options;
    std::size_t swept = 0;
    for (const AlgorithmInfo* info : AlgorithmRegistry::global().algorithms()) {
        if (info->input == InputKind::kGraph) continue;
        ++swept;
        try {
            (void)AlgorithmRegistry::global().build(info->name, session,
                                                    BuildInput::of(pts), options);
            ADD_FAILURE() << info->name << " accepted duplicate points";
        } catch (const std::invalid_argument& e) {
            EXPECT_STREQ(e.what(), "AlgorithmRegistry: points 1 and 4 coincide") << info->name;
        }
    }
    EXPECT_EQ(swept, 8u);
}

TEST(SpannerSessionTest, WarmBuildsConstructNoPoolsOrWorkspaces) {
    Rng rng(5);
    const Graph g = erdos_renyi(60, 0.2, {.lo = 1.0, .hi = 2.0}, rng);
    SpannerSession session;
    BuildOptions options;
    options.stretch = 2.0;
    options.engine.num_threads = 2;
    GraphCandidateSource source(g);

    BuildReport first;
    (void)session.build(source, options, &first);
    EXPECT_GT(first.pools_constructed, 0u);
    EXPECT_GT(first.workspaces_constructed, 0u);

    for (int i = 0; i < 3; ++i) {
        BuildReport warm;
        (void)session.build(source, options, &warm);
        EXPECT_EQ(warm.pools_constructed, 0u) << "warm build " << i;
        EXPECT_EQ(warm.workspaces_constructed, 0u) << "warm build " << i;
    }
    EXPECT_EQ(session.builds(), 4u);
}

TEST(SpannerSessionTest, DistinctThreadCountsEachWarmUpOnce) {
    Rng rng(6);
    const Graph g = erdos_renyi(50, 0.25, {.lo = 1.0, .hi = 2.0}, rng);
    SpannerSession session;
    GraphCandidateSource source(g);
    BuildOptions options;
    options.stretch = 2.0;

    for (const std::size_t threads : {2u, 4u}) {
        options.engine.num_threads = threads;
        BuildReport cold;
        (void)session.build(source, options, &cold);
        EXPECT_EQ(cold.pools_constructed, 1u) << threads;
        BuildReport warm;
        (void)session.build(source, options, &warm);
        EXPECT_EQ(warm.pools_constructed, 0u) << threads;
    }
}

TEST(BuildReportTest, ResetEveryBuildAndOnFailure) {
    Rng rng(7);
    const Graph g = erdos_renyi(40, 0.3, {.lo = 1.0, .hi = 2.0}, rng);
    SpannerSession session;
    GraphCandidateSource source(g);
    BuildOptions options;
    options.stretch = 2.0;

    BuildReport report;
    (void)session.build(source, options, &report);
    const std::size_t first_examined = report.stats.edges_examined;
    EXPECT_GT(first_examined, 0u);

    // Reusing the same report must overwrite, never accumulate.
    (void)session.build(source, options, &report);
    EXPECT_EQ(report.stats.edges_examined, first_examined);

    // A failed build zeroes the report before throwing.
    options.stretch = 0.0;
    EXPECT_THROW(session.build(source, options, &report), std::invalid_argument);
    EXPECT_EQ(report.stats.edges_examined, 0u);
    EXPECT_EQ(report.edges, 0u);

    // Same contract on the approx pipeline, whose source constructor can
    // throw before the session is ever reached.
    Rng rng2(70);
    const EuclideanMetric pts = uniform_points(40, 2, 30.0, rng2);
    BuildOptions approx_options;
    approx_options.approx.epsilon = 0.5;
    (void)approx_greedy_build(session, pts, approx_options, &report);
    ASSERT_GT(report.stats.edges_examined, 0u);
    approx_options.approx.epsilon = 2.0;
    EXPECT_THROW(approx_greedy_build(session, pts, approx_options, &report),
                 std::invalid_argument);
    EXPECT_EQ(report.stats.edges_examined, 0u);
}

TEST(BuildReportTest, LegacyStatsOutParamsAreZeroedBeforeWork) {
    // The stats-footgun regression (satellite): a reused GreedyStats must
    // never carry a previous run's counters into a failed call.
    Rng rng(8);
    const Graph g = erdos_renyi(30, 0.4, {.lo = 1.0, .hi = 2.0}, rng);
    GreedyStats stats;
    (void)greedy_spanner(g, 2.0, &stats);
    ASSERT_GT(stats.edges_examined, 0u);
    EXPECT_THROW((void)greedy_spanner(g, 0.5, &stats), std::invalid_argument);
    EXPECT_EQ(stats.edges_examined, 0u);  // zeroed, not stale
    EXPECT_EQ(stats.dijkstra_runs, 0u);

    const EuclideanMetric pts = uniform_points(20, 2, 10.0, rng);
    GreedyStats metric_stats;
    (void)greedy_spanner_metric(pts, 1.5, &metric_stats);
    ASSERT_GT(metric_stats.edges_examined, 0u);
    EXPECT_THROW((void)greedy_spanner_metric(pts, 0.1, &metric_stats),
                 std::invalid_argument);
    EXPECT_EQ(metric_stats.edges_examined, 0u);
}

TEST(BuildReportTest, JsonCarriesTheWholeReport) {
    Rng rng(9);
    const Graph g = erdos_renyi(30, 0.3, {.lo = 1.0, .hi = 2.0}, rng);
    SpannerSession session;
    BuildOptions options;
    options.stretch = 2.0;
    BuildReport report;
    (void)AlgorithmRegistry::global().build("greedy", session, BuildInput::of(g),
                                            options, &report);
    EXPECT_EQ(report.algorithm, "greedy");
    EXPECT_EQ(report.source, "graph-edges");
    const std::string json = report.to_json();
    for (const char* key :
         {"\"algorithm\": \"greedy\"", "\"source\": \"graph-edges\"", "\"vertices\"",
          "\"candidates\"", "\"edges\"", "\"weight\"", "\"max_degree\"", "\"seconds\"",
          "\"pull_seconds\"", "\"pools_constructed\"", "\"workspaces_constructed\"", "\"stats\"",
          "\"edges_examined\"", "\"snapshot_accepts\""}) {
        EXPECT_NE(json.find(key), std::string::npos) << key << " missing in " << json;
    }
    // Structurally balanced (the writer's brace discipline).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}

TEST(BuildReportTest, PullSecondsIsThePartOfTheRunSpentInTheSource) {
    Rng rng(10);
    const EuclideanMetric pts = uniform_points(300, 2, 100.0, rng);
    SpannerSession session;
    BuildOptions options;
    options.stretch = 1.5;
    MetricCandidateSource source(pts);
    BuildReport report;
    (void)session.build(source, options, &report);
    EXPECT_GT(report.stats.pull_seconds, 0.0);
    EXPECT_LE(report.stats.pull_seconds, report.stats.seconds);
}

TEST(WspdSourceTest, StretchStaysUnderTheDumbbellBound) {
    for (const std::uint64_t seed : {2u, 19u}) {
        Rng rng(seed);
        const EuclideanMetric pts = uniform_points(90, 2, 100.0, rng);
        const double t = 1.5;
        const double separation = 12.0;  // bound: t * 16 / 8 = 2t
        const double bound = wspd_greedy_stretch_bound(t, separation);
        ASSERT_LT(bound, 1e9);

        SpannerSession session;
        BuildOptions options;
        options.stretch = t;
        WspdCandidateSource source(pts, separation);
        const Graph h = session.build(source, options);
        EXPECT_LE(max_stretch_metric(pts, h, session.workspace_pool()), bound + 1e-9)
            << "seed " << seed;
    }
}

TEST(WspdSourceTest, BoundAndSeparationRules) {
    EXPECT_TRUE(std::isinf(wspd_greedy_stretch_bound(1.5, 4.0)));
    EXPECT_NEAR(wspd_greedy_stretch_bound(1.0, 12.0), 2.0, 1e-12);
    const EuclideanMetric pts(2, {0.0, 0.0, 1.0, 0.0});
    // separation <= 0 derives 4 + 8/eps.
    WspdCandidateSource derived(pts, 0.0, 0.5);
    EXPECT_DOUBLE_EQ(derived.separation(), 20.0);
    WspdCandidateSource explicit_sep(pts, 9.0);
    EXPECT_DOUBLE_EQ(explicit_sep.separation(), 9.0);
    // A separation without a finite dumbbell bound is refused up front
    // (it would poison stretch_target with infinity downstream).
    EXPECT_THROW(WspdCandidateSource(pts, 3.0), std::invalid_argument);
    EXPECT_THROW(WspdCandidateSource(pts, 0.0, -1.0), std::invalid_argument);
}

TEST(WspdSourceTest, FarFewerCandidatesThanAllPairsAtScale) {
    // The linear-space seam's point: n * s^O(d) pairs, not n^2.
    Rng rng(23);
    const EuclideanMetric pts = uniform_points(600, 2, 400.0, rng);
    std::vector<GreedyCandidate> wspd_pairs;
    WspdCandidateSource source(pts, 8.0);
    source.materialize(wspd_pairs);
    const std::size_t all_pairs = pts.size() * (pts.size() - 1) / 2;
    EXPECT_LT(wspd_pairs.size(), all_pairs / 2);
    EXPECT_GE(wspd_pairs.size(), pts.size() - 1);
}

TEST(SessionAuditTest, PoolOverloadsMatchPlainAuditors) {
    Rng rng(31);
    const Graph g = erdos_renyi(40, 0.3, {.lo = 1.0, .hi = 2.0}, rng);
    SpannerSession session;
    BuildOptions options;
    options.stretch = 2.0;
    GraphCandidateSource source(g);
    const Graph h = session.build(source, options);

    // Audits and reroutes through the session's pool equal the ad-hoc
    // workspace versions exactly (same algorithm, reused arena).
    EXPECT_DOUBLE_EQ(max_stretch_over_edges(g, h, session.workspace_pool()),
                     max_stretch_over_edges(g, h));
    const SpannerAudit pooled = audit_graph_spanner(g, h, session.workspace_pool());
    const SpannerAudit plain = audit_graph_spanner(g, h);
    EXPECT_DOUBLE_EQ(pooled.max_stretch, plain.max_stretch);
    EXPECT_DOUBLE_EQ(pooled.lightness, plain.lightness);
    EXPECT_TRUE(
        same_edge_set(reroute_through(h, g, session.workspace_pool()),
                      reroute_through(h, g)));
}

TEST(CandidateSourceTest, KindsAreStable) {
    Rng rng(1);
    const Graph g = erdos_renyi(10, 0.5, {.lo = 1.0, .hi = 2.0}, rng);
    const EuclideanMetric pts = uniform_points(10, 2, 5.0, rng);
    BuildOptions options;
    EXPECT_STREQ(GraphCandidateSource(g).kind(), "graph-edges");
    EXPECT_STREQ(MetricCandidateSource(pts).kind(), "metric-pairs");
    EXPECT_STREQ(WspdCandidateSource(pts, 8.0).kind(), "wspd-pairs");
    EXPECT_STREQ(BaseSpannerCandidateSource(pts, options).kind(), "base-spanner-edges");
}

}  // namespace
}  // namespace gsp
