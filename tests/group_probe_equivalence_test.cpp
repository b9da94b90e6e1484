// Multi-target group-probe bit-identity: a build with
// EngineTuning::GroupProbing::kOn (one batched-relaxation traversal
// deciding a whole source group against per-member radii) must return the
// same edge set and the same decision stats as the per-candidate path
// (kOff), across the sources that opt in ({graph, metric, wspd}), thread
// counts {1, 2, 4, hardware}, and chunk sizes {default, small}. Every
// kernel verdict is an exact distance or a sound far certificate against
// the same view the point probes query, so decisions -- not just the
// spanner -- must be preserved bit for bit.
#include "api/session.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include <vector>

#include "api/build_options.hpp"
#include "api/candidate_source.hpp"
#include "gen/graphs.hpp"
#include "graph/batched_probe.hpp"
#include "gen/points.hpp"
#include "graph/graph.hpp"
#include "metric/euclidean.hpp"
#include "util/random.hpp"

namespace gsp {
namespace {

const std::size_t kThreadCounts[] = {1, 2, 4, 0};
/// Chunk soft caps: the default, and a small cap that splits the
/// streaming WSPD source's weight classes across chunks.
const std::size_t kChunkCaps[] = {EngineTuning{}.chunk_soft_cap, 512};

/// Schedule-independent decision counters must match exactly between the
/// batched-probe and per-candidate paths; probe-strategy counters
/// (dijkstra runs, cache hits, group probes) legitimately differ.
void expect_decisions_equal(const GreedyStats& a, const GreedyStats& b,
                            const std::string& label) {
    EXPECT_EQ(a.edges_examined, b.edges_examined) << label;
    EXPECT_EQ(a.edges_added, b.edges_added) << label;
    EXPECT_EQ(a.candidates_streamed, b.candidates_streamed) << label;
}

/// Reference build: per-candidate probing (kOff), single thread, default
/// chunking. Every group-probe variant must reproduce its decisions.
void check_source(const std::function<std::unique_ptr<CandidateSource>()>& make_source,
                  double stretch, const std::string& what) {
    BuildOptions options;
    options.stretch = stretch;
    options.engine.group_probing = EngineTuning::GroupProbing::kOff;

    SpannerSession reference_session;
    BuildReport reference_report;
    const auto reference_source = make_source();
    const Graph reference =
        reference_session.build(*reference_source, options, &reference_report);
    EXPECT_EQ(reference_report.stats.group_probes, 0u) << what;

    for (const std::size_t threads : kThreadCounts) {
        for (const std::size_t cap : kChunkCaps) {
            const std::string label = what + " threads=" + std::to_string(threads) +
                                      " cap=" + std::to_string(cap);
            BuildOptions probed = options;
            probed.engine.chunk_soft_cap = cap;
            probed.engine.num_threads = threads;
            probed.engine.group_probing = EngineTuning::GroupProbing::kOn;
            const auto source = make_source();
            SpannerSession session;
            BuildReport report;
            const Graph h = session.build(*source, probed, &report);
            EXPECT_TRUE(same_edge_set(h, reference)) << label;
            expect_decisions_equal(report.stats, reference_report.stats, label);
            EXPECT_EQ(report.edges, reference_report.edges) << label;
            EXPECT_EQ(report.weight, reference_report.weight) << label;
        }
    }
}

class GroupProbeEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GroupProbeEquivalenceTest, GraphEdgesDecideIdentically) {
    Rng rng(GetParam());
    const Graph g = erdos_renyi(150, 0.12, {.lo = 0.5, .hi = 3.0}, rng);
    check_source([&] { return std::make_unique<GraphCandidateSource>(g); }, 1.8,
                 "graph");
}

TEST_P(GroupProbeEquivalenceTest, MetricPairsDecideIdentically) {
    Rng rng(GetParam() ^ 0xbeef);
    const EuclideanMetric pts = uniform_points(70, 2, 70.0, rng);
    check_source([&] { return std::make_unique<MetricCandidateSource>(pts); }, 1.5,
                 "metric");
}

TEST_P(GroupProbeEquivalenceTest, WspdPairsDecideIdentically) {
    Rng rng(GetParam() ^ 0x2468);
    const EuclideanMetric pts = uniform_points(110, 2, 90.0, rng);
    check_source([&] { return std::make_unique<WspdCandidateSource>(pts, 9.0); }, 1.5,
                 "wspd");
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupProbeEquivalenceTest,
                         ::testing::Values(7u, 521u, 4242u));

TEST(GroupProbeEquivalenceTest, OptInSourcesDefaultToGroupProbing) {
    // kAuto + a graph/metric/wspd source flips to kOn via
    // configure_engine: the batched kernel must actually engage (probes
    // run, decisions amortize) while the decisions match an explicit kOff
    // build.
    Rng rng(55);
    const EuclideanMetric pts = uniform_points(90, 2, 80.0, rng);

    BuildOptions off;
    off.stretch = 1.5;
    off.engine.group_probing = EngineTuning::GroupProbing::kOff;
    MetricCandidateSource off_source(pts);
    SpannerSession off_session;
    BuildReport off_report;
    const Graph reference = off_session.build(off_source, off, &off_report);
    EXPECT_EQ(off_report.stats.group_probes, 0u);
    EXPECT_EQ(off_report.stats.group_probe_decisions, 0u);

    BuildOptions auto_opts;
    auto_opts.stretch = 1.5;
    ASSERT_EQ(auto_opts.engine.group_probing, EngineTuning::GroupProbing::kAuto);
    MetricCandidateSource source(pts);
    SpannerSession session;
    BuildReport report;
    const Graph h = session.build(source, auto_opts, &report);
    EXPECT_TRUE(same_edge_set(h, reference));
    EXPECT_EQ(report.stats.edges_added, off_report.stats.edges_added);
    EXPECT_GT(report.stats.group_probes, 0u);
    EXPECT_GE(report.stats.group_probe_decisions, report.stats.group_probes);
}

TEST(GroupProbeEquivalenceTest, GroupProbeCountersAreThreadCountInvariant) {
    // Stage-2 groups are task-owned and the kernel's verdicts are pure
    // functions of (view, source, targets, radii), so the group-probe
    // counters -- not just the decisions -- are a pure function of the
    // input at every *parallel* worker count. (The serial path gates
    // probes on its own cost model, so thread count 1 is covered by the
    // decision-identity sweeps above, not by counter equality.)
    Rng rng(909);
    const Graph g = erdos_renyi(170, 0.12, {.lo = 0.5, .hi = 3.0}, rng);

    BuildOptions options;
    options.stretch = 1.8;
    options.engine.num_threads = 2;
    GraphCandidateSource first_source(g);
    SpannerSession first_session;
    BuildReport first;
    const Graph reference = first_session.build(first_source, options, &first);
    EXPECT_GT(first.stats.group_probes, 0u);

    for (const std::size_t threads : {std::size_t{3}, std::size_t{4}, std::size_t{8}}) {
        options.engine.num_threads = threads;
        GraphCandidateSource source(g);
        SpannerSession session;
        BuildReport report;
        const Graph h = session.build(source, options, &report);
        const std::string label = "threads=" + std::to_string(threads);
        EXPECT_TRUE(same_edge_set(h, reference)) << label;
        EXPECT_EQ(report.stats.group_probes, first.stats.group_probes) << label;
        EXPECT_EQ(report.stats.group_probe_decisions,
                  first.stats.group_probe_decisions)
            << label;
        EXPECT_EQ(report.stats.group_probe_early_exits,
                  first.stats.group_probe_early_exits)
            << label;
        EXPECT_EQ(report.stats.dijkstra_runs, first.stats.dijkstra_runs) << label;
        EXPECT_EQ(report.stats.snapshot_accepts, first.stats.snapshot_accepts) << label;
    }
}

TEST(GroupProbeEquivalenceTest, GoalDirectedRunMatchesPlainVerdicts) {
    // run_goal's pruning drops relaxations that cannot serve any live
    // target, but every verdict-bearing path survives its own target's
    // test -- so far bits and settled target distances must be identical
    // to the plain run, while the certified/exact radii may only shrink
    // and the surviving exact prefix must agree with the plain frontier.
    // Both runs give every slot exactly one of the two verdicts: far, or
    // settled at its exact distance within its radius.
    Rng rng(1717);
    const EuclideanMetric pts = uniform_points(120, 2, 60.0, rng);

    // A metric-weighted graph: greedy spanner of the points (every edge
    // weight is the metric distance of its endpoints, so the metric is a
    // sound lower bound on graph distances).
    MetricCandidateSource source(pts);
    SpannerSession session;
    BuildOptions options;
    options.stretch = 1.6;
    const Graph g = session.build(source, options);

    BatchedProbe plain;
    BatchedProbe goal;
    const auto lb = [&pts](VertexId x, VertexId t) { return pts.distance(x, t); };
    for (const VertexId source_v : {VertexId{0}, VertexId{17}, VertexId{63}}) {
        // Targets with spread radii: some settle, some certify far, and
        // the nondecreasing-radii invariant mirrors the engine's groups.
        std::vector<VertexId> targets;
        std::vector<Weight> radii;
        for (VertexId t = 1; t < 40; ++t) {
            if (t == source_v) continue;
            targets.push_back(t);
            radii.push_back(0.4 * static_cast<Weight>(targets.size()));
        }
        plain.run(g, source_v, targets, radii);
        goal.run_goal(g, source_v, targets, radii, lb);

        EXPECT_EQ(plain.settled_exact_radius(), kInfiniteWeight);
        EXPECT_LE(goal.certified_radius(), plain.certified_radius());
        std::size_t far = 0;
        for (std::size_t i = 0; i < targets.size(); ++i) {
            EXPECT_EQ(goal.target_far(i), plain.target_far(i)) << i;
            EXPECT_EQ(goal.target_bound(i), plain.target_bound(i)) << i;
            if (plain.target_far(i)) {
                ++far;
                EXPECT_EQ(plain.target_bound(i), kInfiniteWeight) << i;
            } else {
                EXPECT_LE(plain.target_bound(i), radii[i]) << i;
            }
        }
        EXPECT_GT(far, 0u);
        EXPECT_LT(far, targets.size());
        // The goal run's exact prefix must match the plain frontier
        // distance for distance; beyond it entries are upper bounds.
        std::vector<Weight> plain_dist(g.num_vertices(), kInfiniteWeight);
        for (const auto& [x, d] : plain.settled()) plain_dist[x] = d;
        const Weight exact_r = goal.settled_exact_radius();
        for (const auto& [x, d] : goal.settled()) {
            if (d <= exact_r) {
                EXPECT_EQ(d, plain_dist[x]) << "vertex " << x;
            } else if (plain_dist[x] != kInfiniteWeight) {
                EXPECT_GE(d, plain_dist[x]) << "vertex " << x;
            }
        }
    }
}

TEST(GroupProbeEquivalenceTest, ProbeGoalOracleBuildsDecideIdentically) {
    // The probe_goal_bound override routes the serial kernel's probes
    // through run_goal; decisions (edge set, decision counters) must be
    // bit-identical to the un-goaled kOn build and the kOff reference.
    Rng rng(31337);
    const EuclideanMetric pts = uniform_points(90, 2, 80.0, rng);

    BuildOptions off;
    off.stretch = 1.5;
    off.engine.group_probing = EngineTuning::GroupProbing::kOff;
    MetricCandidateSource off_source(pts);
    SpannerSession off_session;
    BuildReport off_report;
    const Graph reference = off_session.build(off_source, off, &off_report);

    BuildOptions goaled;
    goaled.stretch = 1.5;
    goaled.engine.group_probing = EngineTuning::GroupProbing::kOn;
    goaled.engine.probe_goal_bound = &pts;
    MetricCandidateSource source(pts);
    SpannerSession session;
    BuildReport report;
    const Graph h = session.build(source, goaled, &report);
    EXPECT_TRUE(same_edge_set(h, reference));
    EXPECT_EQ(report.stats.edges_examined, off_report.stats.edges_examined);
    EXPECT_EQ(report.stats.edges_added, off_report.stats.edges_added);
    EXPECT_EQ(report.stats.candidates_streamed, off_report.stats.candidates_streamed);
    EXPECT_GT(report.stats.group_probes, 0u);
}

}  // namespace
}  // namespace gsp
