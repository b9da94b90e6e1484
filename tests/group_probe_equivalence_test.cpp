// Multi-target group-probe bit-identity: a default build, whose shared
// groups are decided by one batched-relaxation traversal against
// per-member radii, must return the same edge set and the same decision
// stats as the naive kernel (one one-sided point probe per candidate),
// across the graph, metric and WSPD sources, thread counts {1, 2, 4,
// hardware}, and chunk sizes {default, small}. Every kernel verdict is an
// exact distance or a sound far certificate against the same view the
// point probes query, so decisions -- not just the spanner -- must be
// preserved bit for bit.
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
#include "graph/dijkstra.hpp"
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
/// batched-probe and naive paths; probe-strategy counters (dijkstra runs,
/// cache hits, group probes) legitimately differ.
void expect_decisions_equal(const GreedyStats& a, const GreedyStats& b,
                            const std::string& label) {
    EXPECT_EQ(a.edges_examined, b.edges_examined) << label;
    EXPECT_EQ(a.edges_added, b.edges_added) << label;
    EXPECT_EQ(a.candidates_streamed, b.candidates_streamed) << label;
}

/// Reference build: the naive kernel (no groups, one point probe per
/// candidate), default chunking. Every default build must reproduce its
/// decisions.
void check_source(const std::function<std::unique_ptr<CandidateSource>()>& make_source,
                  double stretch, const std::string& what) {
    BuildOptions naive;
    naive.stretch = stretch;
    naive.engine = EngineTuning::naive();

    SpannerSession reference_session;
    BuildReport reference_report;
    const auto reference_source = make_source();
    const Graph reference =
        reference_session.build(*reference_source, naive, &reference_report);
    EXPECT_EQ(reference_report.stats.group_probes, 0u) << what;

    for (const std::size_t threads : kThreadCounts) {
        for (const std::size_t cap : kChunkCaps) {
            const std::string label = what + " threads=" + std::to_string(threads) +
                                      " cap=" + std::to_string(cap);
            BuildOptions probed;
            probed.stretch = stretch;
            probed.engine.chunk_soft_cap = cap;
            probed.engine.num_threads = threads;
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

TEST(GroupProbeEquivalenceTest, DefaultBuildsDecideGroupsByProbes) {
    // Shared groups of a non-grid source are decided by the batched
    // kernel: probes run and amortize, while the decisions match the
    // naive kernel's.
    Rng rng(55);
    const EuclideanMetric pts = uniform_points(90, 2, 80.0, rng);

    BuildOptions naive;
    naive.stretch = 1.5;
    naive.engine = EngineTuning::naive();
    MetricCandidateSource naive_source(pts);
    SpannerSession naive_session;
    BuildReport naive_report;
    const Graph reference = naive_session.build(naive_source, naive, &naive_report);
    EXPECT_EQ(naive_report.stats.group_probes, 0u);
    EXPECT_EQ(naive_report.stats.group_probe_decisions, 0u);

    BuildOptions defaults;
    defaults.stretch = 1.5;
    MetricCandidateSource source(pts);
    SpannerSession session;
    BuildReport report;
    const Graph h = session.build(source, defaults, &report);
    EXPECT_TRUE(same_edge_set(h, reference));
    EXPECT_EQ(report.stats.edges_added, naive_report.stats.edges_added);
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

TEST(GroupProbeEquivalenceTest, PlainRunGivesEverySlotOneExactVerdict) {
    // BatchedProbe::run hands every slot exactly one of two verdicts: far
    // (bound +infinity, true distance above the radius) or settled (bound
    // equal to the exact distance, within the radius). Checked against
    // an independent one-sided Dijkstra on the same graph.
    Rng rng(1717);
    const EuclideanMetric pts = uniform_points(120, 2, 60.0, rng);

    // A metric-weighted graph: the greedy spanner of the points.
    MetricCandidateSource source(pts);
    SpannerSession session;
    BuildOptions options;
    options.stretch = 1.6;
    const Graph g = session.build(source, options);

    BatchedProbe probe;
    DijkstraWorkspace ws(g.num_vertices());
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
        probe.run(g, source_v, targets, radii);

        std::size_t far = 0;
        for (std::size_t i = 0; i < targets.size(); ++i) {
            const Weight exact = ws.distance(g, source_v, targets[i], radii[i]);
            if (probe.target_far(i)) {
                ++far;
                EXPECT_EQ(probe.target_bound(i), kInfiniteWeight) << i;
                EXPECT_EQ(exact, kInfiniteWeight) << i;
            } else {
                EXPECT_LE(probe.target_bound(i), radii[i]) << i;
                EXPECT_EQ(probe.target_bound(i), exact) << i;
            }
        }
        EXPECT_GT(far, 0u);
        EXPECT_LT(far, targets.size());
    }
}

}  // namespace
}  // namespace gsp
