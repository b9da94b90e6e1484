// Cell-batched rejection bit-identity: a grid-streamed build with
// EngineTuning::CellBatching::kOn (one drained ball per cell anchor
// deciding that cell's candidates at once) must return the same edge set
// and the same decision stats as the per-candidate path (kOff), across
// {uniform, clustered} point sets, thread counts {1, 2, 4, hardware}, and
// chunk sizes {the source's default, small}. Every shortcut the batched
// path takes is a sound upper or lower bound compared against the same
// exact threshold, so decisions -- not just the spanner -- must be
// preserved bit for bit.
#include "api/session.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "api/build_options.hpp"
#include "api/grid_source.hpp"
#include "gen/points.hpp"
#include "graph/graph.hpp"
#include "util/random.hpp"

namespace gsp {
namespace {

const std::size_t kThreadCounts[] = {1, 2, 4, 0};
/// Chunk soft caps: the default (which the grid source widens) and a
/// small cap that splits weight classes across many chunks.
const std::size_t kChunkCaps[] = {EngineTuning{}.chunk_soft_cap, 4096};

/// Schedule-independent decision counters must match exactly between the
/// batched and per-candidate paths; probe-strategy counters (dijkstra
/// runs, cache hits, cell balls) legitimately differ.
void expect_decisions_equal(const GreedyStats& a, const GreedyStats& b,
                            const std::string& label) {
    EXPECT_EQ(a.edges_examined, b.edges_examined) << label;
    EXPECT_EQ(a.edges_added, b.edges_added) << label;
    EXPECT_EQ(a.candidates_streamed, b.candidates_streamed) << label;
}

/// Reference build: per-candidate rejection (kOff), single thread,
/// default chunking. Every batched variant must reproduce its decisions.
void check_points(const EuclideanMetric& pts, double separation, const std::string& what) {
    BuildOptions options;
    options.stretch = 2.0;
    options.engine.cell_batching = EngineTuning::CellBatching::kOff;

    GridCandidateSource reference_source(pts, separation);
    SpannerSession reference_session;
    BuildReport reference_report;
    const Graph reference =
        reference_session.build(reference_source, options, &reference_report);

    for (const std::size_t threads : kThreadCounts) {
        for (const std::size_t cap : kChunkCaps) {
            const std::string label = what + " threads=" + std::to_string(threads) +
                                      " cap=" + std::to_string(cap);
            BuildOptions batched = options;
            batched.engine.chunk_soft_cap = cap;
            batched.engine.num_threads = threads;
            batched.engine.cell_batching = EngineTuning::CellBatching::kOn;
            GridCandidateSource source(pts, separation);
            SpannerSession session;
            BuildReport report;
            const Graph h = session.build(source, batched, &report);
            EXPECT_TRUE(same_edge_set(h, reference)) << label;
            expect_decisions_equal(report.stats, reference_report.stats, label);
            EXPECT_EQ(report.edges, reference_report.edges) << label;
            EXPECT_EQ(report.weight, reference_report.weight) << label;
        }
    }
}

class CellBatchEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CellBatchEquivalenceTest, UniformPointsDecideIdentically) {
    Rng rng(GetParam());
    const EuclideanMetric pts = uniform_points(320, 2, 180.0, rng);
    check_points(pts, 5.0, "uniform");
}

TEST_P(CellBatchEquivalenceTest, ClusteredPointsDecideIdentically) {
    Rng rng(GetParam() ^ 0x5eed);
    const EuclideanMetric pts = clustered_points(300, 2, 6, 160.0, 1.5, rng);
    check_points(pts, 5.0, "clustered");
}

INSTANTIATE_TEST_SUITE_P(Seeds, CellBatchEquivalenceTest,
                         ::testing::Values(11u, 407u, 9001u));

TEST(CellBatchEquivalenceTest, GridSourceDefaultsToCellBatching) {
    // kAuto + grid source flips to kOn via configure_engine: the batched
    // machinery must actually engage (cell balls amortize the rejects)
    // while the decisions match an explicit kOff build.
    Rng rng(77);
    const EuclideanMetric pts = uniform_points(480, 2, 220.0, rng);

    BuildOptions off;
    off.stretch = 2.0;
    off.engine.cell_batching = EngineTuning::CellBatching::kOff;
    GridCandidateSource off_source(pts, 5.0);
    SpannerSession off_session;
    BuildReport off_report;
    const Graph reference = off_session.build(off_source, off, &off_report);
    EXPECT_EQ(off_report.stats.cell_balls, 0u);
    EXPECT_EQ(off_report.stats.cell_ball_decisions, 0u);

    BuildOptions auto_opts;
    auto_opts.stretch = 2.0;
    ASSERT_EQ(auto_opts.engine.cell_batching, EngineTuning::CellBatching::kAuto);
    GridCandidateSource source(pts, 5.0);
    SpannerSession session;
    BuildReport report;
    const Graph h = session.build(source, auto_opts, &report);
    EXPECT_TRUE(same_edge_set(h, reference));
    EXPECT_EQ(report.stats.edges_added, off_report.stats.edges_added);
    EXPECT_GT(report.stats.cell_balls, 0u);
    EXPECT_GE(report.stats.cell_ball_decisions, report.stats.cell_balls);
}

TEST(CellBatchEquivalenceTest, CellCountersAreThreadCountInvariant) {
    // The prefilter's verdict bitset is commutative (relaxed fetch_or) and
    // groups partition the batch deterministically, so the batched
    // counters -- not just the decisions -- are a pure function of the
    // input at every *parallel* worker count. Stage 2 decides anchored
    // groups with group probes, whose counters are held to the same rule.
    // (The serial path probes differently, so thread count 1 is covered
    // by the decision-identity sweeps above, not by counter equality.)
    Rng rng(131);
    const EuclideanMetric pts = uniform_points(360, 2, 200.0, rng);

    BuildOptions options;
    options.stretch = 2.0;
    options.engine.num_threads = 2;
    GridCandidateSource first_source(pts, 5.0);
    SpannerSession first_session;
    BuildReport first;
    const Graph reference = first_session.build(first_source, options, &first);
    EXPECT_GT(first.stats.group_probes, 0u);

    for (const std::size_t threads : {std::size_t{3}, std::size_t{4}, std::size_t{8}}) {
        options.engine.num_threads = threads;
        GridCandidateSource source(pts, 5.0);
        SpannerSession session;
        BuildReport report;
        const Graph h = session.build(source, options, &report);
        const std::string label = "threads=" + std::to_string(threads);
        EXPECT_TRUE(same_edge_set(h, reference)) << label;
        EXPECT_EQ(report.stats.cell_balls, first.stats.cell_balls) << label;
        EXPECT_EQ(report.stats.cell_ball_decisions, first.stats.cell_ball_decisions)
            << label;
        EXPECT_EQ(report.stats.group_probes, first.stats.group_probes) << label;
        EXPECT_EQ(report.stats.group_probe_decisions, first.stats.group_probe_decisions)
            << label;
        EXPECT_EQ(report.stats.dijkstra_runs, first.stats.dijkstra_runs) << label;
    }
}

}  // namespace
}  // namespace gsp
