// Chunk-size bit-identity: every build reaches the engine as a chunk
// stream, and chunk boundaries only ever split weight buckets, which the
// engine's bucketing makes decision preserving. A build must return the
// same edge set and decision stats at every chunk size -- down to a single
// candidate per pull -- as the coarsest chunking, across every source
// family {graph, metric, wspd, grid} and thread counts {1, 2, 4, hardware}.
// Whole-list sources (graph, metric) hand their sorted list over as one
// chunk, so the suite slices their sequence through a test-local wrapper;
// the streaming sources (wspd, grid) slice natively.
#include "api/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "api/build_options.hpp"
#include "api/candidate_source.hpp"
#include "api/grid_source.hpp"
#include "gen/graphs.hpp"
#include "gen/points.hpp"
#include "graph/graph.hpp"
#include "util/random.hpp"
#include "wspd/quadtree.hpp"
#include "wspd/wspd.hpp"

namespace gsp {
namespace {

const std::size_t kThreadCounts[] = {1, 2, 4, 0};
const std::size_t kChunkCaps[] = {1, 64, 1 << 16};
constexpr std::size_t kOneChunk = std::numeric_limits<std::size_t>::max();

/// Serves another source's candidate sequence in soft_cap-sized slices,
/// so a whole-list source's sequence crosses chunk boundaries too.
class SlicedSource final : public CandidateSource {
public:
    explicit SlicedSource(CandidateSource& inner) : inner_(inner) {}

    [[nodiscard]] const char* kind() const override { return inner_.kind(); }
    [[nodiscard]] std::size_t num_vertices() const override { return inner_.num_vertices(); }
    [[nodiscard]] std::unique_ptr<CandidateChunkSource> chunks() override {
        all_.clear();
        inner_.materialize(all_);
        return std::make_unique<Slices>(all_);
    }
    void seed(Graph& h) override { inner_.seed(h); }
    void configure_engine(GreedyEngineOptions& options) override {
        inner_.configure_engine(options);
    }
    [[nodiscard]] double stretch_target(double t) const override {
        return inner_.stretch_target(t);
    }

private:
    class Slices final : public CandidateChunkSource {
    public:
        explicit Slices(const std::vector<GreedyCandidate>& all) : all_(all) {}

        bool next_chunk(std::size_t soft_cap, std::vector<GreedyCandidate>& out) override {
            if (cursor_ >= all_.size()) return false;
            const std::size_t end = cursor_ + std::min(soft_cap, all_.size() - cursor_);
            out.insert(out.end(), all_.begin() + static_cast<std::ptrdiff_t>(cursor_),
                       all_.begin() + static_cast<std::ptrdiff_t>(end));
            cursor_ = end;
            return true;
        }

    private:
        const std::vector<GreedyCandidate>& all_;
        std::size_t cursor_ = 0;
    };

    CandidateSource& inner_;
    std::vector<GreedyCandidate> all_;
};

/// Decision stats (schedule-independent counters) must match exactly;
/// wall clock and the memory counters legitimately differ between chunk
/// sizes.
void expect_decisions_equal(const GreedyStats& a, const GreedyStats& b,
                            const std::string& label) {
    EXPECT_EQ(a.edges_examined, b.edges_examined) << label;
    EXPECT_EQ(a.edges_added, b.edges_added) << label;
    EXPECT_EQ(a.candidates_streamed, b.candidates_streamed) << label;
}

/// Build the coarsest-chunk reference through `source`, then every thread
/// count x chunk cap through `sliced` (the same sequence, sliced), and
/// compare edge sets and decision stats.
void check_source(CandidateSource& source, CandidateSource& sliced, BuildOptions options,
                  const std::string& what) {
    options.engine.chunk_soft_cap = kOneChunk;
    SpannerSession reference_session;
    BuildReport reference_report;
    const Graph reference = reference_session.build(source, options, &reference_report);

    for (const std::size_t threads : kThreadCounts) {
        for (const std::size_t cap : kChunkCaps) {
            const std::string label =
                what + " threads=" + std::to_string(threads) + " cap=" + std::to_string(cap);
            BuildOptions chunked = options;
            chunked.engine.num_threads = threads;
            chunked.engine.chunk_soft_cap = cap;
            SpannerSession session;
            BuildReport report;
            const Graph h = session.build(sliced, chunked, &report);
            EXPECT_TRUE(same_edge_set(h, reference)) << label;
            expect_decisions_equal(report.stats, reference_report.stats, label);
            EXPECT_EQ(report.candidates, reference_report.candidates) << label;
            EXPECT_EQ(report.edges, reference_report.edges) << label;
            EXPECT_EQ(report.weight, reference_report.weight) << label;
            EXPECT_LE(report.stats.candidate_buffer_peak_bytes,
                      reference_report.stats.candidate_buffer_peak_bytes)
                << label;
        }
    }
}

class ChunkedEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChunkedEquivalenceTest, GraphSourceDecidesIdenticallyAtEveryChunkSize) {
    Rng rng(GetParam());
    const Graph g = erdos_renyi(60, 0.25, {.lo = 0.5, .hi = 3.0}, rng);
    GraphCandidateSource source(g);
    ASSERT_EQ(source.chunk_support(), ChunkSupport::kWholeList);
    SlicedSource sliced(source);
    BuildOptions options;
    options.stretch = 1.8;
    check_source(source, sliced, options, "graph");
}

TEST_P(ChunkedEquivalenceTest, MetricSourceDecidesIdenticallyAtEveryChunkSize) {
    Rng rng(GetParam() ^ 0x9e1);
    const EuclideanMetric pts = uniform_points(42, 2, 50.0, rng);
    MetricCandidateSource source(pts);
    ASSERT_EQ(source.chunk_support(), ChunkSupport::kWholeList);
    SlicedSource sliced(source);
    BuildOptions options;
    options.stretch = 1.4;
    check_source(source, sliced, options, "metric");
}

TEST_P(ChunkedEquivalenceTest, WspdSourceStreamsIdentically) {
    Rng rng(GetParam() ^ 0x44f);
    const EuclideanMetric pts = clustered_points(110, 2, 4, 70.0, 1.2, rng);
    WspdCandidateSource source(pts, 9.0);
    ASSERT_EQ(source.chunk_support(), ChunkSupport::kStreaming);
    BuildOptions options;
    options.stretch = 1.5;
    check_source(source, source, options, "wspd");
}

TEST_P(ChunkedEquivalenceTest, GridSourceStreamsIdentically) {
    Rng rng(GetParam() ^ 0xb33);
    const EuclideanMetric pts = uniform_points(100, 2, 60.0, rng);
    GridCandidateSource source(pts, 8.0);
    ASSERT_EQ(source.chunk_support(), ChunkSupport::kStreaming);
    BuildOptions options;
    options.stretch = 1.6;
    check_source(source, source, options, "grid");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChunkedEquivalenceTest, ::testing::Values(2u, 83u, 641u));

/// Every thread count x chunk cap {1, 7, 2^16, one chunk} against the naive
/// kernel. A bucket after one that accepted nothing runs to the end of the
/// chunk, so the caps move the widened buckets' ends.
void check_against_naive(CandidateSource& source, CandidateSource& sliced, double stretch,
                         const std::string& what) {
    BuildOptions naive;
    naive.stretch = stretch;
    naive.engine = EngineTuning::naive();
    naive.engine.chunk_soft_cap = kOneChunk;
    SpannerSession reference_session;
    BuildReport reference_report;
    const Graph reference = reference_session.build(source, naive, &reference_report);

    for (const std::size_t threads : {1u, 2u, 4u}) {
        for (const std::size_t cap : {std::size_t{1}, std::size_t{7}, std::size_t{1} << 16,
                                      kOneChunk}) {
            const std::string label =
                what + " threads=" + std::to_string(threads) + " cap=" + std::to_string(cap);
            BuildOptions options;
            options.stretch = stretch;
            options.engine.num_threads = threads;
            options.engine.chunk_soft_cap = cap;
            SpannerSession session;
            BuildReport report;
            const Graph h = session.build(sliced, options, &report);
            EXPECT_TRUE(same_edge_set(h, reference)) << label;
            expect_decisions_equal(report.stats, reference_report.stats, label);
        }
    }
}

TEST(ChunkedEquivalenceTest, ClusteredAllPairsWidenBucketsThatStillAccept) {
    // Tight blobs: the bucket after a blob's last accepting octave is
    // widened and still carries the inter-blob accepts.
    Rng rng(808);
    const EuclideanMetric pts = clustered_points(300, 2, 4, 100.0, 0.5, rng);
    MetricCandidateSource source(pts);
    SlicedSource sliced(source);
    check_against_naive(source, sliced, 1.5, "clustered all-pairs");
}

TEST(ChunkedEquivalenceTest, WideWeightRangeGraphDecidesIdentically) {
    Rng rng(809);
    const Graph g = random_graph_nm(200, 1600, {.lo = 1.0, .hi = 1000.0}, rng);
    GraphCandidateSource source(g);
    SlicedSource sliced(source);
    check_against_naive(source, sliced, 2.0, "wide-range G(n, m)");
}

std::vector<GreedyCandidate> drain(CandidateSource& source, std::size_t cap) {
    const auto chunks = source.chunks();
    std::vector<GreedyCandidate> streamed;
    std::vector<GreedyCandidate> buf;
    while (chunks->next_chunk(cap, buf)) {
        EXPECT_FALSE(buf.empty()) << "true return must mean appended candidates";
        streamed.insert(streamed.end(), buf.begin(), buf.end());
        buf.clear();
    }
    EXPECT_FALSE(chunks->next_chunk(cap, buf)) << "an exhausted stream stays exhausted";
    return streamed;
}

void expect_same_sequence(const std::vector<GreedyCandidate>& got,
                          const std::vector<GreedyCandidate>& want, const std::string& label) {
    ASSERT_EQ(got.size(), want.size()) << label;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].u, want[i].u) << label << " " << i;
        EXPECT_EQ(got[i].v, want[i].v) << label << " " << i;
        EXPECT_EQ(got[i].weight, want[i].weight) << label << " " << i;
    }
}

TEST(ChunkedEquivalenceTest, StreamingSourcesEmitTheSortedSequenceAtEveryCap) {
    // The raw chunk sequence (not just the resulting spanner) is cap
    // invariant. For WSPD it is checked against an independent reference:
    // every dumbbell's representative pair, globally sorted by the
    // source's (weight, u, v) tie rule.
    Rng rng(19);
    const EuclideanMetric pts = clustered_points(90, 2, 3, 40.0, 0.8, rng);
    WspdCandidateSource wspd(pts, 8.0);
    GridCandidateSource grid(pts, 8.0);

    std::vector<GreedyCandidate> wspd_reference;
    const QuadTree tree(pts);
    for (const WspdPair& p : well_separated_pairs(tree, 8.0)) {
        const VertexId a = tree.node(p.a).representative;
        const VertexId b = tree.node(p.b).representative;
        const VertexId u = std::min(a, b);
        const VertexId v = std::max(a, b);
        wspd_reference.push_back(GreedyCandidate{u, v, pts.distance(u, v)});
    }
    std::sort(wspd_reference.begin(), wspd_reference.end(),
              [](const GreedyCandidate& a, const GreedyCandidate& b) {
                  return std::tie(a.weight, a.u, a.v) < std::tie(b.weight, b.u, b.v);
              });
    std::vector<GreedyCandidate> grid_reference;
    grid.materialize(grid_reference);

    for (const std::size_t cap : {std::size_t{1}, std::size_t{17}, std::size_t{4096}}) {
        expect_same_sequence(drain(wspd, cap), wspd_reference, "wspd cap=" + std::to_string(cap));
        expect_same_sequence(drain(grid, cap), grid_reference, "grid cap=" + std::to_string(cap));
    }
}

TEST(ChunkedEquivalenceTest, WholeListSourcesHandOverOneChunk) {
    // A whole-list source appends its sorted list in one pull, whatever
    // the cap, straight into the caller's buffer; materialize() drains
    // the same sequence.
    Rng rng(23);
    const Graph g = erdos_renyi(30, 0.4, {.lo = 1.0, .hi = 2.0}, rng);
    GraphCandidateSource source(g);
    std::vector<GreedyCandidate> full;
    source.materialize(full);
    ASSERT_EQ(full.size(), g.num_edges());

    const auto chunks = source.chunks();
    std::vector<GreedyCandidate> buf;
    ASSERT_TRUE(chunks->next_chunk(1, buf));
    expect_same_sequence(buf, full, "one chunk");
    buf.clear();
    EXPECT_FALSE(chunks->next_chunk(1, buf));
    EXPECT_TRUE(buf.empty());
}

TEST(ChunkedEquivalenceTest, OnlyStreamingSourcesStayBelowTheFullList) {
    Rng rng(7);
    const EuclideanMetric pts = uniform_points(60, 2, 30.0, rng);
    const Graph g = erdos_renyi(40, 0.3, {.lo = 1.0, .hi = 2.0}, rng);
    BuildOptions options;
    options.stretch = 1.7;
    options.engine.chunk_soft_cap = 64;
    SpannerSession session;

    // Streaming source: the buffer peak stays below the full candidate
    // list (the source really streamed).
    GridCandidateSource grid(pts, 8.0);
    BuildReport report;
    (void)session.build(grid, options, &report);
    ASSERT_GT(report.candidates, 64u);
    EXPECT_LT(report.stats.candidate_buffer_peak_bytes,
              report.candidates * sizeof(GreedyCandidate));

    // Whole-list source: its one chunk is the full list.
    GraphCandidateSource graph_source(g);
    (void)session.build(graph_source, options, &report);
    EXPECT_EQ(report.stats.candidate_buffer_peak_bytes,
              report.candidates * sizeof(GreedyCandidate));
}

}  // namespace
}  // namespace gsp
