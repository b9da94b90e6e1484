// Kernel-equivalence suite for the unified GreedyEngine: every combination
// of the three optimisations (bidirectional, ball sharing, CSR snapshots)
// must return exactly the same edge set as the naive kernel, on every
// instance family -- that is the engine's core contract, and what lets
// bench_ablation attribute speed differences purely to the optimisations.
// NaiveKernelTest checks the naive kernel itself against a literal
// Algorithm 1 that shares no engine code (literal_greedy.hpp), on graph
// inputs and on every point source.
#include "core/greedy_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "api/build_options.hpp"
#include "api/candidate_source.hpp"
#include "api/grid_source.hpp"
#include "api/session.hpp"
#include "core/greedy.hpp"
#include "gen/graphs.hpp"
#include "gen/points.hpp"
#include "graph/graph.hpp"
#include "literal_greedy.hpp"
#include "metric/euclidean.hpp"
#include "util/random.hpp"

namespace gsp {
namespace {

GreedyEngineOptions config_from_mask(double t, unsigned mask) {
    GreedyEngineOptions options;
    options.stretch = t;
    options.bidirectional = (mask & 1u) != 0;
    options.ball_sharing = (mask & 2u) != 0;
    options.csr_snapshot = (mask & 4u) != 0;
    return options;
}

std::string mask_name(unsigned mask) {
    std::string s;
    if (mask & 1u) s += "+bidirectional";
    if (mask & 2u) s += "+ball_sharing";
    if (mask & 4u) s += "+csr_snapshot";
    return s.empty() ? "naive" : s;
}

/// Run `engine` over a candidate list handed over as one chunk.
Graph run_list(GreedyEngine& engine, Graph h, const std::vector<GreedyCandidate>& cands,
               GreedyStats* stats = nullptr) {
    WholeListChunkSource source([&cands](std::vector<GreedyCandidate>& out) {
        out.insert(out.end(), cands.begin(), cands.end());
    });
    std::vector<GreedyCandidate> buffer;
    return engine.run(std::move(h), source, buffer, stats);
}

/// Run `engine` over a candidate list handed over in fixed slices of
/// `slice` candidates. A weight class cut by a slice boundary becomes two
/// buckets, so this places bucket boundaries between tie-weight
/// candidates at will.
Graph run_sliced(GreedyEngine& engine, Graph h, const std::vector<GreedyCandidate>& cands,
                 std::size_t slice, GreedyStats* stats = nullptr) {
    class Slices final : public CandidateChunkSource {
    public:
        Slices(const std::vector<GreedyCandidate>& all, std::size_t width)
            : all_(&all), width_(width) {}
        bool next_chunk(std::size_t, std::vector<GreedyCandidate>& out) override {
            if (next_ >= all_->size()) return false;
            const std::size_t end = std::min(next_ + width_, all_->size());
            out.insert(out.end(), all_->begin() + static_cast<std::ptrdiff_t>(next_),
                       all_->begin() + static_cast<std::ptrdiff_t>(end));
            next_ = end;
            return true;
        }

    private:
        const std::vector<GreedyCandidate>* all_;
        std::size_t width_;
        std::size_t next_ = 0;
    };
    Slices source(cands, slice);
    std::vector<GreedyCandidate> buffer;
    return engine.run(std::move(h), source, buffer, stats);
}

/// Run a configured engine over a graph's sorted edge candidates (this
/// suite tests the engine itself, not the front doors).
Graph run_with(const Graph& g, const GreedyEngineOptions& options,
               GreedyStats* stats = nullptr) {
    GreedyEngine engine(g.num_vertices(), options);
    return run_list(engine, Graph(g.num_vertices()), sorted_graph_candidates(g), stats);
}

/// The instance families named by the issue: Erdos-Renyi, grid, Euclidean
/// (random geometric, with Euclidean edge weights).
std::vector<std::pair<std::string, Graph>> instance_family(std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::pair<std::string, Graph>> out;
    out.emplace_back("erdos_renyi", erdos_renyi(60, 0.15, {.lo = 0.5, .hi = 3.0}, rng));
    out.emplace_back("grid", grid_graph(8, 9, {.lo = 1.0, .hi = 2.0}, rng));
    out.emplace_back("euclidean", random_geometric(70, 0.25, rng));
    return out;
}

class EngineEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(EngineEquivalenceTest, EveryConfigurationMatchesTheNaiveKernel) {
    const auto [seed, t] = GetParam();
    for (const auto& [name, g] : instance_family(seed)) {
        GreedyStats naive_stats;
        const Graph naive = run_with(g, config_from_mask(t, 0), &naive_stats);
        EXPECT_EQ(naive_stats.dijkstra_runs, g.num_edges()) << name;
        for (unsigned mask = 1; mask <= 7; ++mask) {
            GreedyStats stats;
            const Graph h = run_with(g, config_from_mask(t, mask), &stats);
            EXPECT_TRUE(same_edge_set(h, naive))
                << name << " diverges under " << mask_name(mask) << " at t=" << t;
            EXPECT_EQ(stats.edges_examined, g.num_edges());
            // No configuration may run *more* queries than the naive loop.
            EXPECT_LE(stats.dijkstra_runs, naive_stats.dijkstra_runs)
                << name << " " << mask_name(mask);
            if ((mask & 4u) != 0) {
                // The incremental store builds once per run; no per-bucket
                // refreeze.
                EXPECT_EQ(stats.csr_rebuilds, 1u);
            } else {
                EXPECT_EQ(stats.csr_rebuilds, 0u);
            }
            if ((mask & 2u) == 0) {
                EXPECT_EQ(stats.balls_computed, 0u);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, EngineEquivalenceTest,
                         ::testing::Combine(::testing::Values(3u, 17u, 101u),
                                            ::testing::Values(1.1, 1.5, 2.0, 4.0)));

TEST(NaiveKernelTest, MatchesLiteralAlgorithmOneEdgeForEdge) {
    // Every equivalence suite compares against EngineTuning::naive(); this
    // checks naive() itself. Weights from a small set whose sums land on
    // (or an ulp beside) other weights make exact and near ties common.
    const std::vector<Weight> weights = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6,
                                         0.7, 0.8, 0.9, 1.1, 1.3};
    for (const double t : {1.0, 1.5, 2.0}) {
        Rng rng(static_cast<std::uint64_t>(t * 1000));
        for (int instance = 0; instance < 100; ++instance) {
            const std::size_t n = 40 + rng.index(40);
            const Graph shape = random_graph_nm(n, 4 * n, {.lo = 1.0, .hi = 1.0}, rng);
            Graph g(n);
            for (const Edge& e : shape.edges()) {
                g.add_edge(e.u, e.v, rng.pick(std::span<const Weight>(weights)));
            }
            SpannerSession session;
            GraphCandidateSource source(g);
            BuildOptions options;
            options.stretch = t;
            options.engine = EngineTuning::naive();
            const Graph naive = session.build(source, options);
            const Graph want = literal_greedy(g, t);
            ASSERT_EQ(naive.num_edges(), want.num_edges()) << "t=" << t << " #" << instance;
            for (EdgeId id = 0; id < want.num_edges(); ++id) {
                ASSERT_EQ(naive.edge(id), want.edge(id)) << "t=" << t << " #" << instance;
            }
        }
    }
}

/// 70% of an (8..13) x (8..13) lattice of spacing 0.1: decimal
/// coordinates, so distances and path sums tie exactly, or miss a tie by
/// an ulp, all the time.
EuclideanMetric decimal_lattice(Rng& rng) {
    const std::size_t cols = 8 + rng.index(6);
    const std::size_t rows = 8 + rng.index(6);
    std::vector<double> coords;
    for (std::size_t i = 0; i < cols; ++i) {
        for (std::size_t j = 0; j < rows; ++j) {
            if (rng.uniform01() < 0.7) {
                coords.push_back(0.1 * static_cast<double>(i));
                coords.push_back(0.1 * static_cast<double>(j));
            }
        }
    }
    return EuclideanMetric(2, std::move(coords));
}

/// A naive() session build over `source` against literal_greedy on the
/// source's own seed edges and sorted list at engine stretch `t`, edge
/// for edge in insertion order.
void expect_naive_is_literal(CandidateSource& source, BuildOptions options, double t,
                             const std::string& label) {
    options.engine = EngineTuning::naive();
    SpannerSession session;
    const Graph naive = session.build(source, options);
    Graph seed(source.num_vertices());
    source.seed(seed);
    std::vector<GreedyCandidate> sorted;
    source.materialize(sorted);
    const Graph want = literal_greedy(std::move(seed), sorted, t);
    ASSERT_EQ(naive.num_edges(), want.num_edges()) << label;
    for (EdgeId id = 0; id < want.num_edges(); ++id) {
        ASSERT_EQ(naive.edge(id), want.edge(id)) << label << " edge " << id;
    }
}

TEST(NaiveKernelTest, MatchesLiteralAlgorithmOneOnEveryPointSource) {
    // Decimal lattices through the metric, WSPD (s = 9) and grid (s = 5)
    // sources at t in {1, 1.1, 1.5}, 20 instances each. naive() asks for
    // the blind one-sided sweep, so the grid must not hand it the A* goal
    // oracle, whose f-key prune drops witnesses that tie t * w exactly.
    for (const double t : {1.0, 1.1, 1.5}) {
        Rng rng(static_cast<std::uint64_t>(t * 1000) + 7);
        for (int instance = 0; instance < 20; ++instance) {
            const EuclideanMetric pts = decimal_lattice(rng);
            BuildOptions options;
            options.stretch = t;
            const std::string at = "t=" + std::to_string(t) + " #" + std::to_string(instance);
            MetricCandidateSource metric(pts);
            expect_naive_is_literal(metric, options, t, "metric " + at);
            WspdCandidateSource wspd(pts, 9.0);
            expect_naive_is_literal(wspd, options, t, "wspd " + at);
            GridCandidateSource grid(pts, 5.0);
            expect_naive_is_literal(grid, options, t, "grid " + at);
        }
    }
}

TEST(NaiveKernelTest, MatchesLiteralAlgorithmOneOnTheBaseSpannerSource) {
    // The simulation seeds its E0 edges and runs at its own t_sim,
    // whatever BuildOptions::stretch says, so epsilon is what varies:
    // t_sim = (1 + eps) / (1 + eps / 3) is about 1.065, 1.286 and 1.5.
    for (const double eps : {0.1, 0.5, 1.0}) {
        Rng rng(static_cast<std::uint64_t>(eps * 1000) + 11);
        for (int instance = 0; instance < 20; ++instance) {
            const EuclideanMetric pts = decimal_lattice(rng);
            BuildOptions options;
            options.approx.epsilon = eps;
            BaseSpannerCandidateSource base(pts, options);
            expect_naive_is_literal(base, options, base.t_sim(),
                                    "eps=" + std::to_string(eps) + " #" +
                                        std::to_string(instance));
        }
    }
}

TEST(GreedyEngineTest, DeterministicAcrossRuns) {
    Rng rng(9);
    const Graph g = erdos_renyi(80, 0.2, {.lo = 0.5, .hi = 4.0}, rng);
    GreedyEngineOptions options;  // full engine
    options.stretch = 2.0;
    const Graph a = run_with(g, options);
    const Graph b = run_with(g, options);
    // Stronger than same_edge_set: identical insertion sequence.
    ASSERT_EQ(a.num_edges(), b.num_edges());
    for (EdgeId id = 0; id < a.num_edges(); ++id) {
        EXPECT_EQ(a.edge(id), b.edge(id));
    }
}

TEST(GreedyEngineTest, ReusedEngineInstanceIsStateless) {
    // One engine, two runs over different candidate lists: the scratch
    // (bounds, groups, epochs) must fully reset between runs.
    Rng rng(21);
    const Graph g1 = erdos_renyi(40, 0.3, {.lo = 1.0, .hi = 2.0}, rng);
    const Graph g2 = grid_graph(5, 8, {.lo = 1.0, .hi = 2.0}, rng);
    GreedyEngineOptions options;
    options.stretch = 1.5;
    // Same vertex count keeps one engine valid for both.
    ASSERT_EQ(g1.num_vertices(), g2.num_vertices());
    GreedyEngine engine(g1.num_vertices(), options);
    const Graph a1 = run_list(engine, Graph(g1.num_vertices()), sorted_graph_candidates(g1));
    const Graph a2 = run_list(engine, Graph(g2.num_vertices()), sorted_graph_candidates(g2));
    EXPECT_TRUE(same_edge_set(a1, greedy_spanner(g1, 1.5)));
    EXPECT_TRUE(same_edge_set(a2, greedy_spanner(g2, 1.5)));
}

TEST(GreedyEngineTest, RejectsUnsortedCandidates) {
    GreedyEngineOptions opts;
    opts.stretch = 2.0;
    GreedyEngine engine(3, opts);
    const std::vector<GreedyCandidate> unsorted = {{0, 1, 2.0}, {1, 2, 1.0}};
    EXPECT_THROW(run_list(engine, Graph(3), unsorted), std::invalid_argument);
}

TEST(GreedyEngineTest, RejectsBadOptions) {
    GreedyEngineOptions bad_stretch;
    bad_stretch.stretch = 0.5;
    EXPECT_THROW(GreedyEngine(3, bad_stretch), std::invalid_argument);
    // NaN fails every comparison, so only a NaN-proof check catches it.
    GreedyEngineOptions nan_stretch;
    nan_stretch.stretch = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(GreedyEngine(3, nan_stretch), std::invalid_argument);
    // An infinite stretch rejects unreachable pairs (inf <= inf).
    GreedyEngineOptions inf_stretch;
    inf_stretch.stretch = std::numeric_limits<double>::infinity();
    EXPECT_THROW(GreedyEngine(3, inf_stretch), std::invalid_argument);
    GreedyEngineOptions bad_chunk;
    bad_chunk.chunk_soft_cap = 0;
    EXPECT_THROW(GreedyEngine(3, bad_chunk), std::invalid_argument);
}

TEST(GreedyEngineTest, RejectsAThresholdThatOverflows) {
    // A finite stretch whose t * w overflows to +inf would reject the
    // unreachable pairs just like an infinite one: the path 0-1-2 must
    // keep both edges or fail, never return 0 edges.
    Graph path(3);
    path.add_edge(0, 1, 1e10);
    path.add_edge(1, 2, 1e10);
    EXPECT_THROW((void)greedy_spanner(path, 1e300), std::invalid_argument);
    EXPECT_EQ(greedy_spanner(path, 1e290).num_edges(), 2u);
}

TEST(GreedyEngineTest, BucketAfterAZeroAcceptBucketRunsToTheChunkEnd) {
    // A bucket is the octave [lo, 2 lo], except that the bucket after one
    // that accepted no edge takes the rest of the resident chunk. At
    // t = 1.5: bucket 1 accepts the path 0-1-2-3, bucket 2 = [3, 6]
    // rejects its three chords, so bucket 3 spans the two octaves from 7
    // to 40 (two accepts, two rejects) -- 3 buckets where octaves alone
    // make 4.
    const std::vector<GreedyCandidate> cands = {
        {0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0},  // [1, 2]: accepts
        {0, 2, 3.0}, {1, 3, 3.0}, {0, 3, 4.0},  // [3, 6]: rejects only
        {3, 4, 7.0}, {4, 5, 20.0},              // widened: two accepts ...
        {0, 4, 30.0}, {1, 5, 40.0},             // ... and two rejects
    };
    GreedyEngineOptions naive_options = config_from_mask(1.5, 0);
    GreedyEngine naive(6, naive_options);
    GreedyStats naive_stats;
    const Graph want = run_list(naive, Graph(6), cands, &naive_stats);
    ASSERT_EQ(want.num_edges(), 5u);
    EXPECT_EQ(naive_stats.buckets, 3u);  // the rule is the stream's, not a config's

    for (const std::size_t threads : {1u, 2u}) {
        for (const bool sharing : {true, false}) {
            GreedyEngineOptions options;
            options.stretch = 1.5;
            options.num_threads = threads;
            options.ball_sharing = sharing;
            GreedyEngine engine(6, options);
            GreedyStats stats;
            const Graph h = run_list(engine, Graph(6), cands, &stats);
            EXPECT_TRUE(same_edge_set(h, want));
            EXPECT_EQ(stats.buckets, 3u);
            // A chunk boundary still cuts the widened bucket: slices of 8
            // split it into [7, 20] (chunk end) and [30, 40].
            GreedyEngine sliced_engine(6, options);
            GreedyStats sliced_stats;
            EXPECT_TRUE(same_edge_set(
                run_sliced(sliced_engine, Graph(6), cands, 8, &sliced_stats), want));
            EXPECT_EQ(sliced_stats.buckets, 4u);
        }
    }
}

TEST(GreedyEngineTest, WidenedBucketsThatStillAcceptMatchNaive) {
    // Tight blobs: once a blob's internal octaves stop accepting, the next
    // bucket runs to the end of the list and carries the inter-blob
    // accepts. Replaying the stream's bucket rule against the naive edge
    // set shows that some bucket following a zero-accept bucket really
    // does accept; the engine must cut exactly the replay's buckets.
    Rng rng(404);
    const EuclideanMetric pts = clustered_points(300, 2, 4, 100.0, 0.5, rng);
    std::vector<GreedyCandidate> cands;
    MetricCandidateSource(pts).materialize(cands);
    GreedyEngine naive(pts.size(), config_from_mask(1.5, 0));
    const Graph want = run_list(naive, Graph(pts.size()), cands);

    std::set<std::pair<VertexId, VertexId>> kept;
    for (const Edge& e : want.edges()) kept.emplace(std::min(e.u, e.v), std::max(e.u, e.v));
    WholeListChunkSource replay_source([&cands](std::vector<GreedyCandidate>& out) {
        out.insert(out.end(), cands.begin(), cands.end());
    });
    std::vector<GreedyCandidate> buffer;
    CandidateStream replay(replay_source, buffer, EngineTuning{}.chunk_soft_cap, 1.5);
    CandidateBucket bucket;
    bool widen = false;
    std::size_t buckets = 0;
    bool widened_accept = false;
    while (replay.next(bucket, widen)) {
        ++buckets;
        std::size_t accepts = 0;
        for (const GreedyCandidate& c : replay.window(bucket)) {
            accepts += kept.count({std::min(c.u, c.v), std::max(c.u, c.v)});
        }
        widened_accept |= widen && accepts > 0;
        widen = accepts == 0;
    }
    EXPECT_TRUE(widened_accept);

    for (const std::size_t threads : {1u, 2u, 4u}) {
        GreedyEngineOptions options;
        options.stretch = 1.5;
        options.num_threads = threads;
        GreedyEngine engine(pts.size(), options);
        GreedyStats stats;
        const Graph h = run_list(engine, Graph(pts.size()), cands, &stats);
        EXPECT_TRUE(same_edge_set(h, want)) << "threads " << threads;
        EXPECT_EQ(stats.buckets, buckets) << "threads " << threads;
    }
}

TEST(GreedyEngineTest, HandoffCostsOneByteAndOneBitPerCandidate) {
    // The stage-2 -> stage-3 handoff is one state byte per candidate of
    // the bucket, plus one far bit in parallel runs. Unit weights put all
    // 64 * 100 candidates in one bucket, so the bound is exact.
    Rng rng(64);
    const Graph g = random_graph_nm(300, 6400 - 299, {.lo = 1.0, .hi = 1.0}, rng);
    ASSERT_EQ(g.num_edges(), 6400u);
    for (const std::size_t threads : {1u, 2u}) {
        GreedyEngineOptions options;
        options.stretch = 2.0;
        options.num_threads = threads;
        GreedyStats stats;
        (void)run_with(g, options, &stats);
        EXPECT_EQ(stats.buckets, 1u);
        EXPECT_EQ(stats.handoff_peak_bytes, threads == 1 ? 6400u : 6400u + 6400u / 8u);
    }
    // Whatever the bucket shapes, the peak stays within (1 B + 1 bit)
    // times the largest bucket, which is at most every candidate.
    Rng prng(65);
    const EuclideanMetric pts = uniform_points(400, 2, 200.0, prng);
    BuildOptions options;
    options.stretch = 1.5;
    options.engine.num_threads = 4;
    MetricCandidateSource source(pts);
    SpannerSession session;
    BuildReport report;
    (void)session.build(source, options, &report);
    const std::size_t words = (report.candidates + 63) / 64;
    EXPECT_LE(report.stats.handoff_peak_bytes,
              report.candidates + words * sizeof(std::uint64_t));
}

/// Thread counts the issue names: serial, small, oversubscribed, hardware
/// (0 resolves to std::thread::hardware_concurrency).
const std::size_t kThreadCounts[] = {1, 2, 4, 0};

TEST(ParallelEngineTest, EdgeSetMatchesNaiveAtEveryThreadCount) {
    // The core contract of the three-stage pipeline: stage-2 facts are
    // sound and stage 3 re-verifies every surviving accept in tie order,
    // so the edge set is identical to the naive kernel no matter how many
    // workers prefilter the buckets.
    for (const std::uint64_t seed : {3u, 101u}) {
        for (const auto& [name, g] : instance_family(seed)) {
            const Graph naive = run_with(g, config_from_mask(2.0, 0));
            for (const std::size_t threads : kThreadCounts) {
                for (const bool sharing : {true, false}) {
                    for (const double accept_gate : {0.25, 1.0}) {
                        GreedyEngineOptions options;
                        options.stretch = 2.0;
                        options.ball_sharing = sharing;
                        options.num_threads = threads;
                        options.parallel_accept_gate = accept_gate;
                        GreedyStats stats;
                        const Graph h = run_with(g, options, &stats);
                        EXPECT_TRUE(same_edge_set(h, naive))
                            << name << " diverges at num_threads=" << threads
                            << " sharing=" << sharing << " gate=" << accept_gate;
                        EXPECT_EQ(stats.edges_examined, g.num_edges());
                        if (!sharing) {
                            EXPECT_EQ(stats.balls_computed, 0u);
                        }
                    }
                }
            }
        }
    }
}

TEST(ParallelEngineTest, StatsAreScheduleIndependent) {
    // Stage-2 decisions (which probes run, what they record) are pure
    // functions of the bucket-start snapshot, so even the *counters* must
    // be reproducible run to run at any fixed thread count.
    Rng rng(55);
    const Graph g = erdos_renyi(90, 0.15, {.lo = 0.5, .hi = 4.0}, rng);
    GreedyEngineOptions options;
    options.stretch = 1.8;
    options.num_threads = 4;
    GreedyStats a;
    GreedyStats b;
    const Graph ha = run_with(g, options, &a);
    const Graph hb = run_with(g, options, &b);
    EXPECT_TRUE(same_edge_set(ha, hb));
    EXPECT_EQ(a.dijkstra_runs, b.dijkstra_runs);
    EXPECT_EQ(a.balls_computed, b.balls_computed);
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_EQ(a.snapshot_accepts, b.snapshot_accepts);
    EXPECT_EQ(a.csr_rebuilds, b.csr_rebuilds);
    EXPECT_EQ(a.csr_compactions, b.csr_compactions);
    EXPECT_EQ(a.handoff_peak_bytes, b.handoff_peak_bytes);
    EXPECT_EQ(a.edges_added, b.edges_added);
}

/// Field-by-field counter equality, seconds excluded.
void expect_counters_equal(const GreedyStats& a, const GreedyStats& b) {
    EXPECT_EQ(a.edges_examined, b.edges_examined);
    EXPECT_EQ(a.edges_added, b.edges_added);
    EXPECT_EQ(a.dijkstra_runs, b.dijkstra_runs);
    EXPECT_EQ(a.balls_computed, b.balls_computed);
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_EQ(a.snapshot_accepts, b.snapshot_accepts);
    EXPECT_EQ(a.group_probes, b.group_probes);
    EXPECT_EQ(a.group_probe_decisions, b.group_probe_decisions);
    EXPECT_EQ(a.group_probe_early_exits, b.group_probe_early_exits);
    EXPECT_EQ(a.bidirectional_meets, b.bidirectional_meets);
    EXPECT_EQ(a.buckets, b.buckets);
    EXPECT_EQ(a.handoff_peak_bytes, b.handoff_peak_bytes);
}

TEST(ParallelEngineTest, WholeBucketStageTwoRunsNoMoreProbesThanSerial) {
    // The multi-core pathology this stage shape fixes: slicing an all-pairs
    // weight bucket into fixed-width batches shrank each source group to a
    // few members and multiplied the Dijkstra count ~7x at 4 workers. With
    // stage 2 fanning out whole-bucket source groups, a parallel build
    // runs about the serial number of probes. Every stage-2 decision is a
    // pure function of the bucket-start spanner, so the counters are
    // exact, not timing-dependent, and agree across worker counts.
    Rng rng(2026);
    const EuclideanMetric points = uniform_points(512, 2, 100.0, rng);
    BuildOptions options;
    options.stretch = 1.5;
    const auto build = [&](std::size_t threads, GreedyStats& stats) {
        BuildOptions o = options;
        o.engine.num_threads = threads;
        MetricCandidateSource source(points);
        SpannerSession session;
        BuildReport report;
        Graph h = session.build(source, o, &report);
        stats = report.stats;
        return h;
    };
    GreedyStats serial, mt2, mt4;
    const Graph h1 = build(1, serial);
    const Graph h2 = build(2, mt2);
    const Graph h4 = build(4, mt4);
    EXPECT_TRUE(same_edge_set(h4, h1));
    EXPECT_TRUE(same_edge_set(h2, h1));
    EXPECT_LE(static_cast<double>(mt4.dijkstra_runs),
              1.3 * static_cast<double>(serial.dijkstra_runs))
        << "mt4 " << mt4.dijkstra_runs << " vs serial " << serial.dijkstra_runs;
    expect_counters_equal(mt2, mt4);
}

TEST(ParallelEngineTest, StaleFarBitsAreReDecidedExactly) {
    // A far bit staled by an insertion earlier in the bucket is a
    // candidate the insertion loop must re-decide on the current spanner.
    // Unit weights (one bucket, constant thresholds) manufacture exactly
    // that: accepts early in the bucket shorten later candidates' pairs
    // below their thresholds.
    for (const std::uint64_t seed : {5u, 23u, 77u}) {
        Rng rng(seed);
        const Graph g = erdos_renyi(80, 0.3, {.lo = 1.0, .hi = 1.0}, rng);
        const Graph naive_h = run_with(g, config_from_mask(2.5, 0));
        for (const std::size_t threads : {2u, 4u}) {
            GreedyEngineOptions options;
            options.stretch = 2.5;
            options.num_threads = threads;
            options.ball_share_min_group = 2;
            GreedyStats stats;
            const Graph h = run_with(g, options, &stats);
            EXPECT_TRUE(same_edge_set(h, naive_h)) << "seed " << seed
                                                   << " threads " << threads;
        }
    }
}

TEST(ParallelEngineTest, AcceptHeavyBucketsForceNoFullRefreeze) {
    // The acceptance criterion of the incremental store: an accept-heavy
    // parallel run must not refreeze the CSR per bucket -- O(m) each. The
    // gap-buffered view mirrors insertions at O(degree), so the whole run
    // pays exactly one full build no matter how many buckets insert.
    Rng rng(12);
    const Graph g = random_graph_nm(600, 4800, {.lo = 1.0, .hi = 2.0}, rng);
    for (const std::size_t threads : {2u, 4u}) {
        GreedyEngineOptions options;
        options.stretch = 2.0;               // accept-heavy regime (MST-ish phases)
        options.num_threads = threads;
        options.parallel_accept_gate = 1.0;  // force stage 2 for every bucket
        GreedyStats stats;
        const Graph h = run_with(g, options, &stats);
        EXPECT_TRUE(same_edge_set(h, greedy_spanner(g, 2.0))) << "threads " << threads;
        EXPECT_GT(stats.edges_added, 100u);  // genuinely accept-heavy
        EXPECT_EQ(stats.csr_rebuilds, 1u);   // one build, zero refreezes
        // Amortized merge-on-threshold keeps compactions rare: a run that
        // inserts k edges performs O(k / threshold) compactions, not O(k).
        EXPECT_LE(stats.csr_compactions, 8u);
    }
}

TEST(ParallelEngineTest, SnapshotCertificatesAreConsumed) {
    // On a reject-heavy instance most accepts happen with no insertion
    // since the bucket snapshot, so the insertion loop should be consuming
    // stage-2 "far at snapshot" certificates instead of re-querying.
    Rng rng(8);
    const Graph g = erdos_renyi(120, 0.2, {.lo = 1.0, .hi = 8.0}, rng);
    GreedyEngineOptions options;
    options.stretch = 3.0;  // deep rejection regime
    options.num_threads = 2;
    options.ball_sharing = false;      // route everything through point probes
    options.parallel_accept_gate = 1.0;  // prefilter every bucket
    GreedyStats stats;
    const Graph h = run_with(g, options, &stats);
    EXPECT_TRUE(same_edge_set(h, greedy_spanner(g, 3.0)));
    EXPECT_GT(stats.snapshot_accepts, 0u);
}

TEST(ParallelEngineTest, BallsNeverLeakAcrossBucketBoundaries) {
    // Regression guard: a ball's harvest only writes bounds for its own
    // bucket's group, so ball reuse must be keyed to the *bucket*
    // sequence, not the weight class -- a chunk boundary can cut one
    // weight class into two buckets, and a ball keyed on the class can be
    // revalidated by a tie-weight same-source candidate of the next
    // bucket whose bound was never harvested, accepting an edge the naive
    // kernel rejects.
    //
    // Deterministic trigger (unit weights, slices of 4 candidates, t =
    // 2.5, seed edge 3-0): bucket 1 accepts 0-1 and 1-2, then source 3's
    // group {(3,1), (3,0)} grows a serial ball (radius 2.5, epoch
    // unchanged afterwards -- both candidates reject), and its 50% accept
    // rate makes stage 2 skip bucket 2. Bucket 2 holds a duplicate (3,1):
    // its bound was never harvested (different bucket's group), no
    // insertion happened since the ball, and the radius covers the tie
    // threshold -- a class-keyed guard accepts it even though the spanner
    // distance is 2 <= 2.5.
    const std::vector<GreedyCandidate> cands = {
        {0, 1, 1.0}, {1, 2, 1.0}, {3, 1, 1.0}, {3, 0, 1.0},  // bucket 1
        {3, 1, 1.0},                                         // bucket 2
    };
    const auto seeded = [] {
        Graph h(4);
        h.add_edge(3, 0, 1.0);
        return h;
    };
    GreedyEngineOptions naive_options;
    naive_options.stretch = 2.5;
    naive_options.bidirectional = false;
    naive_options.ball_sharing = false;
    naive_options.csr_snapshot = false;
    GreedyEngine naive(4, naive_options);
    const Graph want = run_list(naive, seeded(), cands);
    ASSERT_EQ(want.num_edges(), 3u);  // seed + 0-1 + 1-2; both (3,1) and (3,0) reject

    for (const std::size_t threads : {2u, 4u}) {
        GreedyEngineOptions options;
        options.stretch = 2.5;
        options.num_threads = threads;
        options.parallel_accept_gate = 0.25;
        options.ball_share_min_group = 2;
        GreedyEngine parallel(4, options);
        const Graph got = run_sliced(parallel, seeded(), cands, 4);
        EXPECT_TRUE(same_edge_set(got, want)) << "threads " << threads;
    }

    // Broader randomized sweep over the same hazard: unit weights (one
    // weight class, constant tie thresholds) cut into small buckets, with
    // mixed accept/reject phases at t = 2.5.
    for (const std::uint64_t seed : {4u, 42u, 99u, 7u}) {
        Rng rng(seed);
        const Graph g = erdos_renyi(80, 0.3, {.lo = 1.0, .hi = 1.0}, rng);
        const Graph naive_h = run_with(g, config_from_mask(2.5, 0));
        const std::vector<GreedyCandidate> all = sorted_graph_candidates(g);
        for (const std::size_t threads : {2u, 4u}) {
            for (const std::size_t slice : {4u, 8u, 32u}) {
                GreedyEngineOptions sweep;
                sweep.stretch = 2.5;
                sweep.num_threads = threads;
                sweep.parallel_accept_gate = 0.25;
                sweep.ball_share_min_group = 2;
                GreedyEngine engine(g.num_vertices(), sweep);
                const Graph h = run_sliced(engine, Graph(g.num_vertices()), all, slice);
                EXPECT_TRUE(same_edge_set(h, naive_h))
                    << "seed " << seed << " threads " << threads << " slice " << slice;
            }
        }
    }
}

TEST(GreedyEngineTest, SeededSpannerEdgesAreRespected) {
    // Pre-seeded edges (the approximate-greedy E0 set) participate in
    // distance queries from the first bucket on.
    Graph seed(4);
    seed.add_edge(0, 1, 1.0);
    seed.add_edge(1, 2, 1.0);
    GreedyEngineOptions opts;
    opts.stretch = 2.0;
    GreedyEngine engine(4, opts);
    // Candidate (0, 2) has witness path 0-1-2 of weight 2 <= 2 * 1.5.
    const std::vector<GreedyCandidate> cands = {{0, 2, 1.5}, {2, 3, 2.0}};
    const Graph h = run_list(engine, std::move(seed), cands);
    EXPECT_EQ(h.num_edges(), 3u);
    EXPECT_FALSE(h.has_edge(0, 2));
    EXPECT_TRUE(h.has_edge(2, 3));
}

}  // namespace
}  // namespace gsp
