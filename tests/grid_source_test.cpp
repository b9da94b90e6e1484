// The grid-pruned candidate source (geom/uniform_grid + api/grid_source):
//
//  * the window sweep emits candidates in non-decreasing weight order,
//    duplicate-free, matching materialize() chunk by chunk;
//  * near pairs are enumerated *exactly*: the emitted candidates below
//    the near cutoff are precisely the brute-force pairs closer than the
//    cutoff;
//  * every pair of the metric is covered (its covering_candidate -- the
//    pair itself when near, the assigned level's representative pair
//    otherwise -- appears in the stream), the structural fact behind the
//    dumbbell stretch bound;
//  * a greedy build over the source audits within
//    wspd_greedy_stretch_bound(t, s) of the full metric;
//  * the registry entry wires it all up ("greedy-grid");
//  * the planned window sweep splits identically: at window budgets far
//    below the default the stream is still byte-identical to
//    materialize(), a whole window stays within its budget unless it is
//    one equal-weight mass, and the plan pass plus one pass per window
//    are the only enumerations.
#include "api/grid_source.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/audit.hpp"
#include "api/registry.hpp"
#include "api/session.hpp"
#include "gen/points.hpp"
#include "geom/uniform_grid.hpp"
#include "util/random.hpp"

namespace gsp {
namespace {

std::vector<GreedyCandidate> drain(GridChunkSource& source, std::size_t soft_cap) {
    std::vector<GreedyCandidate> all;
    std::vector<GreedyCandidate> chunk;
    while (source.next_chunk(soft_cap, chunk)) {
        EXPECT_FALSE(chunk.empty()) << "true return must mean appended candidates";
        all.insert(all.end(), chunk.begin(), chunk.end());
        chunk.clear();
    }
    return all;
}

using Triple = std::tuple<double, VertexId, VertexId>;

std::set<Triple> as_set(const std::vector<GreedyCandidate>& cands) {
    std::set<Triple> out;
    for (const GreedyCandidate& c : cands) out.insert({c.weight, c.u, c.v});
    return out;
}

class GridSourceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GridSourceTest, EmissionIsSortedDeduplicatedAndChunkInvariant) {
    Rng rng(GetParam());
    const EuclideanMetric pts = clustered_points(140, 2, 5, 80.0, 1.5, rng);
    GridCandidateSource source(pts, 9.0);

    std::vector<GreedyCandidate> full;
    source.materialize(full);
    ASSERT_FALSE(full.empty());
    for (std::size_t i = 1; i < full.size(); ++i) {
        EXPECT_GE(full[i].weight, full[i - 1].weight) << "at " << i;
        if (full[i].weight == full[i - 1].weight) {
            EXPECT_NE(std::tie(full[i].u, full[i].v),
                      std::tie(full[i - 1].u, full[i - 1].v))
                << "duplicate candidate at " << i;
        }
        EXPECT_LT(full[i].u, full[i].v) << "canonical endpoint order at " << i;
    }

    // The chunked stream is the same sequence at every soft cap.
    for (const std::size_t cap : {std::size_t{1}, std::size_t{7}, std::size_t{1000}}) {
        GridChunkSource chunks(source.grid());
        const std::vector<GreedyCandidate> streamed = drain(chunks, cap);
        ASSERT_EQ(streamed.size(), full.size()) << "soft_cap=" << cap;
        for (std::size_t i = 0; i < full.size(); ++i) {
            EXPECT_EQ(streamed[i].u, full[i].u) << "soft_cap=" << cap << " at " << i;
            EXPECT_EQ(streamed[i].v, full[i].v) << "soft_cap=" << cap << " at " << i;
            EXPECT_EQ(streamed[i].weight, full[i].weight)
                << "soft_cap=" << cap << " at " << i;
        }
    }
}

TEST_P(GridSourceTest, NearPairsAreExactAndEveryPairIsCovered) {
    Rng rng(GetParam() ^ 0x5a5a);
    const EuclideanMetric pts = uniform_points(120, 2, 50.0, rng);
    GridCandidateSource source(pts, 8.0);
    std::vector<GreedyCandidate> full;
    source.materialize(full);
    const std::set<Triple> emitted = as_set(full);
    const double cutoff = source.grid().near_cutoff();

    // Exact near enumeration: emitted-below-cutoff == brute force. (A
    // representative pair under the cutoff is itself a near pair, so the
    // ring emissions add nothing below it.)
    std::set<Triple> brute;
    for (VertexId i = 0; i < pts.size(); ++i) {
        for (VertexId j = i + 1; j < pts.size(); ++j) {
            const double d = pts.distance(i, j);
            if (d < cutoff) brute.insert({d, i, j});
        }
    }
    std::set<Triple> emitted_near;
    for (const Triple& t : emitted) {
        if (std::get<0>(t) < cutoff) emitted_near.insert(t);
    }
    EXPECT_EQ(emitted_near, brute);

    // Full coverage: the covering candidate of every pair is in the stream.
    for (VertexId i = 0; i < pts.size(); ++i) {
        for (VertexId j = i + 1; j < pts.size(); ++j) {
            const GreedyCandidate c = source.grid().covering_candidate(i, j);
            EXPECT_TRUE(emitted.count({c.weight, c.u, c.v}))
                << "pair (" << i << ", " << j << ") uncovered";
        }
    }
}

TEST_P(GridSourceTest, GreedyBuildAuditsWithinTheDumbbellBound) {
    Rng rng(GetParam() ^ 0x33cc);
    const EuclideanMetric pts = clustered_points(90, 2, 4, 60.0, 1.0, rng);
    const double t = 1.5;
    const double s = 10.0;
    GridCandidateSource source(pts, s);
    SpannerSession session;
    BuildOptions options;
    options.stretch = t;
    BuildReport report;
    const Graph h = session.build(source, options, &report);
    EXPECT_EQ(report.stretch_target, wspd_greedy_stretch_bound(t, s));
    EXPECT_LE(max_stretch_metric(pts, h), wspd_greedy_stretch_bound(t, s) + 1e-9);
    EXPECT_GT(report.candidates, 0u);
    EXPECT_EQ(report.candidates, report.stats.candidates_streamed);
    // The streaming path really streamed: the peak resident chunk stayed
    // under the full candidate list.
    EXPECT_LE(report.stats.candidate_buffer_peak_bytes,
              report.candidates * sizeof(GreedyCandidate));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridSourceTest, ::testing::Values(5u, 67u, 491u));

TEST(GridSourceTest, RegistryEntryBuildsAndValidates) {
    Rng rng(11);
    const EuclideanMetric pts = uniform_points(100, 2, 40.0, rng);
    SpannerSession session;
    BuildOptions options;
    options.stretch = 2.0;
    options.geometric.wspd_separation = 8.0;
    BuildReport report;
    const Graph h = AlgorithmRegistry::global().build("greedy-grid", session,
                                                      BuildInput::of(pts), options);
    EXPECT_GT(h.num_edges(), 0u);
    EXPECT_GE(h.num_edges(), pts.size() - 1);  // spans the point set
    const AlgorithmInfo* info = AlgorithmRegistry::global().find("greedy-grid");
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->input, InputKind::kEuclidean2D);
    EXPECT_TRUE(info->uses_engine);
}

TEST(GridSourceTest, RejectsBadSeparationAndNon2D) {
    Rng rng(29);
    const EuclideanMetric pts2 = uniform_points(10, 2, 5.0, rng);
    const EuclideanMetric pts3 = uniform_points(10, 3, 5.0, rng);
    EXPECT_THROW(GridCandidateSource(pts2, 4.0), std::invalid_argument);
    EXPECT_THROW(GridCandidateSource(pts2, -1.0, 0.0), std::invalid_argument);
    EXPECT_THROW(GridCandidateSource(pts3, 8.0), std::invalid_argument);
    // Epsilon-derived separation (4 + 8/eps) is always in the finite regime.
    GridCandidateSource derived(pts2, 0.0, 0.5);
    EXPECT_DOUBLE_EQ(derived.separation(), 20.0);
}

TEST(GridSourceTest, DegenerateInputs) {
    // Empty and singleton point sets produce empty candidate streams;
    // duplicate points produce zero-weight candidates that still obey the
    // ordering contract.
    const std::vector<std::pair<double, double>> no_pts;
    const EuclideanMetric empty = make_euclidean_2d(no_pts);
    GridCandidateSource empty_source(empty, 8.0);
    std::vector<GreedyCandidate> cands;
    empty_source.materialize(cands);
    EXPECT_TRUE(cands.empty());

    const std::vector<std::pair<double, double>> dupe_pts = {
        {1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}, {4.0, 5.0}};
    const EuclideanMetric dupes = make_euclidean_2d(dupe_pts);
    GridCandidateSource dupe_source(dupes, 8.0);
    cands.clear();
    dupe_source.materialize(cands);
    std::set<Triple> emitted = as_set(cands);
    for (VertexId i = 0; i < 4; ++i) {
        for (VertexId j = i + 1; j < 4; ++j) {
            const GreedyCandidate c = dupe_source.grid().covering_candidate(i, j);
            EXPECT_TRUE(emitted.count({c.weight, c.u, c.v}));
        }
    }
    EXPECT_TRUE(std::is_sorted(cands.begin(), cands.end(),
                               [](const GreedyCandidate& a, const GreedyCandidate& b) {
                                   return a.weight < b.weight;
                               }));
}

struct SplitCase {
    std::string name;
    EuclideanMetric pts;
    double separation;
};

/// The suite's instances (same generators and seeds), plus a tie-heavy
/// 0.1-spaced decimal lattice and an all-near-pairs instance.
std::vector<SplitCase> split_cases() {
    std::vector<SplitCase> out;
    for (const std::uint64_t seed : {5u, 67u, 491u}) {
        Rng a(seed);
        out.push_back({"clustered-140/" + std::to_string(seed),
                       clustered_points(140, 2, 5, 80.0, 1.5, a), 9.0});
        Rng b(seed ^ 0x5a5a);
        out.push_back({"uniform-120/" + std::to_string(seed), uniform_points(120, 2, 50.0, b),
                       8.0});
        Rng c(seed ^ 0x33cc);
        out.push_back({"clustered-90/" + std::to_string(seed),
                       clustered_points(90, 2, 4, 60.0, 1.0, c), 10.0});
    }
    Rng d(11);
    out.push_back({"uniform-100", uniform_points(100, 2, 40.0, d), 8.0});
    const std::vector<std::pair<double, double>> dupes = {
        {1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}, {4.0, 5.0}};
    out.push_back({"dupes", make_euclidean_2d(dupes), 8.0});
    std::vector<std::pair<double, double>> lattice;
    for (int i = 0; i < 20; ++i) {
        for (int j = 0; j < 20; ++j) lattice.emplace_back(0.1 * i, 0.1 * j);
    }
    out.push_back({"lattice-0.1", make_euclidean_2d(lattice), 8.0});
    // A separation so wide that every pair is a near pair.
    Rng e(13);
    out.push_back({"wide-separation", uniform_points(60, 2, 30.0, e), 1000.0});
    return out;
}

TEST(GridSourceTest, WindowBudgetsSplitTheSameStream) {
    for (const SplitCase& sc : split_cases()) {
        GridCandidateSource source(sc.pts, sc.separation);
        EXPECT_THROW(GridChunkSource(source.grid(), 0), std::invalid_argument);
        std::vector<GreedyCandidate> full;
        source.materialize(full);
        const std::size_t default_budget = GridChunkSource::default_budget(sc.pts.size());
        std::size_t default_windows = 0;
        for (const std::size_t budget :
             {default_budget, std::size_t{1000}, std::size_t{64}, std::size_t{16}}) {
            const std::string label = sc.name + " budget=" + std::to_string(budget);
            GridChunkSource chunks(source.grid(), budget);
            std::vector<GreedyCandidate> streamed;
            std::vector<GreedyCandidate> chunk;
            std::size_t windows = 0;
            // An unbounded soft cap pulls exactly one window per chunk.
            while (chunks.next_chunk(std::numeric_limits<std::size_t>::max(), chunk)) {
                ++windows;
                if (chunk.size() > budget) {
                    EXPECT_EQ(chunk.front().weight, chunk.back().weight)
                        << label << ": a window over budget must be one weight";
                }
                streamed.insert(streamed.end(), chunk.begin(), chunk.end());
                chunk.clear();
            }
            ASSERT_EQ(streamed.size(), full.size()) << label;
            if (!full.empty()) {
                EXPECT_EQ(0, std::memcmp(streamed.data(), full.data(),
                                         full.size() * sizeof(GreedyCandidate)))
                    << label;
            }
            EXPECT_EQ(chunks.enumeration_passes(), 1 + windows) << label;
            // Served in small slices instead, the same stream.
            GridChunkSource sliced(source.grid(), budget);
            const std::vector<GreedyCandidate> resliced = drain(sliced, 7);
            ASSERT_EQ(resliced.size(), full.size()) << label;
            if (!full.empty()) {
                EXPECT_EQ(0, std::memcmp(resliced.data(), full.data(),
                                         full.size() * sizeof(GreedyCandidate)))
                    << label << " soft_cap=7";
            }
            if (budget == default_budget) {
                default_windows = windows;
            } else {
                EXPECT_GE(windows, default_windows) << label;
                // On every instance with more than a few windows' worth of
                // candidates, the smallest budget really splits.
                if (budget == 16 && full.size() > 1000) {
                    EXPECT_GT(windows, default_windows) << label;
                }
            }
        }
    }
}

}  // namespace
}  // namespace gsp
