// The SIMD backend's bit-exactness contract, tested at both levels.
//
// Lane level: every kernel in every table the machine can run (sse4.2 /
// avx2 when the CPU has them, scalar always) must return bitwise the
// scalar reference's outputs -- on randomized inputs and on the
// adversarial ones vector code gets wrong first: denormals, exact ties
// with the comparison bound, +/-0.0, infinities, and block sizes that
// exercise every tail length. The radix sorter must reproduce
// std::stable_sort byte for byte (memcmp), including tie-heavy and
// signed-zero weights.
//
// Pipeline level: a build with EngineTuning::SimdBackend::kForced must
// return the same edge set AND the same decision counters -- the full
// GreedyStats serialization -- as kScalar, across the sources
// {graph, metric, wspd, grid} and thread counts {1, 2, 4, hardware}.
// That is the property the whole backend rests on: set_kernels only ever
// trades nanoseconds.
#include "simd/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "api/build_options.hpp"
#include "api/build_report.hpp"
#include "api/candidate_source.hpp"
#include "api/grid_source.hpp"
#include "api/session.hpp"
#include "gen/graphs.hpp"
#include "gen/points.hpp"
#include "graph/graph.hpp"
#include "metric/euclidean.hpp"
#include "simd/radix_sort.hpp"
#include "util/json.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace gsp {
namespace {

/// Every kernel table this machine can actually execute (scalar always;
/// the x86 tables only up to what cpuid reports).
std::vector<simd::Backend> runnable_backends() {
    std::vector<simd::Backend> out{simd::Backend::kScalar};
    const auto have = static_cast<int>(simd::detect());
    if (have >= static_cast<int>(simd::Backend::kSSE42)) {
        out.push_back(simd::Backend::kSSE42);
    }
    if (have >= static_cast<int>(simd::Backend::kAVX2)) {
        out.push_back(simd::Backend::kAVX2);
    }
    return out;
}

/// Bitwise double equality (EXPECT_EQ would conflate +0.0 and -0.0).
::testing::AssertionResult bits_equal(double a, double b) {
    if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
        return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << a << " != " << b << " (bits " << std::hex
           << std::bit_cast<std::uint64_t>(a) << " vs "
           << std::bit_cast<std::uint64_t>(b) << ")";
}

constexpr double kDenormal = std::numeric_limits<double>::denorm_min();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(SimdKernelTest, SweepLowerBoundMatchesScalarEverywhere) {
    const simd::Kernels& ref = simd::scalar_kernels();
    Rng rng(11);
    // Sorted keys with heavy ties, denormal gaps, and an infinite tail --
    // then probe every cursor position against bounds that sit exactly on,
    // just below, and just above the tie plateaus.
    std::vector<double> keys;
    double acc = 0.0;
    for (int i = 0; i < 97; ++i) {
        const int kind = static_cast<int>(rng.index(4));
        if (kind == 0) acc += 0.0;  // tie with the previous key
        if (kind == 1) acc += kDenormal;
        if (kind == 2) acc += rng.uniform01();
        if (kind == 3) acc += 1e-9;
        keys.push_back(acc);
    }
    keys.push_back(kInf);
    keys.push_back(kInf);

    std::vector<double> probes;
    for (const double k : keys) {
        probes.push_back(k);
        probes.push_back(std::nextafter(k, -kInf));
        probes.push_back(std::nextafter(k, kInf));
    }
    probes.push_back(-1.0);
    probes.push_back(kInf);

    for (const simd::Backend b : runnable_backends()) {
        const simd::Kernels& k = simd::kernels_for(b);
        for (std::size_t begin = 0; begin <= keys.size(); begin += 7) {
            for (const double d : probes) {
                if (std::isinf(d)) continue;  // contract: finite bound
                EXPECT_EQ(k.sweep_lower_bound(keys.data(), begin, keys.size(), d),
                          ref.sweep_lower_bound(keys.data(), begin, keys.size(), d))
                    << simd::backend_name(b) << " begin=" << begin << " d=" << d;
            }
        }
    }
}

TEST(SimdKernelTest, Distances2dBitwiseScalar) {
    const simd::Kernels& ref = simd::scalar_kernels();
    Rng rng(23);
    // Coordinates spanning coincident points, denormal offsets, huge
    // magnitudes, and negative zeros; every n in [0, 33] exercises each
    // vector tail.
    for (std::size_t n = 0; n <= 33; ++n) {
        std::vector<double> ax(n), ay(n), bx(n), by(n), got(n, -1.0), want(n, -1.0);
        for (std::size_t i = 0; i < n; ++i) {
            switch (i % 5) {
                case 0:
                    ax[i] = bx[i] = rng.uniform01() * 1e3;  // coincident
                    ay[i] = by[i] = -0.0;
                    break;
                case 1:
                    ax[i] = 0.0;
                    ay[i] = 0.0;
                    bx[i] = kDenormal;
                    by[i] = -kDenormal;
                    break;
                case 2:
                    ax[i] = rng.uniform01() * 1e155;  // squares near overflow
                    ay[i] = -rng.uniform01() * 1e155;
                    bx[i] = 0.0;
                    by[i] = 0.0;
                    break;
                default:
                    ax[i] = (rng.uniform01() - 0.5) * 2e3;
                    ay[i] = (rng.uniform01() - 0.5) * 2e3;
                    bx[i] = (rng.uniform01() - 0.5) * 2e3;
                    by[i] = (rng.uniform01() - 0.5) * 2e3;
            }
        }
        ref.distances2d(ax.data(), ay.data(), bx.data(), by.data(), n, want.data());
        for (const simd::Backend b : runnable_backends()) {
            std::fill(got.begin(), got.end(), -1.0);
            simd::kernels_for(b).distances2d(ax.data(), ay.data(), bx.data(), by.data(),
                                             n, got.data());
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_TRUE(bits_equal(got[i], want[i]))
                    << simd::backend_name(b) << " n=" << n << " lane " << i;
            }
        }
    }
}

TEST(SimdKernelTest, RelaxLanesBitwiseScalar) {
    const simd::Kernels& ref = simd::scalar_kernels();
    Rng rng(41);
    for (std::size_t n = 0; n <= 32; ++n) {
        for (int trial = 0; trial < 20; ++trial) {
            std::vector<HalfEdge> edges(n);
            double limit = rng.uniform01() * 10.0;
            const double d = rng.uniform01() * 5.0;
            for (std::size_t i = 0; i < n; ++i) {
                edges[i].to = static_cast<VertexId>(rng.index(1000));
                edges[i].edge = static_cast<EdgeId>(i);
                switch (i % 6) {
                    case 0:
                        // Exactly on the limit: d + w == limit must pass
                        // (<=) in every lane.
                        edges[i].weight = limit - d;
                        break;
                    case 1:
                        edges[i].weight = kDenormal;
                        break;
                    case 2:
                        edges[i].weight = kInf;
                        break;
                    default:
                        edges[i].weight = rng.uniform01() * 12.0;
                }
            }
            std::vector<double> want(n, -1.0), got(n, -1.0);
            const std::uint32_t want_mask =
                ref.relax_lanes(edges.data(), n, d, limit, want.data());
            for (const simd::Backend b : runnable_backends()) {
                std::fill(got.begin(), got.end(), -1.0);
                const std::uint32_t mask = simd::kernels_for(b).relax_lanes(
                    edges.data(), n, d, limit, got.data());
                EXPECT_EQ(mask, want_mask)
                    << simd::backend_name(b) << " n=" << n << " trial=" << trial;
                for (std::size_t i = 0; i < n; ++i) {
                    if ((want_mask >> i) & 1u) {
                        EXPECT_TRUE(bits_equal(got[i], want[i]))
                            << simd::backend_name(b) << " lane " << i;
                    }
                }
            }
        }
    }
}

TEST(SimdKernelTest, RadixSortByteIdenticalToStableSort) {
    Rng rng(53);
    simd::CandidateRadixSorter sorter;
    const auto tie_less = [](const GreedyCandidate& a, const GreedyCandidate& b) {
        return std::tie(a.weight, a.u, a.v) < std::tie(b.weight, b.u, b.v);
    };
    const auto expect_stable_sorted = [&](std::vector<GreedyCandidate> v,
                                          const std::string& label) {
        std::vector<GreedyCandidate> want = v;
        std::stable_sort(want.begin(), want.end(), tie_less);
        sorter.sort(v);
        ASSERT_EQ(v.size(), want.size()) << label;
        // memcmp on a null pointer is undefined even for zero bytes, and an
        // empty vector's data() may be null: skip the compare when empty.
        if (!v.empty()) {
            EXPECT_EQ(0, std::memcmp(v.data(), want.data(), v.size() * sizeof(GreedyCandidate)))
                << label;
        }
    };
    // Tie-heavy adversarial inputs, at sizes around the insertion-sort
    // cut-off, around the in-cache range size, and past 2^17.
    const std::size_t cut = simd::CandidateRadixSorter::kInsertionMax;
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, cut - 1, cut, cut + 1,
          std::size_t{777}, std::size_t{4096}, std::size_t{16384}, std::size_t{16385},
          (std::size_t{1} << 17) + 3}) {
        std::vector<GreedyCandidate> v(n);
        for (std::size_t i = 0; i < n; ++i) {
            v[i].u = static_cast<VertexId>(rng.index(200000));
            v[i].v = static_cast<VertexId>(rng.index(0x7fffffff));
            switch (i % 7) {
                case 0:
                    v[i].weight = 1.5;  // heavy tie plateau
                    break;
                case 1:
                    v[i].weight = 0.0;
                    break;
                case 2:
                    v[i].weight = -0.0;  // must interleave with +0.0 stably
                    break;
                case 3:
                    v[i].weight = kDenormal * static_cast<double>(1 + i % 3);
                    break;
                case 4:
                    v[i].weight = kInf;
                    break;
                default:
                    v[i].weight = rng.uniform01() * 1e6;
            }
        }
        expect_stable_sorted(v, "adversarial n=" + std::to_string(n));
    }
    // Distinct weights of one octave (a grid window), past 2^17.
    {
        std::vector<GreedyCandidate> v((std::size_t{1} << 17) + 11);
        for (GreedyCandidate& c : v) {
            c.u = static_cast<VertexId>(rng.index(100000));
            c.v = static_cast<VertexId>(rng.index(100000));
            c.weight = 3.0 + 3.0 * rng.uniform01();
        }
        expect_stable_sorted(v, "one octave");
    }
    // Input already in (u, v) order, with weights from a small tie set
    // (including both zeros): every equal-weight run arrives in order.
    for (const std::size_t n : {cut + 1, std::size_t{5000}, std::size_t{40000}}) {
        std::vector<GreedyCandidate> v(n);
        const double weights[] = {2.5, 0.0, 1.25, -0.0, 2.5, 7.0};
        for (std::size_t i = 0; i < n; ++i) {
            v[i].u = static_cast<VertexId>(i / 64);
            v[i].v = static_cast<VertexId>(i % 64 + i / 64);
            v[i].weight = weights[rng.index(6)];
        }
        expect_stable_sorted(v, "(u, v)-ordered n=" + std::to_string(n));
    }
    // Fully duplicate tie plateaus: long equal-weight runs with repeated
    // (u, v) keys in scrambled order.
    {
        std::vector<GreedyCandidate> v(30000);
        for (GreedyCandidate& c : v) {
            c.u = static_cast<VertexId>(rng.index(40));
            c.v = static_cast<VertexId>(rng.index(40));
            c.weight = rng.index(3) == 0 ? -0.0 : 0.0;
        }
        expect_stable_sorted(v, "zero plateau");
    }
    // A pre-sorted constant input (the skip-everything path) must survive.
    expect_stable_sorted(std::vector<GreedyCandidate>(100, GreedyCandidate{3, 9, 2.25}), "flat");
}

/// The full decision record of one build: every GreedyStats counter,
/// serialized through the one shared serializer.
std::string stats_fingerprint(const GreedyStats& stats) {
    JsonWriter w;
    w.begin_object();
    append_greedy_stats(w, stats);
    w.end_object();
    return w.str();
}

void check_forced_equals_scalar(
    const std::function<std::unique_ptr<CandidateSource>()>& make_source,
    double stretch, const std::string& what) {
    BuildOptions scalar_opts;
    scalar_opts.stretch = stretch;
    scalar_opts.engine.simd_backend = EngineTuning::SimdBackend::kScalar;

    SpannerSession scalar_session;
    BuildReport scalar_report;
    const auto scalar_source = make_source();
    const Graph reference =
        scalar_session.build(*scalar_source, scalar_opts, &scalar_report);
    EXPECT_EQ(scalar_report.simd_backend, "scalar") << what;

    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                      std::size_t{0}}) {
        const std::string label = what + " threads=" + std::to_string(threads);
        BuildOptions forced = scalar_opts;
        forced.engine.num_threads = threads;
        forced.engine.simd_backend = EngineTuning::SimdBackend::kForced;
        const auto source = make_source();
        SpannerSession session;
        BuildReport report;
        const Graph h = session.build(*source, forced, &report);
        EXPECT_TRUE(same_edge_set(h, reference)) << label;
        EXPECT_EQ(report.edges, scalar_report.edges) << label;
        EXPECT_EQ(report.weight, scalar_report.weight) << label;
        EXPECT_EQ(report.simd_backend,
                  simd::backend_name(simd::detect()))
            << label;
        if (ThreadPool::resolve_workers(threads) == 1) {
            // Serial runs have fully deterministic counters; parallel
            // decision counters are covered by the edge set + the
            // schedule-free subset below. (threads = 0 is serial only on
            // a one-core host.)
            EXPECT_EQ(stats_fingerprint(report.stats),
                      stats_fingerprint(scalar_report.stats))
                << label;
        } else {
            EXPECT_EQ(report.stats.edges_examined, scalar_report.stats.edges_examined)
                << label;
            EXPECT_EQ(report.stats.edges_added, scalar_report.stats.edges_added)
                << label;
            EXPECT_EQ(report.stats.candidates_streamed,
                      scalar_report.stats.candidates_streamed)
                << label;
        }
    }
}

class SimdBackendEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimdBackendEquivalenceTest, GraphEdges) {
    Rng rng(GetParam());
    const Graph g = erdos_renyi(150, 0.12, {.lo = 0.5, .hi = 3.0}, rng);
    check_forced_equals_scalar([&] { return std::make_unique<GraphCandidateSource>(g); },
                               1.8, "graph");
}

TEST_P(SimdBackendEquivalenceTest, MetricPairs) {
    Rng rng(GetParam() ^ 0xbeef);
    const EuclideanMetric pts = uniform_points(70, 2, 70.0, rng);
    check_forced_equals_scalar(
        [&] { return std::make_unique<MetricCandidateSource>(pts); }, 1.5, "metric");
}

TEST_P(SimdBackendEquivalenceTest, WspdPairs) {
    Rng rng(GetParam() ^ 0x2468);
    const EuclideanMetric pts = uniform_points(110, 2, 90.0, rng);
    check_forced_equals_scalar(
        [&] { return std::make_unique<WspdCandidateSource>(pts, 9.0); }, 1.5, "wspd");
}

TEST_P(SimdBackendEquivalenceTest, GridStream) {
    Rng rng(GetParam() ^ 0x1357);
    const EuclideanMetric pts = uniform_points(160, 2, 120.0, rng);
    check_forced_equals_scalar(
        [&] { return std::make_unique<GridCandidateSource>(pts, 9.0); }, 1.5, "grid");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimdBackendEquivalenceTest,
                         ::testing::Values(7u, 521u, 4242u));

TEST(SimdBackendEquivalenceTest, AutoResolvesToDetectedBackend) {
    // kAuto is the default: the report must record the dispatch-resolved
    // table (never the knob), and on x86-64 hardware with vector support
    // it must not claim "scalar".
    Rng rng(99);
    const EuclideanMetric pts = uniform_points(60, 2, 60.0, rng);
    MetricCandidateSource source(pts);
    SpannerSession session;
    BuildOptions options;
    options.stretch = 1.5;
    BuildReport report;
    session.build(source, options, &report);
    EXPECT_EQ(report.simd_backend, simd::backend_name(simd::detect()));
}

}  // namespace
}  // namespace gsp
