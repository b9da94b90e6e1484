// Linear-space probe: can the chunked pipeline build a t = 2 greedy
// spanner over the grid-pruned candidate stream inside a fixed *linear*
// RSS budget? Candidate counts are ~80n at s = 5 (near pairs enumerated
// exactly below the cutoff, one representative pair per ring cell pair
// above it), so a materialized run would need ~80n * 16 B; the streamed
// run's candidate buffer peaks at one window instead, leaving room only
// for the O(n) structures (points, grid levels, the spanner, workspaces).
//
// One SpannerSession builds greedy-grid (t = 2, s = 5, extent sqrt(n)*10)
// on a uniform and a clustered 2D instance, prints one row per instance,
// and exits 1 naming every check that failed:
//   ./bench_linear_space [n]    # n defaults to 10^5
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/grid_source.hpp"
#include "api/session.hpp"
#include "gen/points.hpp"
#include "util/random.hpp"
#include "util/rss.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace gsp;

/// The linear RSS budget of the memory probe: a flat base (binary, heap
/// warmup, earlier probes' small instances) plus a per-point allowance
/// covering coordinates (16 B), the grid hierarchy (~30 B across levels),
/// the spanner adjacency lists (~1.44 edges/point), Dijkstra workspaces,
/// the incremental CSR mirror, and allocator slack. Calibrated against
/// measured high-waters of +62,680 KiB at n = 10^5 and +185,380 KiB at
/// n = 3x10^5 (uniform + clustered, single-core Release) --
/// a 2.96x delta for 3x the points, confirming the linear model -- so
/// 896 B/point gives ~1.8-2.3x headroom at those shapes and ~1.45x at
/// 10^6 under straight extrapolation (~630 MiB) while staying far below what any
/// materializing run needs -- the candidate array alone is 16 B x 7.9M
/// = 121 MiB at 10^5 (vs a 149 MiB total budget) and ~2.5 GiB at 10^6
/// (vs 918 MiB). The probe checks the high-water delta against it, so a
/// change that starts materializing candidates fails CI.
constexpr std::size_t kMemProbeBudgetBaseKb = 65536;       // 64 MiB
constexpr std::size_t kMemProbeBudgetBytesPerPoint = 896;  // ~0.88 KiB

/// Time gates on the uniform build. Below 10^6 points: 3x under the
/// 49 us/candidate the per-candidate (pre-cell-batching) path measured at
/// n = 10^5. At 10^6 points and up: the whole build inside 15 minutes.
constexpr double kMaxUsPerCandidate = 49.0 / 3.0;
constexpr std::size_t kFullShapeN = 1'000'000;
constexpr double kFullShapeMaxSeconds = 900.0;

constexpr double kStretch = 2.0;
constexpr double kSeparation = 5.0;

double us_per_candidate(const BuildReport& report) {
    return report.candidates > 0
               ? report.seconds * 1e6 / static_cast<double>(report.candidates)
               : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
    std::size_t n = 100'000;
    if (argc > 1) {
        char* end = nullptr;
        n = std::strtoull(argv[1], &end, 10);
        // Vertex ids are 32-bit; a negative argument wraps past the cap.
        if (*end != '\0' || n < 2 || n > std::numeric_limits<VertexId>::max()) {
            std::cerr << "usage: " << argv[0] << " [n: 2 .. 2^32-1]\n";
            return 2;
        }
    }
    const double extent = std::sqrt(static_cast<double>(n)) * 10.0;
    const std::size_t budget_kb =
        kMemProbeBudgetBaseKb + n * kMemProbeBudgetBytesPerPoint / 1024;
    const std::size_t rss_before_kb = process_peak_rss_kb();

    std::vector<std::string> failures;
    const auto check = [&](bool ok, const std::string& what) {
        if (!ok) failures.push_back(what);
    };

    std::cout << "== Linear-space probe: greedy-grid over the chunked stream, n = " << n
              << ", t = " << kStretch << ", s = " << kSeparation << " ==" << std::endl;
    SpannerSession session;  // one session: both builds share its buffers
    BuildOptions options;
    options.stretch = kStretch;
    Table table({"instance", "gen (s)", "build (s)", "|H|", "candidates", "us/candidate",
                 "cell balls", "buffer peak (B)", "rss delta (KiB)"});
    const auto run = [&](const std::string& kind, double gen_seconds,
                         const EuclideanMetric& pts) {
        GridCandidateSource source(pts, kSeparation);
        BuildReport report;
        (void)session.build(source, options, &report);
        const std::size_t rss_delta_kb = process_peak_rss_kb() - rss_before_kb;
        const std::size_t buffer_peak = report.stats.candidate_buffer_peak_bytes;
        table.add_row({kind, fmt(gen_seconds, 2), fmt(report.seconds, 2),
                       std::to_string(report.edges), std::to_string(report.candidates),
                       fmt(us_per_candidate(report), 2), std::to_string(report.stats.cell_balls),
                       std::to_string(buffer_peak), std::to_string(rss_delta_kb)});

        check(rss_delta_kb <= budget_kb, kind + ": rss budget (+" +
                                             std::to_string(rss_delta_kb) + " KiB)");
        check(report.candidates > 0, kind + ": candidates (none streamed)");
        check(buffer_peak < report.candidates * sizeof(GreedyCandidate),
              kind + ": candidate buffer (peak " + std::to_string(buffer_peak) +
                  " B holds the whole list)");
        check(report.edges + 1 >= n,
              kind + ": spanning (" + std::to_string(report.edges) + " edges)");
        return report;
    };

    BuildReport uniform;
    {
        Rng rng(2026);
        const Timer timer;
        const EuclideanMetric pts = uniform_points(n, 2, extent, rng);
        uniform = run("uniform", timer.seconds(), pts);
    }
    {
        // Streamed generation: cluster centers resident, one point at a
        // time into the flat coordinate array. n/100 clusters of ~100
        // points with spread extent/40 keep the local density ~2x uniform.
        Rng rng(2027);
        const Timer timer;
        std::vector<double> coords;
        coords.reserve(n * 2);
        stream_clustered_points(n, 2, std::max<std::size_t>(n / 100, 1), extent, extent / 40.0,
                                rng, [&](std::span<const double> p) {
                                    coords.insert(coords.end(), p.begin(), p.end());
                                });
        const EuclideanMetric pts(2, std::move(coords));
        (void)run("clustered", timer.seconds(), pts);
    }

    check(uniform.stats.cell_balls > 0, "uniform: cell balls (none grown)");
    if (n < kFullShapeN) {
        const double us = us_per_candidate(uniform);
        check(us <= kMaxUsPerCandidate, "uniform: time per candidate (" + fmt(us, 2) +
                                            " us > " + fmt(kMaxUsPerCandidate, 2) + ")");
    } else {
        check(uniform.seconds <= kFullShapeMaxSeconds,
              "uniform: build time (" + fmt(uniform.seconds, 0) + " s)");
    }

    table.print(std::cout);
    std::cout << "rss budget " << budget_kb << " KiB\n";
    for (const std::string& f : failures) std::cerr << "FAILED " << f << "\n";
    if (!failures.empty()) return 1;
    std::cout << "all checks passed\n";
    return 0;
}
