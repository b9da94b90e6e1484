// Theorem 6 experiment: Algorithm Approximate-Greedy computes a
// (1+eps)-spanner with constant lightness and degree in O(n log n) time.
//
// Columns to check against the paper:
//   * runtime: fitted exponent of seconds vs n ~ 1 (near-linear; the exact
//     greedy's is ~2, see bench_runtime);
//   * lightness and degree: flat in n;
//   * stretch: measured (sampled) <= 1 + eps.
// The 2D base spanner is a theta graph with a practical cone count (16),
// below the count whose worst-case theta stretch provably meets the base
// budget, so the stretch column certifies the measured behaviour instead.
#include <cmath>
#include <iostream>
#include <vector>

#include "analysis/audit.hpp"
#include "api/candidate_source.hpp"
#include "api/session.hpp"
#include "core/approx_greedy.hpp"
#include "gen/points.hpp"
#include "graph/mst.hpp"
#include "metric/metric_space.hpp"
#include "util/fit.hpp"
#include "util/random.hpp"
#include "util/table.hpp"

int main() {
    using namespace gsp;
    const double eps = 0.5;
    std::cout << "== Theorem 6: approximate-greedy in O(n log n) time ==\n"
              << "uniform 2D points, eps = " << eps
              << ", theta-graph base (16 cones)\n\n";

    Table table({"n", "base |E'|", "|H|", "|H|/n", "lightness", "max deg",
                 "stretch(sampled)", "base s", "total s"});
    std::vector<double> ns, secs;
    for (std::size_t n : {1024u, 2048u, 4096u, 8192u, 16384u, 32768u, 65536u}) {
        Rng rng(5 * n + 1);
        const double extent = std::sqrt(static_cast<double>(n)) * 10.0;
        const EuclideanMetric pts = uniform_points(n, 2, extent, rng);
        SpannerSession session;
        BuildOptions options;
        options.approx.epsilon = eps;
        options.approx.theta_cones_override = 16;
        const ApproxGreedyResult r = approx_greedy_build(session, pts, options);
        const double stretch = max_stretch_metric_sampled(pts, r.spanner, 48, 99);
        const double lightness = r.spanner.total_weight() / metric_mst_weight(pts);
        ns.push_back(static_cast<double>(n));
        secs.push_back(r.seconds_total);
        table.add_row(
            {std::to_string(n), std::to_string(r.base.num_edges()),
             std::to_string(r.spanner.num_edges()),
             fmt(static_cast<double>(r.spanner.num_edges()) / static_cast<double>(n), 3),
             fmt(lightness, 3), std::to_string(r.spanner.max_degree()), fmt(stretch, 3),
             fmt(r.seconds_base, 2), fmt(r.seconds_total, 2)});
    }
    table.print(std::cout);
    const PowerFit fit = fit_power_law(ns, secs);
    std::cout << "\nfitted runtime ~ n^" << fmt(fit.exponent, 2) << " (R^2 "
              << fmt(fit.r_squared, 3)
              << "); paper: O(n log n), i.e. exponent ~1 vs the exact greedy's ~2 "
                 "(bench_runtime).\nLightness, degree and |H|/n must be flat; stretch "
                 "<= 1 + eps = "
              << fmt(1.0 + eps) << ".\n";
    return 0;
}
