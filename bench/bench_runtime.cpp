// Runtime scaling experiment (paper §1.2): the exact greedy costs
// ~O(n^2 log n) in metric spaces even with the cached implementation
// [BCF+10], while Algorithm Approximate-Greedy runs in O(n log n) [GLN02].
//
// We time three implementations on the same instances and fit exponents:
//   naive greedy        -- one limited Dijkstra per pair;
//   FG-cached greedy    -- the [BCF+10]-style practical variant;
//   approximate-greedy  -- Theorem 6's algorithm.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "api/candidate_source.hpp"
#include "api/session.hpp"
#include "core/approx_greedy.hpp"
#include "gen/points.hpp"
#include "util/fit.hpp"
#include "util/random.hpp"
#include "util/table.hpp"

int main() {
    using namespace gsp;
    const double eps = 0.5;
    std::cout << "== Runtime scaling: exact greedy vs approximate-greedy (eps = " << eps
              << ") ==\n\n";

    // Each implementation sweeps as far as its asymptotics allow in a few
    // seconds of wall clock: the naive loop is already ~n^3-ish, the cached
    // one ~n^2 log n, the approximate one ~n log n.
    Table table({"n", "naive greedy (s)", "FG-cached greedy (s)", "approx-greedy (s)",
                 "|H| cached", "|H| approx"});
    std::vector<double> n_naive, naive_s, n_cached, cached_s, n_approx, approx_s;
    for (std::size_t n : {256u, 512u, 1024u, 2048u, 4096u}) {
        Rng rng(3 * n);
        const double extent = std::sqrt(static_cast<double>(n)) * 10.0;
        const EuclideanMetric pts = uniform_points(n, 2, extent, rng);

        SpannerSession session;  // one session per instance: all three share arenas
        MetricCandidateSource pair_source(pts);

        std::string naive_cell = "-";
        if (n <= 512) {
            BuildOptions naive_options;
            naive_options.stretch = 1.0 + eps;
            naive_options.engine = EngineTuning::naive();
            BuildReport naive_report;
            (void)session.build(pair_source, naive_options, &naive_report);
            n_naive.push_back(static_cast<double>(n));
            naive_s.push_back(naive_report.seconds);
            naive_cell = fmt(naive_report.seconds, 3);
        }

        std::string cached_cell = "-";
        std::string cached_size = "-";
        if (n <= 2048) {
            BuildOptions cached_options;
            cached_options.stretch = 1.0 + eps;
            BuildReport cached_report;
            const Graph cached = session.build(pair_source, cached_options, &cached_report);
            n_cached.push_back(static_cast<double>(n));
            cached_s.push_back(cached_report.seconds);
            cached_cell = fmt(cached_report.seconds, 3);
            cached_size = std::to_string(cached.num_edges());
        }

        BuildOptions approx_options;
        approx_options.approx.epsilon = eps;
        approx_options.approx.theta_cones_override = 16;
        const ApproxGreedyResult approx =
            approx_greedy_build(session, pts, approx_options);
        n_approx.push_back(static_cast<double>(n));
        approx_s.push_back(approx.seconds_total);

        table.add_row({std::to_string(n), naive_cell, cached_cell,
                       fmt(approx.seconds_total, 3), cached_size,
                       std::to_string(approx.spanner.num_edges())});
    }
    table.print(std::cout);

    std::cout << "\nfitted exponents: naive ~ n^"
              << fmt(fit_power_law(n_naive, naive_s).exponent, 2) << ", FG-cached ~ n^"
              << fmt(fit_power_law(n_cached, cached_s).exponent, 2) << ", approx ~ n^"
              << fmt(fit_power_law(n_approx, approx_s).exponent, 2)
              << "\npaper expectation: the naive pair loop is super-quadratic; the "
                 "FG-cached variant is the\n~O(n^2 log n) state of the art the paper cites "
                 "as [BCF+10]; approximate-greedy is\nnear-linear (O(n log n), "
                 "[GLN02]/Theorem 6). Cached |H| equals the naive |H| by construction\n"
                 "(identical algorithm; equality is asserted in the test suite).\n";
    return 0;
}
