// Ablations of this implementation's own design choices, so each
// engineering decision is backed by a measurement:
//   A. Farshi-Gudmundsson distance cache in the metric greedy
//      (identical output -- how much time does it actually save?);
//   B. theta-graph base cone count for approximate-greedy
//      (base quality vs final spanner quality; a practical count below the
//      provable one is safe because the greedy simulation absorbs it);
//   C. the paper-Remark alternative to Theorem 6: reroute the greedy (light,
//      possibly huge-degree) spanner through a bounded-degree spanner, and
//      compare with approximate-greedy on the degree-blowup metric.
#include <iostream>

#include "analysis/audit.hpp"
#include "api/candidate_source.hpp"
#include "api/session.hpp"
#include "core/approx_greedy.hpp"
#include "core/greedy_metric.hpp"
#include "gen/hard_instances.hpp"
#include "gen/points.hpp"
#include "spanners/net_spanner.hpp"
#include "spanners/reroute.hpp"
#include "util/random.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

/// Metric greedy through the unified API; cached = full engine, naive =
/// everything off.
gsp::Graph metric_greedy_with(const gsp::MetricSpace& m, double t, bool cached,
                              gsp::GreedyStats* stats = nullptr) {
    gsp::SpannerSession session;
    gsp::BuildOptions options;
    options.stretch = t;
    if (!cached) options.engine = gsp::EngineTuning::naive();
    gsp::MetricCandidateSource source(m);
    gsp::BuildReport report;
    gsp::Graph h = session.build(source, options, &report);
    if (stats != nullptr) {
        *stats = report.stats;
        stats->seconds = report.seconds;
    }
    return h;
}

gsp::ApproxGreedyResult approx_with(const gsp::MetricSpace& m,
                                    const gsp::ApproxParams& params) {
    gsp::SpannerSession session;
    gsp::BuildOptions options;
    options.approx = params;
    return gsp::approx_greedy_build(session, m, options);
}

}  // namespace

int main() {
    using namespace gsp;

    std::cout << "== A. FG distance cache in the exact metric greedy ==\n";
    {
        Table t({"n", "naive dijkstras", "cached dijkstras", "saved", "naive s",
                 "cached s", "speedup"});
        for (std::size_t n : {256u, 512u, 1024u}) {
            Rng rng(3 * n);
            const EuclideanMetric pts =
                uniform_points(n, 2, std::sqrt(static_cast<double>(n)) * 10.0, rng);
            GreedyStats naive, cached;
            (void)metric_greedy_with(pts, 1.5, /*cached=*/false, &naive);
            (void)metric_greedy_with(pts, 1.5, /*cached=*/true, &cached);
            t.add_row({std::to_string(n), std::to_string(naive.dijkstra_runs),
                       std::to_string(cached.dijkstra_runs),
                       fmt(100.0 * (1.0 - static_cast<double>(cached.dijkstra_runs) /
                                              static_cast<double>(naive.dijkstra_runs)),
                           1) + "%",
                       fmt(naive.seconds, 3), fmt(cached.seconds, 3),
                       fmt_ratio(naive.seconds / cached.seconds)});
        }
        t.print(std::cout);
    }

    std::cout << "\n== B. Base-spanner quality (theta cones) vs final spanner ==\n";
    {
        Rng rng(77);
        const EuclideanMetric pts = uniform_points(4096, 2, 640.0, rng);
        Table t({"cones", "base edges", "base stretch", "|H|", "lightness",
                 "final stretch", "secs"});
        for (std::size_t k : {10u, 16u, 24u, 40u}) {
            const auto r =
                approx_with(pts, ApproxParams{.epsilon = 0.5, .theta_cones_override = k});
            const double base_stretch = max_stretch_metric_sampled(pts, r.base, 32, 3);
            const double final_stretch =
                max_stretch_metric_sampled(pts, r.spanner, 32, 3);
            const double lightness = r.spanner.total_weight() / metric_mst_weight(pts);
            t.add_row({std::to_string(k), std::to_string(r.base.num_edges()),
                       fmt(base_stretch, 3), std::to_string(r.spanner.num_edges()),
                       fmt(lightness, 3), fmt(final_stretch, 3),
                       fmt(r.seconds_total, 2)});
        }
        t.print(std::cout);
        std::cout << "(more cones: better base stretch, more candidate edges, similar "
                     "final spanner --\nthe greedy simulation absorbs base sloppiness, "
                     "which is why the override is safe)\n";
    }

    std::cout << "\n== C. Theorem 6 vs the paper-Remark alternative (degree-blowup metric) ==\n";
    {
        const std::size_t n = 128;
        const MatrixMetric star = geometric_star_metric(n, 1.7);
        Table t({"construction", "edges", "max deg", "lightness", "stretch", "secs"});
        const double mst = metric_mst_weight(star);
        {
            Timer timer;
            const Graph h = greedy_spanner_metric(star, 1.5);
            const double s = timer.seconds();
            t.add_row({"greedy (light, hub degree n-1)", std::to_string(h.num_edges()),
                       std::to_string(h.max_degree()), fmt(h.total_weight() / mst, 3),
                       fmt(max_stretch_metric(star, h), 3), fmt(s, 3)});
        }
        {
            Timer timer;
            const Graph h1 = greedy_spanner_metric(star, 1.22);  // sqrt(1.5) budget
            const Graph h2 =
                net_spanner(star, NetSpannerOptions{.epsilon = 0.22, .degree_cap = 12});
            const Graph h = reroute_through(h1, h2);
            const double s = timer.seconds();
            t.add_row({"Remark: greedy rerouted via bounded-degree",
                       std::to_string(h.num_edges()), std::to_string(h.max_degree()),
                       fmt(h.total_weight() / mst, 3),
                       fmt(max_stretch_metric(star, h), 3), fmt(s, 3)});
        }
        {
            Timer timer;
            const auto r =
                approx_with(star, ApproxParams{.epsilon = 0.5, .net_degree_cap = 16});
            const double s = timer.seconds();
            t.add_row({"Theorem 6: approximate-greedy",
                       std::to_string(r.spanner.num_edges()),
                       std::to_string(r.spanner.max_degree()),
                       fmt(r.spanner.total_weight() / mst, 3),
                       fmt(max_stretch_metric(star, r.spanner), 3), fmt(s, 3)});
        }
        t.print(std::cout);
        std::cout << "(both achieve bounded degree + light weight; the Remark route "
                     "needs the exact greedy\nfirst -- quadratic -- which is exactly the "
                     "drawback the paper's Remark calls out)\n";
    }
    return 0;
}
