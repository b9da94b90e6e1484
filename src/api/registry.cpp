#include "api/registry.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/candidate_source.hpp"
#include "api/grid_source.hpp"
#include "metric/euclidean.hpp"
#include "spanners/baswana_sen.hpp"
#include "spanners/net_spanner.hpp"
#include "spanners/theta_graph.hpp"
#include "spanners/wspd_spanner.hpp"
#include "spanners/yao_graph.hpp"
#include "util/timer.hpp"

namespace gsp {

namespace {

const Graph& require_graph(const BuildInput& input, std::string_view name) {
    if (input.graph == nullptr) {
        throw std::invalid_argument(std::string(name) + ": requires a graph input");
    }
    return *input.graph;
}

const MetricSpace& require_metric(const BuildInput& input, std::string_view name) {
    if (input.metric == nullptr) {
        throw std::invalid_argument(std::string(name) + ": requires a metric input");
    }
    return *input.metric;
}

const EuclideanMetric& require_euclidean(const BuildInput& input, std::string_view name,
                                         bool require_2d) {
    const auto* e = dynamic_cast<const EuclideanMetric*>(&require_metric(input, name));
    if (e == nullptr) {
        throw std::invalid_argument(std::string(name) + ": requires a Euclidean metric");
    }
    if (require_2d && e->dim() != 2) {
        throw std::invalid_argument(std::string(name) + ": requires a 2D point set");
    }
    return *e;
}

/// Coincident points have no spanner (a zero-length pair is no edge), and
/// the constructions would otherwise fail on them deep inside, each with
/// its own message. Rejected before any work, naming the two lowest indices
/// of the lexicographically first repeated point; O(n log n).
void require_distinct_points(const EuclideanMetric& m) {
    const auto less = [&m](VertexId a, VertexId b) {
        const std::span<const double> pa = m.point(a);
        const std::span<const double> pb = m.point(b);
        return std::lexicographical_compare(pa.begin(), pa.end(), pb.begin(), pb.end());
    };
    std::vector<VertexId> order(m.size());
    std::iota(order.begin(), order.end(), VertexId{0});
    std::stable_sort(order.begin(), order.end(), less);  // equal points keep index order
    for (std::size_t i = 1; i < order.size(); ++i) {
        if (!less(order[i - 1], order[i])) {
            throw std::invalid_argument("AlgorithmRegistry: points " +
                                        std::to_string(order[i - 1]) + " and " +
                                        std::to_string(order[i]) + " coincide");
        }
    }
}

/// Shared tail of the non-engine baselines: fill the report the same way
/// a session build would (minus engine stats, which stay zero).
Graph finish_baseline(Graph h, double seconds, std::string_view name,
                      double stretch_target, BuildReport* report) {
    if (report != nullptr) {
        report->algorithm = std::string(name);
        report->source = "construction";
        report->vertices = h.num_vertices();
        report->stretch_target = stretch_target;
        fill_audit_fields(*report, h);
        report->seconds = seconds;
    }
    return h;
}

}  // namespace

std::string_view to_string(InputKind kind) {
    switch (kind) {
        case InputKind::kGraph: return "graph";
        case InputKind::kMetric: return "metric";
        case InputKind::kEuclidean: return "euclidean";
        case InputKind::kEuclidean2D: return "euclidean-2d";
    }
    return "?";
}

AlgorithmRegistry::AlgorithmRegistry() {
    const auto add = [this](AlgorithmInfo info, BuildFn fn) {
        entries_.push_back(Entry{info, std::move(fn)});
    };

    add({"greedy", InputKind::kGraph, true, false,
         "exact greedy t-spanner of a weighted graph (Algorithm 1)"},
        [](SpannerSession& session, const BuildInput& input, const BuildOptions& options,
           BuildReport* report) {
            GraphCandidateSource source(require_graph(input, "greedy"));
            return session.build(source, options, report);
        });

    add({"greedy-metric", InputKind::kMetric, true, false,
         "exact greedy t-spanner over all pairs of a metric space"},
        [](SpannerSession& session, const BuildInput& input, const BuildOptions& options,
           BuildReport* report) {
            MetricCandidateSource source(require_metric(input, "greedy-metric"));
            return session.build(source, options, report);
        });

    add({"greedy-approx", InputKind::kMetric, true, false,
         "Algorithm Approximate-Greedy: greedy simulation over a base spanner (paper S5)"},
        [](SpannerSession& session, const BuildInput& input, const BuildOptions& options,
           BuildReport* report) {
            auto result = approx_greedy_build(
                session, require_metric(input, "greedy-approx"), options, report);
            return std::move(result.spanner);
        });

    add({"greedy-wspd", InputKind::kEuclidean, true, false,
         "greedy over WSPD representative pairs (linear-space candidate stream)"},
        [](SpannerSession& session, const BuildInput& input, const BuildOptions& options,
           BuildReport* report) {
            WspdCandidateSource source(require_euclidean(input, "greedy-wspd", false),
                                       options.geometric.wspd_separation,
                                       options.geometric.epsilon);
            return session.build(source, options, report);
        });

    add({"greedy-grid", InputKind::kEuclidean2D, true, false,
         "greedy over grid-pruned candidates (streaming window sweep, linear space)"},
        [](SpannerSession& session, const BuildInput& input, const BuildOptions& options,
           BuildReport* report) {
            GridCandidateSource source(require_euclidean(input, "greedy-grid", true),
                                       options.geometric.wspd_separation,
                                       options.geometric.epsilon);
            return session.build(source, options, report);
        });

    add({"theta", InputKind::kEuclidean2D, false, false,
         "theta-graph cone spanner (sweep construction)"},
        [](SpannerSession&, const BuildInput& input, const BuildOptions& options,
           BuildReport* report) {
            const auto& m = require_euclidean(input, "theta", true);
            const Timer timer;
            Graph h = theta_graph_sweep(m, options.geometric.cones);
            return finish_baseline(std::move(h), timer.seconds(), "theta",
                                   theta_graph_stretch_bound(options.geometric.cones),
                                   report);
        });

    add({"yao", InputKind::kEuclidean2D, false, false, "Yao-graph cone spanner"},
        [](SpannerSession&, const BuildInput& input, const BuildOptions& options,
           BuildReport* report) {
            const auto& m = require_euclidean(input, "yao", true);
            const Timer timer;
            Graph h = yao_graph(m, options.geometric.cones);
            return finish_baseline(std::move(h), timer.seconds(), "yao",
                                   yao_graph_stretch_bound(options.geometric.cones),
                                   report);
        });

    add({"wspd", InputKind::kEuclidean, false, false,
         "WSPD spanner: one edge per well-separated pair"},
        [](SpannerSession&, const BuildInput& input, const BuildOptions& options,
           BuildReport* report) {
            const auto& m = require_euclidean(input, "wspd", false);
            const Timer timer;
            const double s = options.geometric.wspd_separation;
            Graph h = s > 0.0 ? wspd_spanner_with_separation(m, s)
                              : wspd_spanner(m, options.geometric.epsilon);
            // With an explicit separation the guarantee is the dumbbell
            // bound (s+4)/(s-4), not 1 + epsilon (null in JSON if s <= 4).
            const double target = s > 0.0 ? wspd_greedy_stretch_bound(1.0, s)
                                          : 1.0 + options.geometric.epsilon;
            return finish_baseline(std::move(h), timer.seconds(), "wspd", target,
                                   report);
        });

    add({"net", InputKind::kMetric, false, false,
         "bounded-degree net-tree spanner for doubling metrics"},
        [](SpannerSession&, const BuildInput& input, const BuildOptions& options,
           BuildReport* report) {
            const auto& m = require_metric(input, "net");
            const Timer timer;
            Graph h = net_spanner(m, NetSpannerOptions{
                                         .epsilon = options.geometric.epsilon,
                                         .degree_cap = options.geometric.net_degree_cap});
            return finish_baseline(std::move(h), timer.seconds(), "net",
                                   1.0 + options.geometric.epsilon, report);
        });

    add({"baswana-sen", InputKind::kGraph, false, true,
         "randomized (2k-1)-spanner by cluster sampling [BS07]"},
        [](SpannerSession&, const BuildInput& input, const BuildOptions& options,
           BuildReport* report) {
            const Graph& g = require_graph(input, "baswana-sen");
            const Timer timer;
            Graph h = baswana_sen_spanner(g, options.baswana_sen.k,
                                          options.baswana_sen.seed);
            return finish_baseline(std::move(h), timer.seconds(), "baswana-sen",
                                   2.0 * options.baswana_sen.k - 1.0, report);
        });
}

const AlgorithmRegistry& AlgorithmRegistry::global() {
    static const AlgorithmRegistry registry;
    return registry;
}

std::vector<const AlgorithmInfo*> AlgorithmRegistry::algorithms() const {
    std::vector<const AlgorithmInfo*> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(&e.info);
    return out;
}

const AlgorithmInfo* AlgorithmRegistry::find(std::string_view name) const {
    for (const Entry& e : entries_) {
        if (e.info.name == name) return &e.info;
    }
    return nullptr;
}

Graph AlgorithmRegistry::build(std::string_view name, SpannerSession& session,
                               const BuildInput& input, const BuildOptions& options,
                               BuildReport* report) const {
    if (report != nullptr) *report = BuildReport{};
    options.validate();
    for (const Entry& e : entries_) {
        if (e.info.name != name) continue;
        if (const auto* points = dynamic_cast<const EuclideanMetric*>(input.metric)) {
            require_distinct_points(*points);
        }
        Graph h = e.fn(session, input, options, report);
        if (report != nullptr) report->algorithm = std::string(name);
        return h;
    }
    throw std::invalid_argument("AlgorithmRegistry: unknown algorithm \"" +
                                std::string(name) + "\"");
}

}  // namespace gsp
