// Checker self-test: the checks behind `failed` must fire on corrupted
// spanners and stay quiet on real ones.
//
//   perfbench --self-test     (also registered as a ctest in CMakeLists.txt)
//
// Each corruption drops one edge from a greedy spanner built at t = 1.5.
// Below t = 2 every greedy edge is necessary: when (u, v) was accepted no
// path of length <= t * w(u, v) existed over lighter edges, and any path
// over the remaining edges has >= 2 edges of weight >= w(u, v), so the
// pair's stretch after the drop is >= 2 > t.
#include <cstdio>
#include <string>

#include "api/build_options.hpp"
#include "api/candidate_source.hpp"
#include "api/session.hpp"
#include "checker.hpp"
#include "gen/graphs.hpp"
#include "gen/points.hpp"
#include "graph/dijkstra.hpp"
#include "util/random.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures;
}

/// h without its edge `drop`.
gsp::Graph without_edge(const gsp::Graph& h, std::size_t drop) {
    gsp::Graph out(h.num_vertices());
    for (std::size_t i = 0; i < h.num_edges(); ++i) {
        if (i != drop) out.add_edge(h.edges()[i].u, h.edges()[i].v, h.edges()[i].weight);
    }
    return out;
}

/// h with one edge's weight nudged by one ulp (same endpoints).
gsp::Graph with_nudged_weight(const gsp::Graph& h) {
    gsp::Graph out(h.num_vertices());
    for (std::size_t i = 0; i < h.num_edges(); ++i) {
        const gsp::Edge& e = h.edges()[i];
        out.add_edge(e.u, e.v, i == 0 ? std::nextafter(e.weight, 1e300) : e.weight);
    }
    return out;
}

void check_case(const char* name, InputRef in, const gsp::Graph& h, double target) {
    gsp::DijkstraWorkspace ws;
    const double mst = input_mst_weight(in);
    const OutputAudit good = audit_output(in, h, target, mst, 7, ws);
    expect(good.exact && good.stretch_ok,
           std::string(name) + ": the real spanner passes the exact audit");
    expect(good.lightness >= 1.0, std::string(name) + ": lightness >= 1");
    // Drop the first, a middle, and the last accepted edge in turn.
    for (const std::size_t drop : {std::size_t{0}, h.num_edges() / 2, h.num_edges() - 1}) {
        const gsp::Graph bad = without_edge(h, drop);
        const OutputAudit a = audit_output(in, bad, target, mst, 7, ws);
        expect(!a.stretch_ok, std::string(name) + ": dropping edge " + std::to_string(drop) +
                                  " fails the audit (stretch " + std::to_string(a.max_stretch) +
                                  ")");
        expect(edge_set_hash(bad) != edge_set_hash(h),
               std::string(name) + ": dropping edge " + std::to_string(drop) +
                   " changes the edge-set hash");
    }
    expect(edge_set_hash(with_nudged_weight(h)) != edge_set_hash(h),
           std::string(name) + ": a one-ulp weight change changes the edge-set hash");
}

}  // namespace

int run_self_test() {
    gsp::BuildOptions options;
    options.stretch = 1.5;

    gsp::Rng rng(11);
    const gsp::EuclideanMetric pts = gsp::uniform_points(200, 2, 100.0, rng);
    gsp::SpannerSession session;
    gsp::MetricCandidateSource metric_source(pts);
    gsp::BuildReport metric_report;
    const gsp::Graph hm = session.build(metric_source, options, &metric_report);
    check_case("metric", InputRef{nullptr, &pts}, hm, metric_report.stretch_target);

    const gsp::Graph g = gsp::random_graph_nm(300, 2400, gsp::WeightRange{1.0, 2.0}, rng);
    gsp::GraphCandidateSource graph_source(g);
    gsp::BuildReport graph_report;
    const gsp::Graph hg = session.build(graph_source, options, &graph_report);
    check_case("graph", InputRef{&g, nullptr}, hg, graph_report.stretch_target);

    // A warm rebuild is the same edge set and constructs nothing; the mt
    // build equals the serial one, and a corrupted one does not.
    gsp::BuildReport warm;
    const gsp::Graph hg2 = session.build(graph_source, options, &warm);
    expect(edge_set_hash(hg2) == edge_set_hash(hg), "graph: a warm rebuild hashes equal");
    expect(warm.pools_constructed + warm.workspaces_constructed == 0,
           "graph: a warm rebuild constructs no pools or workspaces");
    gsp::BuildOptions mt = options;
    mt.engine.num_threads = 2;
    gsp::SpannerSession mt_session;
    const gsp::Graph hmt = mt_session.build(graph_source, mt);
    expect(gsp::same_edge_set(hmt, hg), "graph: the 2-thread edge set equals the serial one");
    expect(!gsp::same_edge_set(without_edge(hmt, 0), hg),
           "graph: a corrupted mt edge set differs from the serial one");

    std::printf("%s\n", failures == 0 ? "self-test passed" : "self-test FAILED");
    return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
