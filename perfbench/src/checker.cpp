#include "checker.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "analysis/audit.hpp"
#include "graph/mst.hpp"
#include "metric/metric_space.hpp"
#include "util/random.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv_bytes(std::uint64_t h, const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

template <class T>
std::uint64_t fnv_value(std::uint64_t h, T v) {
    return fnv_bytes(h, &v, sizeof(v));
}

std::uint64_t mix64(std::uint64_t x) {  // splitmix64 finalizer
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

}  // namespace

double input_mst_weight(InputRef in) {
    return in.graph != nullptr ? gsp::mst_weight(*in.graph) : gsp::metric_mst_weight(*in.points);
}

double max_stretch_edge_sample(const gsp::Graph& g, const gsp::Graph& h, double target,
                               std::size_t samples, std::uint64_t seed,
                               gsp::DijkstraWorkspace& ws) {
    const auto edges = g.edges();
    if (edges.empty()) return 0.0;
    ws.resize(h.num_vertices());
    double worst = 0.0;
    const auto check = [&](const gsp::Edge& e) {
        const double d = ws.distance_bidirectional(h, e.u, e.v, 2.0 * target * e.weight);
        worst = std::max(worst, d / e.weight);
    };
    if (samples >= edges.size()) {
        for (const gsp::Edge& e : edges) check(e);
    } else {
        gsp::Rng rng(seed);
        for (std::size_t i = 0; i < samples; ++i) check(edges[rng.index(edges.size())]);
    }
    return worst;
}

OutputAudit audit_output(InputRef in, const gsp::Graph& h, double stretch_target,
                         double mst_weight, std::uint64_t seed, gsp::DijkstraWorkspace& ws) {
    OutputAudit a;
    const std::size_t n = in.vertices();
    if (h.num_vertices() != n) {
        a.max_stretch = std::numeric_limits<double>::infinity();
        return a;
    }
    if (in.graph != nullptr) {
        a.exact = in.graph->num_edges() <= kExactGraphEdges;
        a.max_stretch = max_stretch_edge_sample(*in.graph, h, stretch_target,
                                                a.exact ? in.graph->num_edges()
                                                        : kSampledGraphEdges,
                                                seed, ws);
    } else {
        a.exact = n <= kExactMetricVertices;
        a.max_stretch = a.exact ? gsp::max_stretch_metric(*in.points, h, ws)
                                : gsp::max_stretch_metric_sampled(
                                      *in.points, h, kSampledMetricSources, seed, ws);
    }
    a.stretch_ok = a.max_stretch <= stretch_target * (1.0 + kStretchSlack);
    a.lightness = mst_weight > 0.0 ? h.total_weight() / mst_weight : 0.0;
    a.max_degree = h.max_degree();
    a.edges_per_vertex =
        n == 0 ? 0.0 : static_cast<double>(h.num_edges()) / static_cast<double>(n);
    return a;
}

std::uint64_t edge_set_hash(const gsp::Graph& h) {
    std::uint64_t sum = mix64(h.num_vertices() + 1);
    for (const gsp::Edge& e : h.edges()) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &e.weight, sizeof(bits));
        const std::uint64_t lo = std::min(e.u, e.v);
        const std::uint64_t hi = std::max(e.u, e.v);
        sum += mix64(mix64((lo << 32) | hi) ^ bits);
    }
    return sum;
}

std::uint64_t fingerprint(const gsp::EuclideanMetric& points) {
    std::uint64_t h = fnv_value(kFnvOffset, static_cast<std::uint64_t>(points.dim()));
    for (gsp::VertexId i = 0; i < points.size(); ++i) {
        for (const double c : points.point(i)) h = fnv_value(h, c);
    }
    return h;
}

std::uint64_t fingerprint(const gsp::Graph& g) {
    std::uint64_t h = fnv_value(kFnvOffset, static_cast<std::uint64_t>(g.num_vertices()));
    for (const gsp::Edge& e : g.edges()) {
        h = fnv_value(h, e.u);
        h = fnv_value(h, e.v);
        h = fnv_value(h, e.weight);
    }
    return h;
}

}  // namespace perfbench
