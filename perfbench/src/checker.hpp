// The output checker behind the benchmark's `correct` / `failed` fields.
//
// A build counts as failed when it throws, when its audited maximum
// stretch exceeds the BuildReport::stretch_target it claims, or when a
// repeat build of the same request returns a different edge set than the
// audited first build (a warm session must never change results). The
// audit is exact where that is cheap -- all pairs of a metric input up to
// kExactMetricVertices, every input edge of a graph up to
// kExactGraphEdges -- and sampled above: max_stretch_metric_sampled over
// a few full sources for metrics, a seeded edge sample for graphs.
#pragma once

#include <cstddef>
#include <cstdint>

#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"
#include "metric/euclidean.hpp"

namespace perfbench {

/// A build input: exactly one of graph / points.
struct InputRef {
    const gsp::Graph* graph = nullptr;
    const gsp::EuclideanMetric* points = nullptr;

    [[nodiscard]] std::size_t vertices() const {
        return graph != nullptr ? graph->num_vertices() : points->size();
    }
};

inline constexpr std::size_t kExactMetricVertices = 4096;
inline constexpr std::size_t kExactGraphEdges = 50'000;
inline constexpr std::size_t kSampledMetricSources = 16;
inline constexpr std::size_t kSampledGraphEdges = 4096;

/// Relative slack of the stretch verdict: audits and builds sum path
/// weights in different orders, which moves a ratio by a few ulps.
inline constexpr double kStretchSlack = 1e-9;

struct OutputAudit {
    double max_stretch = 0.0;  ///< audited (exact or sampled lower bound)
    bool exact = false;
    bool stretch_ok = false;   ///< max_stretch <= target * (1 + kStretchSlack)
    double lightness = 0.0;    ///< w(H) / w(MST of the input)
    std::size_t max_degree = 0;
    double edges_per_vertex = 0.0;
};

/// w(MST) of the input: Kruskal on graphs, implicit Prim on point sets.
double input_mst_weight(InputRef in);

/// Largest d_H(u, v) / w(u, v) over the input edges checked: every edge
/// when `samples` >= m, else `samples` edges drawn with `seed`. Each check
/// is a bounded bidirectional query with limit 2 * target * w, so a pair
/// beyond the limit reads +infinity -- exact for the pass/fail verdict.
double max_stretch_edge_sample(const gsp::Graph& g, const gsp::Graph& h, double target,
                               std::size_t samples, std::uint64_t seed,
                               gsp::DijkstraWorkspace& ws);

/// Audit one output against its input and claimed target.
OutputAudit audit_output(InputRef in, const gsp::Graph& h, double stretch_target,
                         double mst_weight, std::uint64_t seed, gsp::DijkstraWorkspace& ws);

/// Order-independent 64-bit hash of an edge set (canonical endpoint order,
/// exact weight bits): equal edge sets hash equal whatever the insertion
/// order, so repeat builds are compared in O(m) without keeping copies.
std::uint64_t edge_set_hash(const gsp::Graph& h);

/// FNV-1a fingerprints of generated inputs (workload-identity guards).
std::uint64_t fingerprint(const gsp::EuclideanMetric& points);
std::uint64_t fingerprint(const gsp::Graph& g);

}  // namespace perfbench
