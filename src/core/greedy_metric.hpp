// The greedy spanner over a metric space (Sections 4-5 of the paper).
//
// In a metric space the candidate edge set is all n(n-1)/2 pairs. Two
// configurations of the shared GreedyEngine produce one output (they are
// observationally identical):
//
//  * the naive greedy -- one one-sided distance-limited Dijkstra per pair
//    (every engine optimisation off; EngineTuning::naive());
//  * the cached greedy -- the full engine: per-bucket group probes cache
//    spanner distances as upper bounds in the Farshi-Gudmundsson style (the
//    practical variant behind the O(n^2 log n) bound the paper cites as
//    [BCF+10]); the spanner only grows, so a cached bound may reject a pair
//    forever, and only bound-exceeding pairs are re-verified. The engine
//    keeps one bound per candidate pair (8 bytes on top of the 16-byte
//    candidate record the sorted pair list already stores) instead of a
//    separate n x n matrix, and shares its probes only within a weight
//    bucket.
//
// The candidate enumeration itself is the api layer's MetricCandidateSource
// (src/api/candidate_source.hpp); the convenience below is a one-shot
// session over it.
#pragma once

#include "core/engine_tuning.hpp"
#include "core/greedy.hpp"
#include "graph/graph.hpp"
#include "metric/metric_space.hpp"

namespace gsp {

/// The greedy t-spanner of the metric m, as a graph over m's points whose
/// edge weights are metric distances. One-shot convenience (full engine,
/// serial); for configured, parallel, or repeated builds use a
/// SpannerSession with BuildOptions (src/api/session.hpp). `*stats` is
/// zeroed before any work.
Graph greedy_spanner_metric(const MetricSpace& m, double t,
                            GreedyStats* stats = nullptr);

#ifndef GSP_NO_DEPRECATED
/// Legacy option struct. The engine knobs it used to re-declare
/// (num_threads) live in the embedded shared `engine` block now.
struct MetricGreedyOptions {
    double stretch = 2.0;
    /// Run the full GreedyEngine. Identical output, faster. Off = the
    /// naive reference kernel (overrides the engine block with
    /// EngineTuning::naive()).
    bool use_distance_cache = true;
    EngineTuning engine;  ///< the shared engine block
};

/// Legacy front door: prefer SpannerSession::build over a
/// MetricCandidateSource (or the "greedy-metric" registry entry), which
/// reuses pools and workspaces across builds. `*stats` is zeroed before
/// delegating.
[[deprecated("use SpannerSession::build with BuildOptions (src/api/session.hpp)")]]
Graph greedy_spanner_metric(const MetricSpace& m, const MetricGreedyOptions& options,
                            GreedyStats* stats = nullptr);
#endif  // GSP_NO_DEPRECATED

}  // namespace gsp
