// Algorithm Approximate-Greedy (paper §5, after [DN97, GLN02]).
//
// Pipeline (faithful to the §5.1 sketch):
//   1. build a bounded-degree base spanner G' of the metric with a stretch
//      budget t_base (theta graph for 2D Euclidean inputs -- the [GLN02]
//      setting -- and the net-tree spanner for general doubling metrics);
//   2. take all "light" edges E0 (weight <= D/n, D = max edge of G') into
//      the output unconditionally -- their total weight is O(MST);
//   3. simulate the greedy algorithm with stretch t_sim over the remaining
//      edges of G' in non-decreasing weight order, bucketed by weight into
//      geometric classes; per bucket, a ClusterGraph of radius
//      O(eps) * (bucket scale) provides a sound *reject-only* fast path
//      (its distances are realizable path lengths, i.e. upper bounds);
//      edges that survive the fast path are decided by an exact
//      distance-limited Dijkstra.
//
// Divergence from [GLN02] (see DESIGN.md §2.3/§6): the original maintains
// its cluster graph incrementally and answers *all* queries approximately;
// we rebuild per bucket and keep exact queries for accepted edges. The
// consequence is the same Lemma-11 gap invariant -- every kept non-E0 edge
// has second-shortest-path weight > t_sim * w(e) -- with a simpler
// soundness story, at the cost of a (measured, small) extra runtime factor.
//
// Output stretch: t_base * t_sim <= 1 + eps by construction of the budgets.
//
// Since the api redesign the pipeline itself lives behind the candidate-
// source seam: api/candidate_source's BaseSpannerCandidateSource builds G',
// seeds E0, and streams the remaining edges into the shared GreedyEngine;
// `approx_greedy_build` (same header) runs it through a SpannerSession.
// This header keeps the algorithm's parameter section, its result struct,
// and the entry points.
#pragma once

#include <cstddef>

#include "core/greedy.hpp"
#include "graph/graph.hpp"
#include "metric/metric_space.hpp"

namespace gsp {

/// The approximate-greedy parameter section: what BuildOptions.approx
/// carries in the unified API (engine/parallelism knobs live in the shared
/// EngineTuning block, not here).
struct ApproxParams {
    double epsilon = 0.5;  ///< overall stretch target 1 + epsilon (0 < eps <= 1)

    /// Cones for the 2D Euclidean base spanner; 0 = smallest k whose
    /// *guaranteed* theta-graph stretch meets the base budget. Benches may
    /// override with a practical k (the audit column then certifies the
    /// measured stretch).
    std::size_t theta_cones_override = 0;

    /// Use the ClusterGraph reject-only fast path. Off by default: with the
    /// engine's bidirectional + cached exact path, bench_ablation measures
    /// the per-bucket oracle rebuild as a ~0.5x *slowdown* (it was a win
    /// over the one-sided naive kernel). Opting in arms the engine's
    /// measured-cost gate (GreedyEngineOptions::PrefilterGate::kAdaptive),
    /// which times a calibration window and drops the oracle mid-run if it
    /// is not paying for itself; the output is identical either way.
    bool use_cluster_oracle = false;

    /// Degree cap handed to the net-spanner base (generic metrics only).
    std::size_t net_degree_cap = 64;
};

struct ApproxGreedyResult {
    Graph spanner;              ///< the (1+eps)-spanner of the metric
    Graph base;                 ///< the base spanner G'
    std::size_t light_edges = 0;    ///< |E0|
    std::size_t buckets = 0;        ///< number of weight buckets processed
    std::size_t oracle_rejects = 0; ///< fast-path rejections
    std::size_t exact_queries = 0;  ///< exact Dijkstra decisions
    double t_base = 0.0;            ///< stretch budget given to G'
    double t_sim = 0.0;             ///< stretch used by the greedy simulation
    double seconds_base = 0.0;      ///< wall-clock: base construction
    double seconds_total = 0.0;     ///< wall-clock: whole pipeline
};

/// Run Algorithm Approximate-Greedy with default parameters (one-shot
/// session). For configured or repeated builds use `approx_greedy_build`
/// with a SpannerSession and BuildOptions (api/candidate_source.hpp).
ApproxGreedyResult approx_greedy_spanner(const MetricSpace& m, double epsilon);

}  // namespace gsp
