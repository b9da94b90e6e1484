// Algorithm Approximate-Greedy (paper §5, after [DN97, GLN02]).
//
// Pipeline (the §5.1 sketch):
//   1. build a bounded-degree base spanner G' of the metric with a stretch
//      budget t_base (theta graph for 2D Euclidean inputs -- the [GLN02]
//      setting -- and the net-tree spanner for general doubling metrics);
//   2. take all "light" edges E0 (weight <= D/n, D = max edge of G') into
//      the output unconditionally -- their total weight is O(MST);
//   3. simulate the greedy algorithm with stretch t_sim over the remaining
//      edges of G' in non-decreasing weight order. The shared GreedyEngine
//      decides every one of these candidates exactly, by bounded Dijkstra
//      on the growing spanner at radius t_sim * w(e).
//
// Divergence from [GLN02]: the original answers the simulation's distance
// queries approximately, on a cluster graph of the spanner kept per
// weight scale; here no query is approximate. The simulation is the exact
// greedy over G' minus E0, seeded with E0, so the Lemma-11 gap invariant
// -- every kept non-E0 edge has second-shortest-path weight
// > t_sim * w(e) -- holds by construction: the last-examined edge f of
// any cycle through e is itself a simulated edge, kept only because the
// rest of the cycle exceeded t_sim * w(f) >= t_sim * w(e).
//
// Output stretch: t_base * t_sim <= 1 + eps by construction of the budgets.
//
// The pipeline itself lives behind the candidate-source seam:
// api/candidate_source's BaseSpannerCandidateSource builds G', seeds E0,
// and streams the remaining edges into the shared GreedyEngine;
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

    /// Ignored. Kept only because the benchmark driver
    /// (perfbench/src/main.cpp) still sets it; it goes when that setter
    /// does. Every candidate is decided by the exact engine.
    bool use_cluster_oracle = false;

    /// Degree cap handed to the net-spanner base (generic metrics only).
    std::size_t net_degree_cap = 64;
};

struct ApproxGreedyResult {
    Graph spanner;              ///< the (1+eps)-spanner of the metric
    Graph base;                 ///< the base spanner G'
    std::size_t light_edges = 0;    ///< |E0|
    std::size_t buckets = 0;        ///< number of weight buckets processed
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
