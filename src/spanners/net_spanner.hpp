// Bounded-degree (1+eps)-spanner for doubling metrics (the paper's
// Theorem 2 substrate, after [CGMZ05, GR08c]).
//
// Construction: build the net hierarchy, then
//   * parent edges  -- each point to its parent at every level;
//   * cross edges   -- every pair of level-l net points within gamma * r_l,
//                      gamma = 2 + 4/eps (the standard "wide neighborhood"
//                      that makes net-point detours absorbable in eps);
//   * degree reduction -- edges are replayed from heaviest to lightest;
//     when an endpoint's degree exceeds `degree_cap`, the edge is delegated
//     to a descendant of that endpoint a few net levels down (distance to
//     the delegate is O(eps) * edge length, so stretch survives). This is
//     the CGMZ-style rerouting that turns the net-tree spanner into a
//     bounded-degree one. The claim tested (tests/net_spanner_test.cpp)
//     is the measured one: stretch within 1 + eps, a maximum degree that
//     does not grow in proportion to n (at a practical gamma -- the
//     worst-case gamma's constant only flattens past laptop scale), and a
//     geometric-star hub kept below n/4 degree.
#pragma once

#include <cstddef>

#include "graph/graph.hpp"
#include "metric/metric_space.hpp"
#include "nets/net_hierarchy.hpp"

namespace gsp {

struct NetSpannerOptions {
    double epsilon = 0.5;        ///< target stretch 1 + epsilon
    /// Per-vertex degree budget before delegation kicks in; 0 = no
    /// delegation (raw net-tree spanner, unbounded degree).
    std::size_t degree_cap = 64;
    /// Cross-edge radius multiplier gamma; 0 = the guaranteed worst-case
    /// formula 4 + 8/eps. The worst-case constant is what the proof needs,
    /// but it makes the eps^{-O(ddim)} size/degree "constants" so large that
    /// their n-independence only shows past laptop scale; experiments may
    /// override with a practical gamma and report the *measured* stretch.
    double gamma_override = 0.0;
};

/// Build the spanner over metric m. Returns a graph whose edge weights are
/// exact metric distances. Requires 0 < epsilon <= 1.
Graph net_spanner(const MetricSpace& m, const NetSpannerOptions& options);

/// Convenience overload.
inline Graph net_spanner(const MetricSpace& m, double epsilon) {
    return net_spanner(m, NetSpannerOptions{.epsilon = epsilon});
}

}  // namespace gsp
