// Algorithm 1, literally, with no engine code: the independent reference
// that EngineTuning::naive() is checked against, edge for edge.
#pragma once

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <queue>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "core/candidate_stream.hpp"
#include "graph/graph.hpp"

namespace gsp {

/// Scan `sorted` in order, starting from the spanner `h` (a seed, such as
/// the approximate-greedy E0 set, or empty), and keep (u, v) iff a
/// binary-heap Dijkstra from u over the spanner so far finds no path of
/// length <= t * w.
inline Graph literal_greedy(Graph h, std::span<const GreedyCandidate> sorted, double t) {
    using Item = std::pair<Weight, VertexId>;
    for (const GreedyCandidate& c : sorted) {
        std::vector<Weight> dist(h.num_vertices(), std::numeric_limits<Weight>::infinity());
        std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
        dist[c.u] = 0.0;
        heap.emplace(0.0, c.u);
        while (!heap.empty()) {
            const auto [d, x] = heap.top();
            heap.pop();
            if (d > dist[x]) continue;
            if (x == c.v) break;
            for (const HalfEdge& half : h.neighbors(x)) {
                if (d + half.weight < dist[half.to]) {
                    dist[half.to] = d + half.weight;
                    heap.emplace(dist[half.to], half.to);
                }
            }
        }
        if (dist[c.v] > t * c.weight) h.add_edge(c.u, c.v, c.weight);
    }
    return h;
}

/// The graph form: g's edges scanned by (w, min endpoint, max endpoint,
/// id), from an empty spanner.
inline Graph literal_greedy(const Graph& g, double t) {
    std::vector<EdgeId> order(g.num_edges());
    std::iota(order.begin(), order.end(), EdgeId{0});
    const auto key = [&g](EdgeId id) {
        const Edge& e = g.edge(id);
        return std::make_tuple(e.weight, std::min(e.u, e.v), std::max(e.u, e.v), id);
    };
    std::sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) { return key(a) < key(b); });
    std::vector<GreedyCandidate> sorted;
    sorted.reserve(order.size());
    for (const EdgeId id : order) {
        const Edge& e = g.edge(id);
        sorted.push_back(GreedyCandidate{e.u, e.v, e.weight});
    }
    return literal_greedy(Graph(g.num_vertices()), sorted, t);
}

}  // namespace gsp
