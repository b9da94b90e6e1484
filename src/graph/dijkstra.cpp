#include "graph/dijkstra.hpp"

#include <algorithm>
#include <stdexcept>

namespace gsp {

DijkstraWorkspace::DijkstraWorkspace(std::size_t n) { resize(n); }

void DijkstraWorkspace::resize(std::size_t n) {
    if (n <= dist_.size()) return;
    dist_.resize(n, kInfiniteWeight);
    pred_.resize(n, kNoVertex);
    pred_edge_.resize(n, kNoEdge);
    stamp_.resize(n, 0);
    dist_b_.resize(n, kInfiniteWeight);
    stamp_b_.resize(n, 0);
}

void DijkstraWorkspace::begin_query() {
    ++current_;
    // Reset *all* per-query scratch here, not just what the next query kind
    // reads: ball() used to leave heap_b_ untouched, so interleaving query
    // kinds on one workspace (the normal life of a pooled per-thread
    // workspace) could observe a previous query's state.
    heap_.clear();
    heap_b_.clear();
    last_work_ = 0;
    // Pre-size to the historical peak so tight query loops never pay
    // reallocation churn mid-search (clear() keeps capacity, so this only
    // costs anything on fresh or recently grown workspaces).
    if (heap_.capacity() < peak_hint_) heap_.reserve(peak_hint_);
}

const std::vector<Weight>& DijkstraWorkspace::all_distances(const Graph& g, VertexId s,
                                                            Weight limit) {
    resize(g.num_vertices());
    if (s >= g.num_vertices()) {
        throw std::out_of_range("DijkstraWorkspace::all_distances: vertex out of range");
    }
    begin_query();

    // This entry point hands the dist_ vector to the caller, so unreached
    // entries must actually hold +infinity rather than stale values.
    std::fill(dist_.begin(), dist_.begin() + static_cast<std::ptrdiff_t>(g.num_vertices()),
              kInfiniteWeight);
    std::fill(pred_.begin(), pred_.begin() + static_cast<std::ptrdiff_t>(g.num_vertices()),
              kNoVertex);
    std::fill(pred_edge_.begin(),
              pred_edge_.begin() + static_cast<std::ptrdiff_t>(g.num_vertices()), kNoEdge);

    dist_[s] = 0.0;
    stamp_[s] = current_;
    push_fwd(0.0, s);

    while (!heap_.empty()) {
        const QueueItem top = heap_.pop_min();
        if (top.dist > dist_[top.vertex]) continue;
        for (const HalfEdge& h : g.neighbors(top.vertex)) {
            const Weight nd = top.dist + h.weight;
            if (nd > limit) continue;
            if (nd < dist_[h.to]) {
                stamp_[h.to] = current_;
                dist_[h.to] = nd;
                pred_[h.to] = top.vertex;
                pred_edge_[h.to] = h.edge;
                push_fwd(nd, h.to);
            }
        }
    }
    return dist_;
}

void DijkstraWorkspacePool::configure(std::size_t workers, std::size_t n) {
    while (pool_.size() < workers) {
        pool_.push_back(std::make_unique<DijkstraWorkspace>());
        ++created_;
    }
    for (auto& ws : pool_) ws->resize(n);
}

std::size_t DijkstraWorkspacePool::total_meet_events() const {
    std::size_t total = 0;
    for (const auto& ws : pool_) total += ws->meet_events();
    return total;
}

Weight dijkstra_distance(const Graph& g, VertexId s, VertexId t, Weight limit) {
    DijkstraWorkspace ws(g.num_vertices());
    return ws.distance(g, s, t, limit);
}

std::vector<Weight> dijkstra_all(const Graph& g, VertexId s, Weight limit) {
    DijkstraWorkspace ws(g.num_vertices());
    return ws.all_distances(g, s, limit);
}

std::vector<VertexId> shortest_path(const Graph& g, VertexId s, VertexId t) {
    DijkstraWorkspace ws(g.num_vertices());
    const auto& dist = ws.all_distances(g, s, kInfiniteWeight);
    if (dist[t] == kInfiniteWeight) return {};
    std::vector<VertexId> path;
    for (VertexId cur = t; cur != kNoVertex; cur = ws.predecessors()[cur]) {
        path.push_back(cur);
    }
    std::reverse(path.begin(), path.end());
    return path;
}

}  // namespace gsp
