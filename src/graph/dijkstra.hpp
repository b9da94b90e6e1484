// Dijkstra shortest paths, tuned for the greedy spanner's query pattern.
//
// The greedy algorithm runs one point-to-point distance query per candidate
// edge, on a graph that only ever grows, and it never cares about distances
// larger than t*w(e). Three things make that affordable:
//   1. a *distance limit*: the search never settles vertices beyond the
//      limit, so queries on a sparse spanner touch a small ball;
//   2. a reusable workspace with timestamped initialization, so a query
//      costs O(touched) instead of O(n) to reset;
//   3. a *bidirectional* variant that grows two frontiers meeting near
//      limit/2 -- on bounded-growth instances the settled ball shrinks
//      superlinearly versus the one-sided search.
//
// The query methods are templated over the adjacency view so the same code
// runs on the mutable `Graph` and on the engine's gap-buffered
// `IncrementalCsrView` (the probe entry points the greedy pipeline feeds
// them). A view must provide `num_vertices()` and
// `neighbors(v)` yielding a range of `HalfEdge`.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "graph/batched_probe.hpp"
#include "graph/graph.hpp"
#include "graph/types.hpp"
#include "util/dary_heap.hpp"

namespace gsp {

/// Reusable state for repeated Dijkstra runs over graphs with the same
/// vertex count. Not thread-safe; use one workspace per thread (the
/// `DijkstraWorkspacePool` below hands the greedy engine's worker pool one
/// workspace each).
class DijkstraWorkspace {
public:
    DijkstraWorkspace() = default;
    explicit DijkstraWorkspace(std::size_t n);

    /// Grow to accommodate n vertices (keeps amortized O(1) resets).
    void resize(std::size_t n);

    /// Distance from s to target in g, or +infinity if it exceeds `limit`
    /// (or target is unreachable). Settles only vertices at distance <= limit
    /// and stops as soon as `target` is settled.
    template <class G>
    Weight distance(const G& g, VertexId s, VertexId target, Weight limit);

    /// As `distance`, but grows forward and backward frontiers that meet in
    /// the middle: each side settles a ball of radius ~limit/2, which is a
    /// superlinear shrink of the touched set on bounded-growth instances.
    /// Caveat: the returned value sums the two half-path lengths, which may
    /// reassociate floating-point addition relative to the one-sided sweep
    /// (differences are confined to the last ulp).
    template <class G>
    Weight distance_bidirectional(const G& g, VertexId s, VertexId target, Weight limit);

    /// As `distance`, but goal-directed (A*): the heap is keyed by
    /// g(v) + h(v) where `h(v)` must lower-bound the graph distance from v
    /// to `target` and satisfy h(target) == 0. When h is additionally
    /// consistent (|h(x) - h(y)| <= w(x, y) for every edge -- automatic
    /// when h is a metric distance and edge weights dominate the metric),
    /// the returned distance is exact, computed by the same path-order
    /// additions as the one-sided sweep. The search only labels vertices
    /// whose f-key fits under `limit`, so on geometric instances it
    /// explores the (s, target)-ellipse instead of the full disc.
    /// Caveat: the f-key prune adds h in floating point, so a witness
    /// path within an ulp of `limit` may be pruned where the blind sweep
    /// would keep it (the same last-ulp class as the bidirectional
    /// reassociation caveat above).
    template <class G, class H>
    Weight distance_goal_directed(const G& g, VertexId s, VertexId target, Weight limit,
                                  H&& h);

    /// Single-source distances to every vertex within `limit`; entries beyond
    /// the limit (or unreachable) are +infinity. The result is valid until
    /// the next call on this workspace.
    const std::vector<Weight>& all_distances(const Graph& g, VertexId s, Weight limit);

    /// After all_distances: predecessor vertex on a shortest path tree
    /// (kNoVertex for the source and unreached vertices).
    [[nodiscard]] const std::vector<VertexId>& predecessors() const { return pred_; }

    /// After all_distances: the edge id used to reach each vertex in the
    /// shortest path tree (kNoEdge for the source and unreached vertices).
    [[nodiscard]] const std::vector<EdgeId>& predecessor_edges() const { return pred_edge_; }

    /// Drain the ball of radius `limit` around s; read its exact distances
    /// through settled_distance(). Costs O(|ball| log |ball|), *not* O(n):
    /// no dense reset.
    template <class G>
    void ball(const G& g, VertexId s, Weight limit);

    /// Valid immediately after ball() or all_distances(): the exact distance
    /// to v from that query's source if v was settled, +infinity otherwise.
    /// (A drained limited Dijkstra settles exactly the vertices within the
    /// limit, so "seen" implies exact.) Not meaningful after the early-exit
    /// point-to-point queries.
    [[nodiscard]] Weight settled_distance(VertexId v) const {
        return stamp_[v] == current_ ? dist_[v] : kInfiniteWeight;
    }

    /// Valid right after any query: an *upper bound* on the distance from
    /// the last query's (forward) source to x -- Dijkstra labels are lengths
    /// of realizable paths even before x settles. +infinity if untouched.
    [[nodiscard]] Weight last_forward_bound(VertexId x) const {
        return stamp_[x] == current_ ? dist_[x] : kInfiniteWeight;
    }

    /// Valid right after distance_bidirectional: an upper bound on the
    /// distance from the last query's *target* to x (the backward search's
    /// labels). +infinity if untouched.
    [[nodiscard]] Weight last_backward_bound(VertexId x) const {
        return stamp_b_[x] == current_ ? dist_b_[x] : kInfiniteWeight;
    }

    /// The multi-target group-probe kernel riding on this workspace (one
    /// per worker, like the rest of the scratch). State is independent of
    /// the point-query scratch above; it resizes itself per run.
    [[nodiscard]] BatchedProbe& batched() { return batched_; }

    /// Cumulative count of improving frontier-meet events observed by
    /// distance_bidirectional on this workspace (for GreedyStats).
    [[nodiscard]] std::size_t meet_events() const { return meets_; }

    /// Heap pushes performed by the last query -- the work proxy the greedy
    /// engine's adaptive probe-vs-point gate consumes (pushes capture both
    /// the labeled set and the relaxation churn of dense regions).
    [[nodiscard]] std::size_t last_work() const { return last_work_; }

private:
    // The single reset path of every query entry point. Each query kind
    // used to clear its own subset of the scratch, which left a workspace
    // reused across *different* query kinds with stale state -- exactly the hazard a per-thread workspace pool
    // cannot tolerate. begin_query resets everything a query may read.
    void begin_query();
    [[nodiscard]] bool seen(VertexId v) const { return stamp_[v] == current_; }
    [[nodiscard]] bool seen_b(VertexId v) const { return stamp_b_[v] == current_; }

    struct QueueItem {
        Weight dist;
        VertexId vertex;
        friend bool operator>(const QueueItem& a, const QueueItem& b) {
            return a.dist > b.dist;
        }
    };

    void push_fwd(Weight d, VertexId v) {
        heap_.push({d, v});
        peak_hint_ = std::max(peak_hint_, heap_.size());
        ++last_work_;
    }
    void push_bwd(Weight d, VertexId v) {
        heap_b_.push({d, v});
        peak_hint_ = std::max(peak_hint_, heap_b_.size());
        ++last_work_;
    }

    // Forward-search state (the only set used by one-sided queries).
    std::vector<Weight> dist_;
    std::vector<VertexId> pred_;
    std::vector<EdgeId> pred_edge_;
    std::vector<std::uint64_t> stamp_;
    // Backward-search state for distance_bidirectional.
    std::vector<Weight> dist_b_;
    std::vector<std::uint64_t> stamp_b_;

    std::uint64_t current_ = 0;
    DaryHeap<QueueItem, 4> heap_;
    DaryHeap<QueueItem, 4> heap_b_;
    std::size_t peak_hint_ = 0;  ///< max heap occupancy seen; reserve() hint
    std::size_t meets_ = 0;
    std::size_t last_work_ = 0;
    BatchedProbe batched_;
};

/// A fixed set of workspaces, one per worker of a thread pool. Workspaces
/// are heap-allocated so references stay stable across configure() calls,
/// and each worker touches only its own entry (no sharing, no locks).
class DijkstraWorkspacePool {
public:
    /// Ensure the pool holds at least `workers` workspaces, each sized for
    /// n vertices. Existing workspaces are grown in place, keeping their
    /// amortized-reset state warm across buckets and runs.
    void configure(std::size_t workers, std::size_t n);

    [[nodiscard]] std::size_t size() const { return pool_.size(); }

    [[nodiscard]] DijkstraWorkspace& at(std::size_t worker) { return *pool_.at(worker); }

    /// Sum of meet_events() over all workspaces (stats aggregation).
    [[nodiscard]] std::size_t total_meet_events() const;

    /// Workspaces constructed over this pool's lifetime. configure() only
    /// ever grows the pool, so on a warm pool (a SpannerSession reused
    /// across builds) this stays flat -- the counter the session-reuse
    /// bench probe certifies.
    [[nodiscard]] std::size_t created() const { return created_; }

private:
    std::vector<std::unique_ptr<DijkstraWorkspace>> pool_;
    std::size_t created_ = 0;
};

template <class G>
Weight DijkstraWorkspace::distance(const G& g, VertexId s, VertexId target,
                                   Weight limit) {
    resize(g.num_vertices());
    if (s >= g.num_vertices() || target >= g.num_vertices()) {
        throw std::out_of_range("DijkstraWorkspace::distance: vertex out of range");
    }
    if (s == target) return 0.0;
    begin_query();

    dist_[s] = 0.0;
    stamp_[s] = current_;
    push_fwd(0.0, s);

    while (!heap_.empty()) {
        const QueueItem top = heap_.pop_min();
        if (top.dist > dist_[top.vertex]) continue;  // stale entry
        if (top.vertex == target) return top.dist;
        for (const HalfEdge& h : g.neighbors(top.vertex)) {
            const Weight nd = top.dist + h.weight;
            if (nd > limit) continue;
            const bool fresh = !seen(h.to);
            if (fresh || nd < dist_[h.to]) {
                if (fresh) {
                    stamp_[h.to] = current_;
                }
                dist_[h.to] = nd;
                push_fwd(nd, h.to);
            }
        }
    }
    return kInfiniteWeight;
}

template <class G>
Weight DijkstraWorkspace::distance_bidirectional(const G& g, VertexId s, VertexId target,
                                                 Weight limit) {
    resize(g.num_vertices());
    if (s >= g.num_vertices() || target >= g.num_vertices()) {
        throw std::out_of_range(
            "DijkstraWorkspace::distance_bidirectional: vertex out of range");
    }
    if (s == target) return 0.0;
    begin_query();

    dist_[s] = 0.0;
    stamp_[s] = current_;
    dist_b_[target] = 0.0;
    stamp_b_[target] = current_;
    push_fwd(0.0, s);
    push_bwd(0.0, target);

    Weight best = kInfiniteWeight;
    // Expand the side with the smaller tentative radius; stop once the two
    // radii certify that no undiscovered path can beat `best` (Nicholson's
    // criterion) or fit under `limit`.
    while (!heap_.empty() && !heap_b_.empty()) {
        const Weight tf = heap_.min().dist;
        const Weight tb = heap_b_.min().dist;
        if (tf + tb >= best || tf + tb > limit) break;
        if (tf <= tb) {
            const QueueItem top = heap_.pop_min();
            if (top.dist > dist_[top.vertex]) continue;  // stale
            if (seen_b(top.vertex)) {
                const Weight through = top.dist + dist_b_[top.vertex];
                if (through < best) {
                    best = through;
                    ++meets_;
                }
            }
            for (const HalfEdge& h : g.neighbors(top.vertex)) {
                const Weight nd = top.dist + h.weight;
                if (nd > limit) continue;
                const bool fresh = !seen(h.to);
                if (fresh || nd < dist_[h.to]) {
                    if (fresh) {
                        stamp_[h.to] = current_;
                    }
                    dist_[h.to] = nd;
                    push_fwd(nd, h.to);
                    if (seen_b(h.to)) {
                        const Weight through = nd + dist_b_[h.to];
                        if (through < best) {
                            best = through;
                            ++meets_;
                        }
                    }
                }
            }
        } else {
            const QueueItem top = heap_b_.pop_min();
            if (top.dist > dist_b_[top.vertex]) continue;  // stale
            if (seen(top.vertex)) {
                const Weight through = top.dist + dist_[top.vertex];
                if (through < best) {
                    best = through;
                    ++meets_;
                }
            }
            for (const HalfEdge& h : g.neighbors(top.vertex)) {
                const Weight nd = top.dist + h.weight;
                if (nd > limit) continue;
                const bool fresh = !seen_b(h.to);
                if (fresh || nd < dist_b_[h.to]) {
                    if (fresh) {
                        stamp_b_[h.to] = current_;
                    }
                    dist_b_[h.to] = nd;
                    push_bwd(nd, h.to);
                    if (seen(h.to)) {
                        const Weight through = nd + dist_[h.to];
                        if (through < best) {
                            best = through;
                            ++meets_;
                        }
                    }
                }
            }
        }
    }
    return best <= limit ? best : kInfiniteWeight;
}

template <class G, class H>
Weight DijkstraWorkspace::distance_goal_directed(const G& g, VertexId s, VertexId target,
                                                 Weight limit, H&& h) {
    resize(g.num_vertices());
    if (s >= g.num_vertices() || target >= g.num_vertices()) {
        throw std::out_of_range(
            "DijkstraWorkspace::distance_goal_directed: vertex out of range");
    }
    if (s == target) return 0.0;
    begin_query();

    dist_[s] = 0.0;
    stamp_[s] = current_;
    push_fwd(h(s), s);

    // dist_ holds g (exact-so-far path lengths, so last_forward_bound
    // stays sound); heap keys hold f = g + h. A popped item is stale iff
    // its g component was improved after the push; h is fixed per vertex,
    // so comparing f-keys detects that without storing g in the item.
    while (!heap_.empty()) {
        const QueueItem top = heap_.pop_min();
        const VertexId v = top.vertex;
        if (v == target) {
            // h(target) == 0: the key *is* g, exact under a consistent h.
            if (top.dist > dist_[v]) continue;  // stale
            return dist_[v];
        }
        if (top.dist > dist_[v] + h(v)) continue;  // stale
        const Weight gd = dist_[v];
        for (const HalfEdge& e : g.neighbors(v)) {
            const Weight nd = gd + e.weight;
            if (nd > limit) continue;
            const bool fresh = !seen(e.to);
            if (fresh || nd < dist_[e.to]) {
                const Weight f = nd + h(e.to);
                if (f > limit) continue;  // no <= limit path through e.to
                if (fresh) {
                    stamp_[e.to] = current_;
                }
                dist_[e.to] = nd;
                push_fwd(f, e.to);
            }
        }
    }
    return kInfiniteWeight;
}

template <class G>
void DijkstraWorkspace::ball(const G& g, VertexId s, Weight limit) {
    resize(g.num_vertices());
    if (s >= g.num_vertices()) {
        throw std::out_of_range("DijkstraWorkspace::ball: vertex out of range");
    }
    begin_query();

    dist_[s] = 0.0;
    stamp_[s] = current_;
    push_fwd(0.0, s);

    while (!heap_.empty()) {
        const QueueItem top = heap_.pop_min();
        if (top.dist > dist_[top.vertex]) continue;  // stale
        for (const HalfEdge& h : g.neighbors(top.vertex)) {
            const Weight nd = top.dist + h.weight;
            if (nd > limit) continue;
            const bool fresh = !seen(h.to);
            if (fresh || nd < dist_[h.to]) {
                if (fresh) {
                    stamp_[h.to] = current_;
                }
                dist_[h.to] = nd;
                push_fwd(nd, h.to);
            }
        }
    }
}

/// Convenience wrappers (allocate a fresh workspace; fine for one-off use).
Weight dijkstra_distance(const Graph& g, VertexId s, VertexId t,
                         Weight limit = kInfiniteWeight);
std::vector<Weight> dijkstra_all(const Graph& g, VertexId s,
                                 Weight limit = kInfiniteWeight);

/// Vertex sequence (s, ..., t) of a shortest path, or empty if unreachable.
std::vector<VertexId> shortest_path(const Graph& g, VertexId s, VertexId t);

}  // namespace gsp
