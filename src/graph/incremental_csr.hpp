// Incremental gap-buffered CSR adjacency.
//
// A frozen CSR snapshot of a growing graph costs a full O(n + m) rebuild per
// refresh, so a greedy engine built on one can only afford one per bucket.
// IncrementalCsrView removes that refreeze entirely: each vertex owns a
// *gap-buffered run* inside one arena -- a contiguous slice with slack
// capacity after its live entries -- so mirroring one inserted edge is an
// O(1) append into the gap (O(degree) when the gap is exhausted and the run
// relocates to the arena tail with doubled capacity). Relocations abandon
// dead slots; when dead slots occupy a third of the arena, one amortized
// merge-on-threshold compaction rebuilds the arena with fresh slack.
// The view is therefore *always exact* on the mirrored graph at per-insert
// cost amortized O(1), and `neighbors` stays a single contiguous span --
// the property the Dijkstra kernel's scan loop is built around.
//
// Thread-safety: all const members read only immutable-between-mutations
// state, so any number of threads may query concurrently as long as no
// thread is inside `refresh`/`add_edge`. The
// greedy engine's parallel prefilter stage fans read-only probes over the
// view and runs the (only-writer) insertion loop strictly after the join.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace gsp {

/// Gap-buffered CSR mirror of a growing Graph. Call `refresh(g)` at a sync
/// point (full rebuild only if the mirror drifted -- a no-op on the hot
/// path) and `add_edge` for every edge appended to g afterwards.
class IncrementalCsrView {
public:
    IncrementalCsrView() = default;

    /// Synchronize with g: a full O(n + m) rebuild with fresh slack when
    /// the mirror does not match g's vertex/edge counts (first use, engine
    /// reuse across runs), an O(1) no-op otherwise. Returns true iff a
    /// full rebuild happened.
    bool refresh(const Graph& g);

    /// Mirror one undirected edge appended to the underlying graph since
    /// the last refresh (id must be the Graph edge id so predecessor-edge
    /// reporting agrees across views). Amortized O(1); worst case
    /// O(degree) for a run relocation plus an amortized arena compaction.
    void add_edge(VertexId u, VertexId v, Weight w, EdgeId id);

    [[nodiscard]] std::size_t num_vertices() const { return start_.size(); }
    [[nodiscard]] std::size_t num_half_edges() const { return live_half_edges_; }

    [[nodiscard]] std::span<const HalfEdge> neighbors(VertexId v) const {
        return {arena_.data() + start_[v], len_[v]};
    }

    // --- storage telemetry (the engine's csr_* stats) ---
    /// Full O(n + m) rebuilds performed by refresh().
    [[nodiscard]] std::size_t rebuilds() const { return rebuilds_; }
    /// Amortized merge-on-threshold arena compactions.
    [[nodiscard]] std::size_t compactions() const { return compactions_; }
    /// Per-vertex run relocations (gap exhausted, run moved to the tail).
    [[nodiscard]] std::size_t relocations() const { return relocations_; }
    /// Current arena footprint in bytes (live + gaps + dead slots).
    [[nodiscard]] std::size_t arena_bytes() const {
        return arena_.capacity() * sizeof(HalfEdge);
    }

private:
    /// Slack appended to a vertex run at (re)build time: absorbs the next
    /// few insertions without a relocation.
    static std::uint32_t slack(std::uint32_t live) {
        const std::uint32_t rel = live / 4;
        return rel < 2 ? 2 : rel;
    }

    void append_half(VertexId v, const HalfEdge& h);
    void relocate(VertexId v, std::uint32_t min_cap);
    void compact();

    std::vector<std::uint32_t> start_;  ///< vertex -> first arena slot of its run
    std::vector<std::uint32_t> len_;    ///< vertex -> live entries in its run
    std::vector<std::uint32_t> cap_;    ///< vertex -> run capacity (len + gap)
    std::vector<HalfEdge> arena_;       ///< all runs, relocations append at the tail
    std::size_t dead_ = 0;              ///< slots abandoned by relocations
    std::size_t live_half_edges_ = 0;
    std::size_t mirrored_edges_ = 0;    ///< edge count of the mirrored graph
    Edge last_edge_;                    ///< fingerprint of the newest mirrored edge
    bool built_ = false;

    std::size_t rebuilds_ = 0;
    std::size_t compactions_ = 0;
    std::size_t relocations_ = 0;
};

}  // namespace gsp
