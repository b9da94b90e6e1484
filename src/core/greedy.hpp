// Algorithm 1 of the paper: the greedy spanner for weighted graphs.
//
//   H = (V, {})
//   for each edge (u, v) in non-decreasing order of weight:
//       if delta_H(u, v) > t * w(u, v):  add (u, v) to H
//
// Properties this implementation guarantees (and tests rely on):
//  * stretch(H) <= t, by construction;
//  * ties in edge weight are broken deterministically by canonical endpoint
//    order then edge id, so greedy(G, t) is a pure function of (G, t) -- the
//    Lemma-3 fixpoint test greedy(greedy(G)) == greedy(G) is exact;
//  * with the same tie-breaking, H contains the Kruskal MST of G
//    (Observation 2 of the paper);
//  * each distance query is a Dijkstra run *limited* to radius t * w(e),
//    making the naive algorithm usable well beyond toy sizes.
#pragma once

#include <cstddef>

#include "graph/graph.hpp"

namespace gsp {

/// Counters describing one greedy run (for the runtime experiments,
/// BuildReport and perfbench's layer metrics). Every counter except
/// `seconds` is a pure function of (candidates, options): no decision
/// reads a clock, and stage-2 work is decided per whole-bucket source
/// group against the bucket-start spanner, so a parallel build reports
/// the same counters at every worker count >= 2 and every schedule.
struct GreedyStats {
    std::size_t edges_examined = 0;  ///< candidate edges processed
    std::size_t edges_added = 0;     ///< edges kept in the spanner
    std::size_t dijkstra_runs = 0;   ///< distance/ball queries actually executed
    double seconds = 0.0;            ///< wall-clock time of the run (candidate
                                     ///< generation included)
    double pull_seconds = 0.0;       ///< the part of `seconds` spent inside the
                                     ///< source's next_chunk (timed once per
                                     ///< chunk; no decision reads it)

    // GreedyEngine counters (zero when the matching optimisation is off).
    std::size_t balls_computed = 0;       ///< serial cell balls and group probes grown
    std::size_t cache_hits = 0;           ///< candidates decided from cached facts
    std::size_t csr_rebuilds = 0;         ///< full O(n+m) adjacency rebuilds (with the
                                          ///< incremental store: one per run, not per bucket)
    std::size_t csr_compactions = 0;      ///< incremental-CSR arena compactions
    std::size_t bidirectional_meets = 0;  ///< improving frontier-meet events
    std::size_t buckets = 0;              ///< weight buckets processed

    // Pipeline counters (zero when the parallel prefilter stage is off).
    std::size_t snapshot_accepts = 0;   ///< accepts certified by the bucket-start probe
                                        ///< (stage-2 far bit, no insertion since)

    // Retired counters, kept so existing readers still compile; all six
    // always read zero. Parallel builds no longer repair stale stage-2
    // certificates (a stale far bit simply falls through to the exact
    // machinery), no cross-bucket bound sketch exists to hit, and no
    // reject-only prefilter hook (or its timed gate) exists to count.
    std::size_t repairs = 0;              ///< always 0
    std::size_t repair_fallbacks = 0;     ///< always 0
    std::size_t sketch_hits = 0;          ///< always 0
    std::size_t coarse_rejects = 0;       ///< always 0
    std::size_t prefilter_rejects = 0;    ///< always 0
    std::size_t prefilter_gated_off = 0;  ///< always 0

    // Group-probe counters (zero when ball_sharing is off; with anchored
    // cell-batched groups only stage 2 probes groups). All three are
    // per-group facts of deterministic probes, so they are invariant
    // across worker counts (the equivalence suite checks this).
    std::size_t group_probes = 0;           ///< batched multi-target probes run
    std::size_t group_probe_decisions = 0;  ///< candidates those probes decided
    std::size_t group_probe_early_exits = 0;  ///< probes that stopped with frontier
                                              ///< pending (every target decided)

    // Cell-batched rejection counters (zero unless cell_batching resolved
    // to kOn -- the grid-streamed path; only the serial insertion loop
    // grows cell balls). cell_ball_decisions counts the
    // candidates a cell ball decided without a probe of their own: the
    // members its harvest resolved at ball time plus the later
    // lazy-revalidation accepts it backed.
    std::size_t cell_balls = 0;          ///< balls grown for anchored (cell) groups
    std::size_t cell_ball_decisions = 0; ///< candidates decided by those balls

    /// Peak resident bytes of the stage-2 -> stage-3 handoff (one state
    /// byte per candidate of the bucket + one packed far bit in parallel
    /// runs); perfbench reports it as engine.handoff_peak_mb.
    std::size_t handoff_peak_bytes = 0;

    // Candidate-memory counters (the chunk stream). For a whole-list
    // source the buffer peak is the whole sorted array -- the honest
    // comparison baseline for the streaming sources.
    std::size_t candidates_streamed = 0;  ///< candidates pulled through stage 1
    std::size_t candidate_buffer_peak_bytes = 0;  ///< peak resident candidate bytes
};

/// The greedy t-spanner of g. Requires t >= 1. Works on disconnected
/// graphs (the spanner then spans each component). Parallel edges are
/// handled naturally: the second copy is rejected because the first copy is
/// a path of equal weight (<= t * w since t >= 1).
///
/// Runs on the full-featured GreedyEngine (bidirectional bounded Dijkstra,
/// per-bucket ball sharing, CSR snapshots) through a one-shot session; use
/// a SpannerSession with BuildOptions (src/api/session.hpp) to select
/// individual optimisations, parallelism, or warm-started repeated builds.
/// Every configuration returns the same edge set. `*stats` is zeroed
/// before any work (never additive across calls).
Graph greedy_spanner(const Graph& g, double t, GreedyStats* stats = nullptr);

}  // namespace gsp
