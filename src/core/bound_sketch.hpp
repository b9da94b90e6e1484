// Cross-bucket bound persistence: a compact per-vertex distance sketch.
//
// The engine's per-candidate bounds are bucket-local (they live in the
// stage-2/stage-3 handoff and die with their bucket), while the classic
// Farshi-Gudmundsson DistanceCache of the metric kernel keeps one upper
// bound per *pair* -- n^2 memory -- and owes most of its speed to hits that
// span weight buckets. BoundSketch recovers those cross-bucket hits in
// O(n) memory: a small set-associative table with `ways` slots per vertex,
// each slot remembering what some earlier exact query learned about the
// distance from one source to this vertex:
//
//  * an upper bound `ub` -- the length of a realizable witness path. The
//    spanner only grows and distances only shrink, so `ub` is sound
//    *forever* and may reject a candidate in any later bucket;
//  * a lower bound `lo` tagged with the insertion epoch it was measured
//    at: "d(src, v) >= lo at epoch `lo_epoch`". Distances can only shrink
//    when an edge is inserted, so the tag is the certificate's lifetime --
//    a consult at the same epoch may accept without any Dijkstra probe
//    (the same rule stage-2 "far at snapshot" certificates follow).
//
// Records are monotone-tightening: a repeated (vertex, source) record only
// lowers `ub`, and only raises `lo` within an epoch (a newer epoch replaces
// the tag). Slot placement is deterministic (source-indexed way), so runs
// are reproducible and stats are schedule-independent. The associativity
// is a runtime parameter (power of two): kWays = 4 was PR 3's first cut,
// and bench_micro measures the hit-rate curve at 2/4/8 ways.
//
// Concurrency contract: the sketch is written only by the engine's serial
// insertion loop, while stage-2 workers consult it read-only strictly
// between fan-out and join.
//
// Storage is SoA (per-field arrays indexed slot = x * ways + way) rather
// than an array of Entry structs: the hot consult, via_upper_bound, then
// reads the two vertices' way-contiguous source arrays with ONE vector
// load + compare per block (simd::Kernels::match_pairs) instead of a
// scalar way loop over 32-byte structs, touching the ub lanes only for
// matching ways.
#pragma once

#include <cstddef>
#include <cstdint>

#include "graph/types.hpp"
#include "simd/aligned.hpp"
#include "simd/simd.hpp"
#include "util/annotations.hpp"

namespace gsp {

class BoundSketch {
public:
    /// Default slots per vertex. Sources map to ways by their low bits, so
    /// up to `ways` distinct sources can coexist per vertex before
    /// evictions.
    static constexpr std::size_t kDefaultWays = 4;

    /// Clear and size for n vertices with `ways` slots each (O(n * ways);
    /// once per engine run). `ways` must be a power of two >= 1.
    void reset(std::size_t n, std::size_t ways = kDefaultWays);

    [[nodiscard]] bool empty() const { return src_.empty(); }
    [[nodiscard]] std::size_t ways() const { return ways_; }
    [[nodiscard]] std::size_t bytes() const {
        return src_.capacity() * sizeof(VertexId) + ub_.capacity() * sizeof(Weight) +
               lo_.capacity() * sizeof(Weight) +
               lo_epoch_.capacity() * sizeof(std::uint64_t);
    }

    /// Vector kernel table for the way probe; nullptr restores the
    /// runtime-dispatched default.
    void set_kernels(const simd::Kernels* k) {
        simd_ = k != nullptr ? k : &simd::auto_kernels();
    }

    /// Record an exact distance d(src, x) = d measured at `epoch`: upper
    /// bound forever, lower bound while the epoch holds.
    GSP_SERIAL_ONLY void record_exact(VertexId src, VertexId x, Weight d,
                                      std::uint64_t epoch);

    /// Record d(src, x) >= lo, measured at `epoch` (a probe that exceeded
    /// its limit, or an unsettled vertex outside a ball's radius).
    GSP_SERIAL_ONLY void record_far(VertexId src, VertexId x, Weight lo,
                                    std::uint64_t epoch);

    /// Record a witness-path upper bound d(src, x) <= ub (sound forever).
    GSP_SERIAL_ONLY void record_upper(VertexId src, VertexId x, Weight ub);

    /// Smallest recorded upper bound on d(u, v), over both directions;
    /// +infinity when neither vertex remembers the other.
    [[nodiscard]] GSP_DECISION_PURE GSP_HOT_PATH Weight upper_bound(
        VertexId u, VertexId v) const;

    /// Smallest *via-landmark* upper bound on d(u, v): min over common
    /// sources x remembered by both endpoints of ub(x, u) + ub(x, v) --
    /// two realizable witness paths concatenated through x, sound by the
    /// triangle inequality. The coarse-reject consult for streams that
    /// emit each pair exactly once (a direct (u, v) record never exists,
    /// but both endpoints usually remember a nearby cell anchor whose
    /// drained ball settled them). O(ways); +infinity when u and v share
    /// no landmark.
    [[nodiscard]] GSP_DECISION_PURE GSP_HOT_PATH Weight via_upper_bound(
        VertexId u, VertexId v) const;

    /// Largest lower bound on d(u, v) still valid at `epoch` (0 when no
    /// tagged entry matches). d(u, v) > threshold is certified iff the
    /// returned value exceeds threshold.
    [[nodiscard]] GSP_DECISION_PURE GSP_HOT_PATH Weight lower_bound_at(
        VertexId u, VertexId v, std::uint64_t epoch) const;

private:
    [[nodiscard]] std::size_t slot(VertexId x, VertexId src) const {
        return static_cast<std::size_t>(x) * ways_ + (src & (ways_ - 1));
    }
    /// Claims slot(x, src) for `src` (deterministic eviction: the newest
    /// source owning a way wins) and returns its index.
    std::size_t slot_for_write(VertexId src, VertexId x);

    std::size_t ways_ = kDefaultWays;
    // SoA slot fields, n * ways_ each, way-indexed by source low bits.
    // src_ is the vector probe's operand; aligned so a way block never
    // splits its first load.
    simd::AlignedVector<VertexId> src_;
    simd::AlignedVector<Weight> ub_;
    GSP_EPOCH_GUARDED simd::AlignedVector<Weight> lo_;
    GSP_EPOCH_GUARDED simd::AlignedVector<std::uint64_t> lo_epoch_;
    const simd::Kernels* simd_ = &simd::auto_kernels();
};

}  // namespace gsp
