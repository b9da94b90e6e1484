// Grid-pruned geometric candidate generation.
//
// The WSPD source already gets the greedy candidate count down to O(n) --
// but its quadtree + dumbbell-pair machinery carries real constants, and
// its chunked mode still holds every representative pair at once. For the
// common Euclidean workload there is a simpler linear-space scheme built
// on a hierarchy of uniform grids:
//
//   level l partitions the bounding box into cells of side h_0 * 2^l
//   (enclosing radius r_l = h_l * sqrt(2) / 2, so any two points in one
//   cell are within 2 r_l of each other);
//
//   a point pair at distance d is *assigned* to the unique level with
//   s * r_l <= d < 2 s * r_l; pairs closer than s * r_0 are "near" pairs,
//   enumerated exactly (point by point) at level 0;
//
//   an assigned pair's two cells are distinct (same cell would force
//   d <= 2 r_l < s r_l) and their index distance lands in a thin ring:
//   min_boxdist in [(s - 4) r_l, 2 s r_l). Emitting one candidate per
//   occupied cell pair in that ring -- the minimum-id representative of
//   each cell, at the representatives' exact distance -- therefore covers
//   every assigned pair. The ring test is conservative (no per-pair
//   existence check), so some cell pairs with no assigned pair also emit;
//   the extra candidates are harmless (greedy rejects them cheaply) and
//   the count stays O(s^2) per occupied cell per level.
//
// Covered pairs satisfy exactly the dumbbell premises of the WSPD bound
// (points within 2 r_l of their representative, d >= s * r_l), so greedy
// over these candidates with engine stretch t spans the whole metric with
// stretch wspd_greedy_stretch_bound(t, s) = t (s + 4) / (s - 4), s > 4.
//
// Ordered, memory-bounded emission (GridChunkSource): the weight axis is
// cut into classes -- [0, f) and the octaves [f 2^k, f 2^(k+1)) up to past
// the bounding-box diagonal, f = near_cutoff * 2^-20 -- and each class into
// kSubBins equal sub-bins. One counting pass over every candidate plans
// the sweep: it histograms the raw candidate weights over the sub-bins
// (comparing against the very boundary doubles the window filter uses, so
// a candidate's bin and its window always agree). A class within the
// window budget is one window; a class over it is cut at sub-bin
// boundaries into the fewest pieces that fit; a single sub-bin over it is
// served by capped passes that each keep the lightest candidates up to
// the budget (a sub-bin holding one weight is served whole). Empty
// classes are never scanned, and every planned window is enumerated
// exactly once: per level, only the cell pairs whose min_boxdist could
// place a candidate weight inside the window (weight w of a cell pair
// obeys mb <= w <= mb + 4 r_l). The window's candidates are sorted by
// the source tie rule (weight, u, v), deduplicated, and served in
// soft_cap slices. Nothing outside the current window is ever resident,
// and far pairs are never touched at all: the whole structure is O(n)
// ids + O(occupied cells) per level, plus one window of at most
// max(2^18, 3n) raw candidates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/candidate_stream.hpp"
#include "graph/types.hpp"
#include "metric/euclidean.hpp"
#include "simd/aligned.hpp"
#include "simd/radix_sort.hpp"

namespace gsp {

/// The hierarchy of sparse uniform grids over a 2D Euclidean point set.
/// Struct-of-arrays per level: sorted packed cell keys, the first cell of
/// every row, and the per-cell representative (minimum id) with its
/// coordinates; level 0 also keeps its points grouped by cell, with their
/// coordinates alongside. All flat arrays on the cache-line-aligned
/// allocator: they are the sweep operands of every window scan.
/// Construction is O(n log n) per level and the level count is
/// O(log(diameter / h_0)), truncated as soon as a level has at most one
/// occupied cell (no far pair can need it or any coarser level).
class UniformGrid2D {
public:
    struct Level {
        double cell_size = 0.0;  ///< h_l
        double radius = 0.0;     ///< r_l = h_l * sqrt(2) / 2
        simd::AlignedVector<std::uint64_t> keys;  ///< sorted (iy << 32) | ix per occupied cell
        simd::AlignedVector<std::uint32_t> row_start;  ///< first cell of row iy (max iy + 2)
        std::int64_t extent = 0;  ///< largest cell index on either axis, plus one
        simd::AlignedVector<VertexId> rep;  ///< the minimum id in each cell
        simd::AlignedVector<double> rep_x, rep_y;  ///< the representative's coordinates
    };

    /// `m` must be 2-dimensional; `separation` must be > 4 (the finite-
    /// stretch regime of the dumbbell bound).
    UniformGrid2D(const EuclideanMetric& m, double separation);

    [[nodiscard]] const EuclideanMetric& metric() const { return m_; }
    [[nodiscard]] double separation() const { return separation_; }
    [[nodiscard]] const std::vector<Level>& levels() const { return levels_; }

    /// Pairs strictly closer than this are enumerated exactly (s * r_0).
    [[nodiscard]] double near_cutoff() const { return near_cutoff_; }

    /// Upper bound on any pairwise distance (the bounding-box diagonal).
    [[nodiscard]] double max_distance_bound() const { return dmax_; }

    /// The candidate guaranteed to cover pair (i, j): the pair itself when
    /// near, otherwise its assigned level's representative pair. The
    /// emitted stream provably contains this exact (u, v, weight) triple
    /// -- the O(n^2) coverage oracle the tests replay against.
    [[nodiscard]] GreedyCandidate covering_candidate(VertexId i, VertexId j) const;

private:
    friend class GridChunkSource;

    /// Invoke fn(u, v, w) for every candidate of the window [lo, hi) --
    /// near point pairs and ring representative pairs with weight in the
    /// window, duplicates and all, in enumeration order.
    template <class Fn>
    void visit_window(double lo, double hi, Fn&& fn) const;

    [[nodiscard]] std::uint64_t cell_key(double x, double y, double h) const;
    [[nodiscard]] std::size_t find_cell(const Level& level, std::uint64_t key) const;

    const EuclideanMetric& m_;
    double separation_;
    double minx_ = 0.0, miny_ = 0.0;
    double dmax_ = 0.0;          ///< bounding-box diagonal
    double near_cutoff_ = 0.0;   ///< s * r_0
    std::vector<Level> levels_;
    // Level 0's points grouped by cell (ids ascending within a cell) with
    // their coordinates: the operands of the exact near enumeration.
    simd::AlignedVector<std::uint32_t> cell_start_;  ///< prefix per level-0 cell
    simd::AlignedVector<VertexId> near_ids_;
    simd::AlignedVector<double> near_x_, near_y_;
};

/// The pull-based generator over a grid: the planned window sweep
/// described in the header comment, honoring the CandidateChunkSource
/// contract (non-decreasing weight across chunks, concatenation identical
/// to a full materialization, caller-owned output buffer).
class GridChunkSource final : public CandidateChunkSource {
public:
    /// Equal sub-bins per weight class: the resolution at which a class
    /// over the budget is cut into windows.
    static constexpr std::size_t kSubBins = 64;

    /// The window budget of a grid over `points` points: max(2^18, 3n)
    /// raw candidates (duplicates included). O(n), so the resident window
    /// stays linear. A window costs about 40-60 B of peak RSS per raw
    /// candidate, source and engine together: with 3n the n = 10^6
    /// memory probe peaked at 83% of its linear RSS budget; with n it
    /// took 12-13% less RSS but built 31-73% slower, the larger classes
    /// split more often. 2^18 keeps small instances' weight classes whole.
    [[nodiscard]] static std::size_t default_budget(std::size_t points);

    explicit GridChunkSource(const UniformGrid2D& grid)
        : GridChunkSource(grid, default_budget(grid.metric().size())) {}

    /// `budget` (>= 1) caps a window's raw candidate count; only a window
    /// of one equal weight may exceed it.
    GridChunkSource(const UniformGrid2D& grid, std::size_t budget);

    bool next_chunk(std::size_t soft_cap, std::vector<GreedyCandidate>& out) override;

    /// Candidate enumerations so far: the plan pass, then one per window.
    [[nodiscard]] std::size_t enumeration_passes() const { return passes_; }

private:
    void plan();
    [[nodiscard]] std::size_t bin_of(double w) const;
    /// Collect the next planned window, sorted and deduplicated: straight
    /// into `out` when it fits `soft_cap` whole, else into scratch_ to be
    /// served in slices. False at the end of the stream.
    bool next_window(std::size_t soft_cap, std::vector<GreedyCandidate>& out);
    double collect_capped(double lo, double hi);
    double trim(double cut);

    const UniformGrid2D* grid_;
    std::size_t budget_;
    double inv_f_ = 0.0;               ///< 1 / (width of class 0): bin estimates
    std::vector<double> edges_;        ///< sub-bin boundaries, kSubBins per class, + the end
    std::vector<std::size_t> counts_;  ///< raw candidates per sub-bin (the plan)
    std::size_t bin_ = 0;              ///< the sub-bin the next window starts in
    std::size_t left_ = 0;             ///< raw candidates of bin_ not yet served
    double lo_ = 0.0;                  ///< lower edge of the next window
    std::size_t passes_ = 0;
    std::vector<std::size_t> slice_;  ///< per sub-bin of the window: its slice's end
    std::vector<std::size_t> fill_;   ///< per sub-bin of the window: its fill cursor
    std::vector<GreedyCandidate> scratch_;  ///< a window served in slices
    std::size_t served_ = 0;
    simd::CandidateRadixSorter sorter_;  ///< window finalization (vs std::sort)
};

}  // namespace gsp
