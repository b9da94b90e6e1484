// The multi-target bounded Dijkstra group probe.
//
// The greedy prefilter's unit of work is a *source group*: candidates
// sharing one endpoint, each needing "is d(source, target_i) above
// threshold_i?" answered against the same immutable view. Point queries
// answer that with up to |group| traversals; this kernel answers the
// whole group with ONE traversal that carries every target and its
// decision radius:
//
//  * targets settle as the frontier reaches them -- a settled target's
//    distance is exact, so `d <= radius` decides it as a reject with a
//    realizable witness bound;
//  * a target whose radius falls below the frontier's current minimum can
//    never be reached in time -- it is decided *far* without ever being
//    visited. Radii are kept sorted, so this check is one forward sweep
//    of a cursor over a contiguous Weight array per pop (amortized O(k)
//    total);
//  * the relaxation limit is always the largest *undecided* radius, so
//    the searched area shrinks as targets resolve, and the probe
//    terminates the moment the last target is decided -- typically far
//    inside the area a full ball at the group radius would drain. Every
//    target leaves with exactly one of two verdicts, settled (a reject
//    with its exact distance) or far: the traversal always runs out to
//    the largest undecided radius, so nothing is ever handed back
//    undecided.
//
// State is SoA (dist / stamp arrays indexed by vertex, epoch
// stamps for O(touched) resets) over a monotone bucket queue
// (util/bucket_queue.hpp) -- bounded nonnegative keys make the D-ary heap
// overkill; bench_micro's queue ablation measures the swap.
//
// Soundness of the verdicts (all relative to the probed view):
//  * settled => exact: the standard Dijkstra invariant, unharmed by the
//    shrinking limit (a vertex within the FINAL limit has every prefix of
//    its shortest path within every limit the run ever used, since the
//    limit only shrinks -- so no relaxation on that path was pruned);
//  * far by sweep => the frontier minimum exceeded the radius, and keys
//    are monotone, so no path of length <= radius exists;
//  * far by exhaustion => the queue drained with the target unsettled;
//    a path within its radius would have been relaxed end to end (radius
//    <= every limit used while the target was undecided).
//
// certified_radius() extends the same argument to *every* vertex: the
// probe settled every vertex out to that radius (unsettled => farther),
// which is what lets the engine revalidate a probe's far verdicts lazily
// (its published ball).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/types.hpp"
#include "simd/aligned.hpp"
#include "util/annotations.hpp"
#include "util/bucket_queue.hpp"

namespace gsp {

class BatchedProbe {
public:
    /// One traversal deciding every (source, targets[i]) pair against
    /// radii[i]. Radii must be nondecreasing (SourceGroups hands members
    /// out in bucket order, which is weight order -- the invariant is
    /// documented on SourceGroups); duplicate target vertices are fine
    /// (each slot is decided independently). The radii array is the far
    /// sweep's operand, read in place (the caller keeps it alive through
    /// the run). After run(): target_far(i) / target_bound(i)
    /// hold the verdicts, certified_radius() the radius out to which
    /// every vertex settled.
    template <class View>
    GSP_DECISION_PURE GSP_HOT_PATH void run(const View& view, VertexId source, std::span<const VertexId> targets,
             std::span<const Weight> radii) {
        const std::size_t n = view.num_vertices();
        const std::size_t k = targets.size();
        if (radii.size() != k) {
            throw std::invalid_argument("BatchedProbe::run: targets/radii size mismatch");
        }
        resize(n);
        if (source >= n) {
            throw std::out_of_range("BatchedProbe::run: source out of range");
        }
        ++current_;
        settles_ = 0;
        work_ = 0;
        early_exit_ = false;
        certified_radius_ = 0.0;
        if (k == 0) return;

        far_.assign(k, 0);
        decided_.assign(k, 0);
        result_.assign(k, kInfiniteWeight);
        tgt_next_.assign(k, kNoSlot);
        for (std::size_t i = 1; i < k; ++i) {
            if (radii[i] < radii[i - 1]) {
                throw std::invalid_argument(
                    "BatchedProbe::run: radii must be nondecreasing");
            }
        }
        // Per-vertex target chains: duplicate targets share one settle
        // event but keep independent slots (their radii differ).
        for (std::size_t i = 0; i < k; ++i) {
            const VertexId v = targets[i];
            if (v >= n) {
                throw std::out_of_range("BatchedProbe::run: target out of range");
            }
            if (tgt_stamp_[v] == current_) {
                tgt_next_[i] = tgt_head_[v];
            }
            tgt_stamp_[v] = current_;
            tgt_head_[v] = static_cast<std::uint32_t>(i);
        }

        std::size_t undecided = k;
        std::size_t asc = 0;  // far-sweep cursor over sorted radii
        std::size_t top = k;  // 1 + index of the largest undecided radius
        Weight limit = radii[k - 1];  // shrinks as targets resolve

        queue_.reset(limit, std::max<std::size_t>(peak_hint_, 64));
        dist_[source] = 0.0;
        stamp_[source] = current_;
        queue_.push(0.0, source);
        ++work_;

        while (undecided > 0 && !queue_.empty()) {
            const BucketQueue::Item item = queue_.pop_min();
            const VertexId v = item.vertex;
            const Weight d = item.key;
            if (d > dist_[v]) continue;  // stale entry

            // The batched bound evaluation: every undecided radius below
            // the frontier minimum is unreachable in time -- decide the
            // whole prefix far in one contiguous sweep.
            for (; asc < k && radii[asc] < d; ++asc) {
                if (!decided_[asc]) {
                    decided_[asc] = 1;
                    far_[asc] = 1;
                    --undecided;
                }
            }
            if (undecided == 0) {
                finish_early(limit, d);
                return;
            }

            ++settles_;
            if (tgt_stamp_[v] == current_) {
                // radii[slot] >= d for every live slot here (smaller radii
                // were swept far above): settled at d <= radius => reject,
                // with the exact distance as a realizable witness bound.
                for (std::uint32_t slot = tgt_head_[v]; slot != kNoSlot;
                     slot = tgt_next_[slot]) {
                    if (!decided_[slot]) {
                        decided_[slot] = 1;
                        result_[slot] = d;
                        --undecided;
                    }
                }
                tgt_stamp_[v] = 0;  // chain consumed; v settles only once
                if (undecided == 0) {
                    finish_early(limit, d);
                    return;
                }
                // Early termination's other half: shrink the relaxation
                // limit to the largest radius still undecided.
                while (top > 0 && decided_[top - 1]) --top;
                limit = radii[top - 1];
            }

            for (const auto& h : view.neighbors(v)) {
                const Weight nd = d + h.weight;
                if (nd > limit) continue;
                if (stamp_[h.to] != current_ || nd < dist_[h.to]) {
                    stamp_[h.to] = current_;
                    dist_[h.to] = nd;
                    queue_.push(nd, h.to);
                    ++work_;
                }
            }
        }

        // Queue exhausted with targets still open: nothing within their
        // radii is reachable (see the soundness note above).
        for (std::size_t i = 0; i < k; ++i) {
            if (!decided_[i]) {
                decided_[i] = 1;
                far_[i] = 1;
            }
        }
        certified_radius_ = limit;
        if (peak_hint_ < settles_) peak_hint_ = settles_;
    }

    /// True iff slot i was decided far: d(source, target_i) > radii[i]
    /// on the probed view.
    [[nodiscard]] bool target_far(std::size_t i) const { return far_[i] != 0; }

    /// Exact distance for a settled (rejected) slot; +infinity for a far
    /// slot.
    [[nodiscard]] Weight target_bound(std::size_t i) const { return result_[i]; }

    /// Completeness radius of the last run: every vertex within it
    /// settled at its exact distance, so an unsettled vertex is farther.
    [[nodiscard]] Weight certified_radius() const { return certified_radius_; }

    /// The last run stopped with frontier still pending (every target was
    /// decided before the search space drained).
    [[nodiscard]] bool early_exit() const { return early_exit_; }

    /// Queue pushes of the last run -- the same work proxy
    /// DijkstraWorkspace::last_work() feeds the engine's cost model.
    [[nodiscard]] std::size_t last_work() const { return work_; }

private:
    static constexpr std::uint32_t kNoSlot = 0xffffffffu;

    void resize(std::size_t n);

    /// All targets decided at the pop of key `d`. Completeness holds out
    /// to min(limit, just-below-d): below d every vertex settled (monotone
    /// pops), and below the final limit no relaxation was ever pruned.
    GSP_HOT_PATH void finish_early(Weight limit, Weight d) {
        early_exit_ = !queue_.empty();
        certified_radius_ =
            std::min(limit, std::nextafter(d, -std::numeric_limits<Weight>::infinity()));
        if (certified_radius_ < 0.0) certified_radius_ = 0.0;
        if (peak_hint_ < settles_) peak_hint_ = settles_;
    }

    // SoA label state, epoch-stamped for O(touched) resets; cache-line
    // aligned so the arrays never false-share with neighboring
    // allocations.
    simd::AlignedVector<Weight> dist_;
    simd::AlignedVector<std::uint64_t> stamp_;
    // Per-vertex target registration (stamped) + per-slot chain links.
    simd::AlignedVector<std::uint64_t> tgt_stamp_;
    simd::AlignedVector<std::uint32_t> tgt_head_;
    std::vector<std::uint32_t> tgt_next_;
    // Per-slot verdicts (sized per run).
    std::vector<std::uint8_t> far_;
    std::vector<std::uint8_t> decided_;
    std::vector<Weight> result_;

    std::uint64_t current_ = 0;
    BucketQueue queue_;
    Weight certified_radius_ = 0.0;
    bool early_exit_ = false;
    std::size_t work_ = 0;
    std::size_t settles_ = 0;    ///< vertices settled by the last run
    std::size_t peak_hint_ = 0;  ///< settled-count high-water mark (queue sizing)
};

}  // namespace gsp
