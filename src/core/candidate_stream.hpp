// Stage 1 of the greedy pipeline: the candidate stream.
//
// The engine consumes candidates bucket by bucket. A bucket is the
// geometric weight class [lo, 2 * lo] -- the boundary rule the
// approximate-greedy simulation has always used -- except after a bucket
// that accepted no edge: then the next bucket runs to the end of the
// resident chunk, because a reject-only stretch of the stream gains
// nothing from narrow buckets and pays one group probe per source per
// bucket. Every build feeds the engine through one pull-based protocol: a
// CandidateChunkSource appends its candidates chunk by chunk into a
// reusable caller-owned buffer, and CandidateStream carves buckets out of
// the resident chunk, so the full sorted array only exists when a source
// produces it in one piece (the linear-space greedy of Alewijnse et al.:
// streaming sources generate one weight window at a time). SourceGroups
// indexes a bucket's candidates by source vertex, which is both the unit
// of ball sharing (one ball answers a whole group) and the unit of work
// handed to the parallel prefilter stage (groups touch disjoint candidate
// slots, so workers never race on a candidate's state byte).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.hpp"
#include "util/annotations.hpp"

namespace gsp {

/// One candidate edge for the greedy loop.
struct GreedyCandidate {
    VertexId u = kNoVertex;
    VertexId v = kNoVertex;
    Weight weight = 0.0;
};

/// One weight bucket: candidate indices [begin, end) of the stream.
struct CandidateBucket {
    std::size_t begin = 0;
    std::size_t end = 0;
    Weight lo = 0.0;  ///< weight of the bucket's first candidate

    [[nodiscard]] std::size_t size() const { return end - begin; }
};

/// The pull-based chunk protocol: how every candidate reaches the engine.
///
/// Contract (what CandidateStream validates and the engine's bit-identity
/// guarantee rests on):
///  * each call appends candidates in non-decreasing weight order, every
///    weight >= every weight of every earlier chunk, with the source's own
///    deterministic tie rule;
///  * `soft_cap` is advisory: a source should stop appending once the
///    chunk reaches it, but may overshoot to finish an atomic unit of
///    generation (a weight window it cannot split, a run of equal
///    weights it has already sorted, a list it can only sort whole);
///  * the buffer is owned by the caller (the session's reusable candidate
///    buffer): the source only ever appends, and must not keep references
///    into it across calls;
///  * returns true after appending at least one candidate; false --
///    appending nothing -- once the stream is exhausted (and on every
///    call thereafter).
class CandidateChunkSource {
public:
    virtual ~CandidateChunkSource() = default;

    virtual bool next_chunk(std::size_t soft_cap, std::vector<GreedyCandidate>& out) = 0;
};

/// A chunk source over a list produced in one piece (a sort needs every
/// candidate before it can emit the first): the first pull appends the
/// whole list straight into the caller's buffer -- one chunk, whatever
/// the soft cap, so the list is never held twice -- and every later pull
/// reports the end of the stream.
class WholeListChunkSource final : public CandidateChunkSource {
public:
    using Generator = std::function<void(std::vector<GreedyCandidate>&)>;

    /// `generate` appends the sorted list; it runs at most once.
    explicit WholeListChunkSource(Generator generate) : generate_(std::move(generate)) {}

    bool next_chunk(std::size_t, std::vector<GreedyCandidate>& out) override {
        if (done_) return false;
        done_ = true;
        const std::size_t before = out.size();
        generate_(out);
        return out.size() > before;
    }

private:
    Generator generate_;
    bool done_ = false;
};

/// Drives the engine's bucket loop from a CandidateChunkSource: one chunk
/// at a time lives in the caller-owned buffer, and buckets are carved out
/// of the resident chunk. A bucket never outlives the chunk: a weight
/// class (or a widened bucket) that straddles a chunk boundary is simply
/// split in two, and bucket boundaries are decision preserving, so the
/// edge set is the same at every chunk size.
class CandidateStream {
public:
    /// Largest bucket the stream emits: bucket-local indices (groups,
    /// state bytes, verdict bits) are u32, so a longer class is cut.
    static constexpr std::size_t kMaxBucket = 0xffffffffu;

    /// `buffer` must outlive the stream; it is cleared and refilled on
    /// every chunk pull. Requires soft_cap >= 1.
    CandidateStream(CandidateChunkSource& source, std::vector<GreedyCandidate>& buffer,
                    std::size_t soft_cap)
        : source_(&source), buffer_(&buffer), soft_cap_(soft_cap) {}

    /// Produce the next bucket (stream-global candidate indices); false at
    /// end of stream. A bucket is [lo, 2 * lo]; with `widen` it is the
    /// rest of the resident chunk instead. Either way it holds at most
    /// kMaxBucket candidates. Throws std::invalid_argument if the source
    /// violates the ordering contract.
    bool next(CandidateBucket& out, bool widen);

    /// The resident candidates of `bucket` (which must be the bucket most
    /// recently produced by next()).
    [[nodiscard]] std::span<const GreedyCandidate> window(const CandidateBucket& bucket) const {
        return std::span<const GreedyCandidate>(*buffer_).subspan(bucket.begin - base_,
                                                                  bucket.size());
    }

    /// Total candidates pulled from the source so far.
    [[nodiscard]] std::size_t streamed() const { return streamed_; }

    /// Peak logical bytes resident in the chunk buffer (size, not
    /// capacity: a pure function of the stream, not of what earlier
    /// builds left in a warm session's buffer).
    [[nodiscard]] std::size_t peak_buffer_bytes() const { return peak_bytes_; }

    /// Wall time spent inside the source's next_chunk so far, timed once
    /// per chunk pull. A clock reading: reported, never decided on.
    [[nodiscard]] double pull_seconds() const { return pull_seconds_; }

private:
    bool refill();

    CandidateChunkSource* source_;
    std::vector<GreedyCandidate>* buffer_;
    std::size_t soft_cap_;
    std::size_t base_ = 0;    ///< global index of buffer_[0]
    std::size_t cursor_ = 0;  ///< global index of the next unconsumed candidate
    bool exhausted_ = false;
    Weight last_weight_ = 0.0;  ///< cross-chunk ordering validation
    bool have_last_ = false;
    std::size_t streamed_ = 0;
    std::size_t peak_bytes_ = 0;
    double pull_seconds_ = 0.0;
};

/// A bucket's candidates grouped by a per-candidate *anchor* endpoint,
/// stored flat: one u32 member array per bucket, addressed by a
/// per-vertex start and count, and one side byte per candidate (is the
/// anchor u or v). A rebuild counts, takes a prefix sum over the bucket's
/// anchors and fills, touching only the vertices the bucket names, so a
/// bucket costs O(its candidates), never O(n). Groups list
/// *bucket-local* candidate indices (global index minus the bucket's
/// `begin` -- the same u32 currency the stage-2/stage-3 handoff uses for
/// its state bytes and verdict bitsets; a run's candidate span may exceed
/// 2^32 because CandidateStream cuts every bucket below it) in ascending
/// order, which the prefilter and insertion stages both rely on (facts
/// harvested by an earlier candidate's query may only be consumed by
/// later ones).
///
/// Because the bucket is sorted by non-decreasing weight and
/// group members are listed in ascending index order, a group's member
/// *weights* -- and therefore its decision radii (stretch * weight) -- are
/// nondecreasing along the list. BatchedProbe's contiguous far-sweep is
/// built on exactly this invariant (it validates and throws on violation),
/// so any future regrouping must preserve index order.
///
/// Two grouping modes, selected per rebuild:
///
///  * classic (anchored = false): the anchor is the candidate's `u` (the
///    source vertex) -- the PR-1 rule. Natural for graph edges, where the
///    min-id endpoint concentrates a vertex's candidates.
///  * anchored (anchored = true): the cell-batched rule. A grid-pruned
///    stream emits one representative candidate per cell pair, so a cell
///    rep's ~s^2 window pairs split about evenly between its u side and
///    its v side -- u-keyed groups are half the size the geometry offers,
///    which starves ball sharing. The anchored rebuild assigns each
///    candidate to ONE of its endpoints by a two-pass hub heuristic: pass
///    1 counts endpoint incidences over the bucket; pass 2, in candidate
///    order, anchors a candidate to an endpoint already serving as a hub
///    when exactly one is (stickiness -- this is what re-merges a cell
///    rep's two sides), otherwise to the higher-incidence endpoint
///    (tie: min id), marking it a hub. O(bucket), deterministic, and a
///    pure function of the bucket's contents -- identical for the serial
///    and parallel paths at any thread count. Distances are symmetric, so
///    a ball seeded at either endpoint decides the candidate; everything
///    downstream asks anchor_of()/other_of() instead of assuming `u`.
class SourceGroups {
public:
    /// Rebuild the grouping for the bucket window `candidates` (the whole
    /// bucket, in serial and parallel runs alike; at most
    /// CandidateStream::kMaxBucket candidates).
    GSP_DECISION_PURE void rebuild(std::span<const GreedyCandidate> candidates,
                                   std::size_t num_vertices, bool anchored = false);

    /// Anchors that have at least one candidate in the current bucket, in
    /// first-appearance order.
    [[nodiscard]] const std::vector<VertexId>& sources() const { return sources_; }

    /// Bucket-local candidate indices anchored at s (ascending). Empty for
    /// vertices that anchor nothing in the current bucket.
    [[nodiscard]] std::span<const std::uint32_t> of(VertexId s) const {
        return {members_.data() + start_[s], count_[s]};
    }

    /// The anchor endpoint of bucket-local candidate `local`, which is `c`
    /// (valid for the bucket of the last rebuild). Classic mode: c.u.
    [[nodiscard]] VertexId anchor_of(std::uint32_t local, const GreedyCandidate& c) const {
        return side_[local] != 0 ? c.v : c.u;
    }

    /// The non-anchor endpoint of candidate c, given its anchor.
    [[nodiscard]] GSP_DECISION_PURE GSP_HOT_PATH static VertexId other_of(
        const GreedyCandidate& c, VertexId anchor) {
        return c.u == anchor ? c.v : c.u;
    }

    /// Largest group size of the last rebuild (the group-size-aware
    /// bootstrap of the engine's probe-vs-point gate keys on it).
    [[nodiscard]] std::size_t max_group_size() const { return max_group_size_; }

    /// Undecided-candidate counter of anchor s; the insertion stage
    /// decrements it as candidates are decided (feeds the probe-vs-point
    /// gate's "remaining peers" signal).
    [[nodiscard]] std::uint32_t remaining(VertexId s) const { return remaining_[s]; }
    void decrement_remaining(VertexId s) { --remaining_[s]; }

private:
    // Per vertex, nonzero only for the current bucket's sources_ (cleared
    // through the previous bucket's list, so no rebuild pays O(n)).
    std::vector<std::uint32_t> start_;      ///< group offset into members_
    std::vector<std::uint32_t> count_;      ///< group size
    std::vector<std::uint32_t> remaining_;  ///< undecided members
    // Per bucket-local candidate.
    std::vector<std::uint32_t> members_;  ///< every group, back to back
    std::vector<std::uint8_t> side_;      ///< 1 iff the anchor is the candidate's v
    std::vector<VertexId> sources_;
    std::vector<std::uint32_t> degree_;  ///< pass-1 incidence counts (lazily cleared)
    std::vector<std::uint8_t> is_hub_;   ///< pass-2 hub marks (lazily cleared)
    std::vector<VertexId> touched_;      ///< vertices with nonzero degree_/is_hub_
    std::size_t max_group_size_ = 0;
};

}  // namespace gsp
