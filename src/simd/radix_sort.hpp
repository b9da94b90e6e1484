// Stable (weight, u, v) sort of candidate windows -- the comparison-sort
// replacement for chunk finalization, at a cost that scales with the
// window: O(n) work and O(n) scratch per call, with no fixed cost beyond
// a 256-entry count row per digit.
//
// Key quantization: wkey maps a double to a uint64 such that for NaN-free
// inputs a < b  <=>  wkey(a) < wkey(b) and a == b  <=>  wkey(a) ==
// wkey(b): IEEE-754 doubles of equal sign compare like their payload
// bits, so flipping the sign bit (non-negatives) or all bits (negatives)
// yields a total order matching operator<. The one double pair that
// compares equal with different bit patterns, -0.0 == +0.0, is
// canonicalized to +0.0 before the map, so comparator-equal weights
// always share one wkey.
//
// The sort runs in two stable steps:
//
//   1. Radix on wkey(weight) alone, over only the bits that vary across
//      the input (one xor-reduction finds them; a window of one octave
//      varies in ~53 of the 64). A range larger than the cache is first
//      split by its leading 8 varying bits -- one stable scatter -- and
//      each part recursed on; a range that fits is sorted LSD in 8-bit
//      digits, skipping any digit that is constant anyway.
//   2. Each run of equal weights is ordered by (u, v): skipped when it is
//      already in order, and otherwise sorted by the same radix on the
//      packed key (u << 32) | v.
//
// Every scatter is stable, so step 1 keeps equal weights in input order
// and step 2 keeps equal (u, v) in input order within each run. The
// result is sorted by std::tie(weight, u, v) with ties in input order --
// the permutation std::stable_sort produces with the chunk comparator,
// byte for byte (radix_sort_test asserts this on tie-heavy and
// signed-zero inputs). Ranges of at most kInsertionMax elements are
// insertion-sorted instead, so a small window never pays for a digit
// table.
//
// Distinct weights are the common case (grid windows of Euclidean
// distances), so step 2 is usually one linear scan with no swaps.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/candidate_stream.hpp"
#include "util/annotations.hpp"

namespace gsp::simd {

/// Order-preserving uint64 image of a NaN-free double (sign-magnitude to
/// biased two's-complement); -0.0 canonicalized to +0.0 first so
/// comparator-equal weights share one key.
[[nodiscard]] inline std::uint64_t weight_key(double w) {
    if (w == 0.0) w = 0.0;  // +0.0 and -0.0 collapse to +0.0's bits
    std::uint64_t bits = std::bit_cast<std::uint64_t>(w);
    if (bits >> 63) {
        bits = ~bits;  // negatives: reverse payload order, below positives
    } else {
        bits |= std::uint64_t{1} << 63;  // nonnegatives: above negatives
    }
    return bits;
}

/// Reusable sorter (the ping-pong buffer and the digit histograms persist
/// across calls; the grid stream finalizes one window per call). Scratch
/// is one candidate per input element plus a fixed 8 KiB table.
class CandidateRadixSorter {
public:
    /// Ranges this small (whole inputs, equal-weight runs, radix parts)
    /// are insertion-sorted.
    static constexpr std::size_t kInsertionMax = 48;

    /// Sorts `v` by (weight, u, v) ascending; weights must be NaN-free.
    /// Equal elements keep their input order (full stability).
    GSP_DECISION_PURE void sort(std::span<GreedyCandidate> v);
    void sort(std::vector<GreedyCandidate>& v) { sort(std::span<GreedyCandidate>(v)); }

    /// Buffer footprint (bytes) for memory accounting.
    [[nodiscard]] std::size_t bytes() const;

private:
    std::vector<GreedyCandidate> tmp_;
    std::vector<std::uint32_t> hist_;  ///< one 256-bucket count row per LSD digit
};

}  // namespace gsp::simd
