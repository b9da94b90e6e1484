#include "simd/radix_sort.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <tuple>
#include <type_traits>
#include <utility>

namespace gsp::simd {

// The scatter moves candidates by assignment and the final un-ping-pong by
// memcpy; both assume the packed 16-byte layout.
static_assert(sizeof(GreedyCandidate) == 16 &&
                  std::is_trivially_copyable_v<GreedyCandidate>,
              "GreedyCandidate layout drifted: radix scatter assumptions");

namespace {

constexpr unsigned kDigitBits = 8;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
constexpr std::uint64_t kDigitMask = kBuckets - 1;
constexpr unsigned kMaxDigits = 64 / kDigitBits;
/// Ranges up to this many candidates (256 KiB) are sorted LSD, in cache;
/// larger ones are first split by their leading digit.
constexpr std::size_t kLsdMax = 16384;

bool tie_less(const GreedyCandidate& a, const GreedyCandidate& b) {
    return std::tie(a.weight, a.u, a.v) < std::tie(b.weight, b.u, b.v);
}

bool pair_less(const GreedyCandidate& a, const GreedyCandidate& b) {
    return std::tie(a.u, a.v) < std::tie(b.u, b.v);
}

/// Stable insertion sort of a[0, n) under `less`.
template <class Less>
void insertion_sort(GreedyCandidate* a, std::size_t n, Less less) {
    for (std::size_t i = 1; i < n; ++i) {
        const GreedyCandidate x = a[i];
        std::size_t j = i;
        for (; j > 0 && less(x, a[j - 1]); --j) a[j] = a[j - 1];
        a[j] = x;
    }
}

/// The bits of key(a[i]) that vary across a[0, n), as a mask-width:
/// every key agrees with key(a[0]) above bit_width(...).
template <class Key>
unsigned varying_bits(const GreedyCandidate* a, std::size_t n, Key key) {
    const std::uint64_t first = key(a[0]);
    std::uint64_t varying = 0;
    for (std::size_t i = 1; i < n; ++i) varying |= key(a[i]) ^ first;
    return static_cast<unsigned>(std::bit_width(varying));
}

/// Stable LSD radix sort of a[0, n) by the low `bits` bits of key(a[i])
/// (the higher ones agree), ping-ponging through `tmp` (>= n slots). A
/// digit that is constant anyway is skipped: its stable scatter is the
/// identity. `hist` holds kMaxDigits rows.
template <class Key>
void lsd_sort(GreedyCandidate* a, GreedyCandidate* tmp, std::size_t n, unsigned bits, Key key,
              std::uint32_t* hist) {
    const unsigned digits = (bits + kDigitBits - 1) / kDigitBits;
    std::fill(hist, hist + digits * kBuckets, 0u);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t k = key(a[i]);
        for (unsigned d = 0; d < digits; ++d) {
            ++hist[d * kBuckets + ((k >> (d * kDigitBits)) & kDigitMask)];
        }
    }
    const std::uint64_t first = key(a[0]);
    GreedyCandidate* src = a;
    GreedyCandidate* dst = tmp;
    for (unsigned d = 0; d < digits; ++d) {
        std::uint32_t* h = hist + d * kBuckets;
        const unsigned shift = d * kDigitBits;
        if (h[(first >> shift) & kDigitMask] == n) continue;
        // Exclusive prefix sum in place: h[b] becomes bucket b's cursor.
        std::uint32_t sum = 0;
        for (std::size_t b = 0; b < kBuckets; ++b) {
            const std::uint32_t count = h[b];
            h[b] = sum;
            sum += count;
        }
        for (std::size_t i = 0; i < n; ++i) {
            dst[h[(key(src[i]) >> shift) & kDigitMask]++] = src[i];
        }
        std::swap(src, dst);
    }
    if (src != a) std::memcpy(a, src, n * sizeof(GreedyCandidate));
}

/// Stable radix sort of a[0, n) by key(a[i]). A range too large for the
/// cache is split by its leading varying digit -- one stable scatter
/// into `tmp` and back -- and each part recursed on, so every LSD pass
/// runs on a cache-resident range instead of streaming the whole array.
template <class Key>
void radix_sort(GreedyCandidate* a, GreedyCandidate* tmp, std::size_t n, Key key,
                std::uint32_t* hist) {
    const auto less = [&](const GreedyCandidate& x, const GreedyCandidate& y) {
        return key(x) < key(y);
    };
    if (n <= CandidateRadixSorter::kInsertionMax) {
        insertion_sort(a, n, less);
        return;
    }
    const unsigned bits = varying_bits(a, n, key);
    if (bits == 0) return;
    if (n <= kLsdMax) {
        lsd_sort(a, tmp, n, bits, key, hist);
        return;
    }
    const unsigned shift = bits > kDigitBits ? bits - kDigitBits : 0;
    std::size_t start[kBuckets + 1] = {};
    for (std::size_t i = 0; i < n; ++i) ++start[((key(a[i]) >> shift) & kDigitMask) + 1];
    for (std::size_t b = 0; b < kBuckets; ++b) start[b + 1] += start[b];
    std::size_t cursor[kBuckets];
    std::copy(start, start + kBuckets, cursor);
    for (std::size_t i = 0; i < n; ++i) tmp[cursor[(key(a[i]) >> shift) & kDigitMask]++] = a[i];
    std::memcpy(a, tmp, n * sizeof(GreedyCandidate));
    for (std::size_t b = 0; b < kBuckets; ++b) {
        if (start[b + 1] - start[b] > 1) {
            radix_sort(a + start[b], tmp + start[b], start[b + 1] - start[b], key, hist);
        }
    }
}

}  // namespace

GSP_DECISION_PURE void CandidateRadixSorter::sort(std::span<GreedyCandidate> v) {
    const std::size_t n = v.size();
    GreedyCandidate* a = v.data();
    if (n <= kInsertionMax) {
        insertion_sort(a, n, tie_less);
        return;
    }
    if (tmp_.size() < n) {
        tmp_.reserve(n);  // exactly one window: resize alone may double
        tmp_.resize(n);
    }
    if (hist_.empty()) hist_.resize(kMaxDigits * kBuckets);

    // Step 1: stable by weight.
    radix_sort(a, tmp_.data(), n, [](const GreedyCandidate& c) { return weight_key(c.weight); },
               hist_.data());

    // Step 2: each equal-weight run stably by (u, v).
    for (std::size_t i = 0; i < n;) {
        std::size_t j = i + 1;
        while (j < n && a[j].weight == a[i].weight) ++j;
        if (j - i > 1 && !std::is_sorted(a + i, a + j, pair_less)) {
            radix_sort(a + i, tmp_.data(), j - i,
                       [](const GreedyCandidate& c) { return (std::uint64_t{c.u} << 32) | c.v; },
                       hist_.data());
        }
        i = j;
    }
}

std::size_t CandidateRadixSorter::bytes() const {
    return tmp_.capacity() * sizeof(GreedyCandidate) +
           hist_.capacity() * sizeof(std::uint32_t);
}

}  // namespace gsp::simd
