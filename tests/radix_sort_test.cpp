// The radix sorter must reproduce std::stable_sort byte for byte (memcmp)
// with the chunk comparator, including tie-heavy and signed-zero weights.
#include "simd/radix_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "core/candidate_stream.hpp"
#include "util/random.hpp"

namespace gsp {
namespace {

constexpr double kDenormal = std::numeric_limits<double>::denorm_min();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(RadixSortTest, RadixSortByteIdenticalToStableSort) {
    Rng rng(53);
    simd::CandidateRadixSorter sorter;
    const auto tie_less = [](const GreedyCandidate& a, const GreedyCandidate& b) {
        return std::tie(a.weight, a.u, a.v) < std::tie(b.weight, b.u, b.v);
    };
    const auto expect_stable_sorted = [&](std::vector<GreedyCandidate> v,
                                          const std::string& label) {
        std::vector<GreedyCandidate> want = v;
        std::stable_sort(want.begin(), want.end(), tie_less);
        sorter.sort(v);
        ASSERT_EQ(v.size(), want.size()) << label;
        // memcmp on a null pointer is undefined even for zero bytes, and an
        // empty vector's data() may be null: skip the compare when empty.
        if (!v.empty()) {
            EXPECT_EQ(0, std::memcmp(v.data(), want.data(), v.size() * sizeof(GreedyCandidate)))
                << label;
        }
    };
    // Tie-heavy adversarial inputs, at sizes around the insertion-sort
    // cut-off, around the in-cache range size, and past 2^17.
    const std::size_t cut = simd::CandidateRadixSorter::kInsertionMax;
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, cut - 1, cut, cut + 1,
          std::size_t{777}, std::size_t{4096}, std::size_t{16384}, std::size_t{16385},
          (std::size_t{1} << 17) + 3}) {
        std::vector<GreedyCandidate> v(n);
        for (std::size_t i = 0; i < n; ++i) {
            v[i].u = static_cast<VertexId>(rng.index(200000));
            v[i].v = static_cast<VertexId>(rng.index(0x7fffffff));
            switch (i % 7) {
                case 0:
                    v[i].weight = 1.5;  // heavy tie plateau
                    break;
                case 1:
                    v[i].weight = 0.0;
                    break;
                case 2:
                    v[i].weight = -0.0;  // must interleave with +0.0 stably
                    break;
                case 3:
                    v[i].weight = kDenormal * static_cast<double>(1 + i % 3);
                    break;
                case 4:
                    v[i].weight = kInf;
                    break;
                default:
                    v[i].weight = rng.uniform01() * 1e6;
            }
        }
        expect_stable_sorted(v, "adversarial n=" + std::to_string(n));
    }
    // Distinct weights of one octave (a grid window), past 2^17.
    {
        std::vector<GreedyCandidate> v((std::size_t{1} << 17) + 11);
        for (GreedyCandidate& c : v) {
            c.u = static_cast<VertexId>(rng.index(100000));
            c.v = static_cast<VertexId>(rng.index(100000));
            c.weight = 3.0 + 3.0 * rng.uniform01();
        }
        expect_stable_sorted(v, "one octave");
    }
    // Input already in (u, v) order, with weights from a small tie set
    // (including both zeros): every equal-weight run arrives in order.
    for (const std::size_t n : {cut + 1, std::size_t{5000}, std::size_t{40000}}) {
        std::vector<GreedyCandidate> v(n);
        const double weights[] = {2.5, 0.0, 1.25, -0.0, 2.5, 7.0};
        for (std::size_t i = 0; i < n; ++i) {
            v[i].u = static_cast<VertexId>(i / 64);
            v[i].v = static_cast<VertexId>(i % 64 + i / 64);
            v[i].weight = weights[rng.index(6)];
        }
        expect_stable_sorted(v, "(u, v)-ordered n=" + std::to_string(n));
    }
    // Fully duplicate tie plateaus: long equal-weight runs with repeated
    // (u, v) keys in scrambled order.
    {
        std::vector<GreedyCandidate> v(30000);
        for (GreedyCandidate& c : v) {
            c.u = static_cast<VertexId>(rng.index(40));
            c.v = static_cast<VertexId>(rng.index(40));
            c.weight = rng.index(3) == 0 ? -0.0 : 0.0;
        }
        expect_stable_sorted(v, "zero plateau");
    }
    // A pre-sorted constant input (the skip-everything path) must survive.
    expect_stable_sorted(std::vector<GreedyCandidate>(100, GreedyCandidate{3, 9, 2.25}), "flat");
}

}  // namespace
}  // namespace gsp
