// Kernel tables: one pure-scalar reference plus SSE4.2 / AVX2 editions
// compiled via per-function target attributes, so a baseline -march build
// still carries (and runtime-dispatches to) the wide code paths.
//
// This file is compiled with -ffp-contract=off (project-wide on the gsp
// library): the scalar reference's dx*dx + dy*dy must never be contracted
// into an FMA, or the "bitwise equal to EuclideanMetric::distance"
// contract -- and with it kScalar-vs-kAuto bit-identity -- would break
// on FMA-capable -march settings.
#include "simd/simd.hpp"

#include "util/annotations.hpp"

#include <bit>
#include <cmath>
#include <cstddef>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define GSP_SIMD_X86 1
#include <immintrin.h>
#else
#define GSP_SIMD_X86 0
#endif

namespace gsp::simd {

// The relax kernel gathers weights as doubles at stride 3 from the
// HalfEdge array; pin the layout it assumes.
static_assert(sizeof(HalfEdge) == 24, "HalfEdge layout drifted: relax gather stride");
static_assert(offsetof(HalfEdge, weight) == 8,
              "HalfEdge layout drifted: relax gather offset");
static_assert(sizeof(Weight) == 8, "kernel lane widths assume 8-byte weights");

namespace {

// ---------------------------------------------------------------- scalar

GSP_DECISION_PURE GSP_HOT_PATH std::size_t sweep_scalar(
    const double* keys, std::size_t begin, std::size_t end, double d) {
    std::size_t i = begin;
    while (i < end && keys[i] < d) ++i;
    return i;
}

GSP_DECISION_PURE GSP_HOT_PATH void distances2d_scalar(
    const double* ax, const double* ay, const double* bx, const double* by,
    std::size_t n, double* out) {
    for (std::size_t i = 0; i < n; ++i) {
        const double dx = ax[i] - bx[i];
        const double dy = ay[i] - by[i];
        out[i] = std::sqrt(dx * dx + dy * dy);
    }
}

GSP_DECISION_PURE GSP_HOT_PATH std::uint32_t relax_scalar(
    const HalfEdge* half, std::size_t n, double d,
                           double limit, double* nd) {
    std::uint32_t mask = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double v = d + half[i].weight;
        nd[i] = v;
        if (v <= limit) mask |= 1u << i;
    }
    return mask;
}

constexpr Kernels kScalarTable = {
    Backend::kScalar, &sweep_scalar, &distances2d_scalar, &relax_scalar,
};

#if GSP_SIMD_X86

// ---------------------------------------------------------------- sse4.2
// 128-bit lanes: 2 doubles per op. Every op here is SSE2-era, but
// the table is gated on (and named for) the SSE4.2 dispatch tier.

GSP_DECISION_PURE GSP_HOT_PATH __attribute__((target("sse4.2"))) std::size_t
sweep_sse42(const double* keys,
                                                          std::size_t begin,
                                                          std::size_t end, double d) {
    std::size_t i = begin;
    const __m128d vd = _mm_set1_pd(d);
    for (; i + 2 <= end; i += 2) {
        const __m128d k = _mm_loadu_pd(keys + i);
        const int m = _mm_movemask_pd(_mm_cmplt_pd(k, vd));
        if (m != 0x3) {
            return i + static_cast<std::size_t>(
                           std::countr_one(static_cast<unsigned>(m)));
        }
    }
    for (; i < end; ++i) {
        if (!(keys[i] < d)) return i;
    }
    return end;
}

GSP_DECISION_PURE GSP_HOT_PATH __attribute__((target("sse4.2"))) void
distances2d_sse42(const double* ax,
                                                         const double* ay,
                                                         const double* bx,
                                                         const double* by,
                                                         std::size_t n, double* out) {
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const __m128d dx = _mm_sub_pd(_mm_loadu_pd(ax + i), _mm_loadu_pd(bx + i));
        const __m128d dy = _mm_sub_pd(_mm_loadu_pd(ay + i), _mm_loadu_pd(by + i));
        const __m128d s = _mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy));
        _mm_storeu_pd(out + i, _mm_sqrt_pd(s));
    }
    for (; i < n; ++i) {
        const double dx = ax[i] - bx[i];
        const double dy = ay[i] - by[i];
        out[i] = std::sqrt(dx * dx + dy * dy);
    }
}

GSP_DECISION_PURE GSP_HOT_PATH __attribute__((target("sse4.2"))) std::uint32_t
relax_sse42(const HalfEdge* half,
                                                            std::size_t n, double d,
                                                            double limit, double* nd) {
    std::uint32_t mask = 0;
    std::size_t i = 0;
    const __m128d vd = _mm_set1_pd(d);
    const __m128d vlim = _mm_set1_pd(limit);
    for (; i + 2 <= n; i += 2) {
        const __m128d w = _mm_set_pd(half[i + 1].weight, half[i].weight);
        const __m128d vnd = _mm_add_pd(vd, w);
        _mm_storeu_pd(nd + i, vnd);
        mask |= static_cast<std::uint32_t>(
                    _mm_movemask_pd(_mm_cmple_pd(vnd, vlim)))
                << i;
    }
    for (; i < n; ++i) {
        const double v = d + half[i].weight;
        nd[i] = v;
        if (v <= limit) mask |= 1u << i;
    }
    return mask;
}

constexpr Kernels kSse42Table = {
    Backend::kSSE42, &sweep_sse42, &distances2d_sse42, &relax_sse42,
};

// ----------------------------------------------------------------- avx2
// 256-bit lanes: 4 doubles per op; weights gathered at
// double-stride 3 straight out of the HalfEdge array.

GSP_DECISION_PURE GSP_HOT_PATH __attribute__((target("avx2"))) std::size_t
sweep_avx2(const double* keys,
                                                       std::size_t begin,
                                                       std::size_t end, double d) {
    std::size_t i = begin;
    const __m256d vd = _mm256_set1_pd(d);
    for (; i + 4 <= end; i += 4) {
        const __m256d k = _mm256_loadu_pd(keys + i);
        const int m = _mm256_movemask_pd(_mm256_cmp_pd(k, vd, _CMP_LT_OQ));
        if (m != 0xf) {
            return i + static_cast<std::size_t>(
                           std::countr_one(static_cast<unsigned>(m)));
        }
    }
    for (; i < end; ++i) {
        if (!(keys[i] < d)) return i;
    }
    return end;
}

GSP_DECISION_PURE GSP_HOT_PATH __attribute__((target("avx2"))) void
distances2d_avx2(const double* ax,
                                                      const double* ay,
                                                      const double* bx,
                                                      const double* by,
                                                      std::size_t n, double* out) {
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d dx =
            _mm256_sub_pd(_mm256_loadu_pd(ax + i), _mm256_loadu_pd(bx + i));
        const __m256d dy =
            _mm256_sub_pd(_mm256_loadu_pd(ay + i), _mm256_loadu_pd(by + i));
        const __m256d s =
            _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
        _mm256_storeu_pd(out + i, _mm256_sqrt_pd(s));
    }
    for (; i < n; ++i) {
        const double dx = ax[i] - bx[i];
        const double dy = ay[i] - by[i];
        out[i] = std::sqrt(dx * dx + dy * dy);
    }
}

GSP_DECISION_PURE GSP_HOT_PATH __attribute__((target("avx2"))) std::uint32_t
relax_avx2(const HalfEdge* half,
                                                         std::size_t n, double d,
                                                         double limit, double* nd) {
    std::uint32_t mask = 0;
    std::size_t i = 0;
    const double* base = reinterpret_cast<const double*>(half);
    const __m256d vd = _mm256_set1_pd(d);
    const __m256d vlim = _mm256_set1_pd(limit);
    // weight of edge e lives at double-offset 3e + 1 (static_asserts above).
    const __m128i step = _mm_setr_epi32(1, 4, 7, 10);
    for (; i + 4 <= n; i += 4) {
        const __m128i idx =
            _mm_add_epi32(step, _mm_set1_epi32(static_cast<int>(3 * i)));
        // All-ones-masked gather: same instruction as the plain form, but
        // with an explicit (zero) pass-through source -- GCC's unmasked
        // wrapper feeds the builtin an uninitialized source and trips
        // -Wmaybe-uninitialized.
        const __m256d w = _mm256_mask_i32gather_pd(
            _mm256_setzero_pd(), base, idx,
            _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
        const __m256d vnd = _mm256_add_pd(vd, w);
        _mm256_storeu_pd(nd + i, vnd);
        mask |= static_cast<std::uint32_t>(
                    _mm256_movemask_pd(_mm256_cmp_pd(vnd, vlim, _CMP_LE_OQ)))
                << i;
    }
    for (; i < n; ++i) {
        const double v = d + half[i].weight;
        nd[i] = v;
        if (v <= limit) mask |= 1u << i;
    }
    return mask;
}

constexpr Kernels kAvx2Table = {
    Backend::kAVX2, &sweep_avx2, &distances2d_avx2, &relax_avx2,
};

#endif  // GSP_SIMD_X86

}  // namespace

const Kernels& scalar_kernels() { return kScalarTable; }

const Kernels& kernels_for(Backend b) {
#if GSP_SIMD_X86
    switch (b) {
        case Backend::kAVX2: return kAvx2Table;
        case Backend::kSSE42: return kSse42Table;
        case Backend::kScalar: break;
    }
#else
    (void)b;
#endif
    return kScalarTable;
}

const Kernels& auto_kernels() {
    static const Kernels& k = kernels_for(detect());
    return k;
}

const char* backend_label(const Kernels& k) { return backend_name(k.backend); }

}  // namespace gsp::simd
