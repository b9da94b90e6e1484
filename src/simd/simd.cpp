// Compiled with -ffp-contract=off (project-wide on the gsp library):
// dx*dx + dy*dy must never be contracted into an FMA, or the "bitwise
// equal to EuclideanMetric::distance" contract would break on FMA-capable
// -march settings.
#include "simd/simd.hpp"

#include "util/annotations.hpp"

#include <cmath>

namespace gsp::simd {

GSP_DECISION_PURE GSP_HOT_PATH void distances2d(const double* ax, const double* ay,
                                                const double* bx, const double* by,
                                                std::size_t n, double* out) {
    for (std::size_t i = 0; i < n; ++i) {
        const double dx = ax[i] - bx[i];
        const double dy = ay[i] - by[i];
        out[i] = std::sqrt(dx * dx + dy * dy);
    }
}

const Kernels& auto_kernels() {
    static constexpr Kernels kTable = {&distances2d};
    return kTable;
}

}  // namespace gsp::simd
