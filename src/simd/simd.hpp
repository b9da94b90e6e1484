// The batched 2D distance loop of the grid's window scans.
//
// distances2d is mul/add/sqrt, each correctly rounded per IEEE-754, so
// its outputs are bitwise EuclideanMetric::distance on the same
// coordinates PROVIDED no FMA contraction sneaks in -- the build compiles
// with -ffp-contract=off for exactly this reason (see CMakeLists.txt).
// The candidate tie order and the consistency of the engine's A*
// heuristic both rest on that equality.
#pragma once

#include <cstddef>

namespace gsp::simd {

/// out[i] = sqrt((ax[i]-bx[i])^2 + (ay[i]-by[i])^2) for i in [0, n):
/// n 2D Euclidean distances per call, bitwise equal to
/// EuclideanMetric::distance on the same coordinates.
void distances2d(const double* ax, const double* ay, const double* bx, const double* by,
                 std::size_t n, double* out);

/// Kept for perfbench only, which times distances2d through this table:
/// the library calls simd::distances2d directly.
struct Kernels {
    void (*distances2d)(const double* ax, const double* ay, const double* bx,
                        const double* by, std::size_t n, double* out);
};

/// Kept for perfbench only: the table holding simd::distances2d.
[[nodiscard]] const Kernels& auto_kernels();

}  // namespace gsp::simd
