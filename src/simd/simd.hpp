// The portable vector kernel table behind the engine's hot scalar loops.
//
// One struct of function pointers per backend (scalar / SSE4.2 / AVX2),
// selected once per build by runtime dispatch (dispatch.hpp) or pinned by
// EngineTuning::SimdBackend. Call sites hold a `const Kernels*` and stay
// branch-free; the per-function `target` attributes in simd.cpp let one
// binary carry all three tables regardless of its -march.
//
// Every kernel is *bit-exact* against its scalar reference, which is what
// lets the backends swap freely under the engine's decision-preserving
// contract (verdicts are pure functions of FP comparisons, so identical
// floats mean identical verdicts, edges, and stats):
//
//  * sweep_lower_bound and relax_lanes only compare and add -- IEEE adds
//    are deterministic, and the lane order never reassociates a sum;
//  * distances2d is mul/add/sqrt, all correctly rounded per IEEE-754, so
//    vector lanes match scalar evaluation exactly PROVIDED no FMA
//    contraction sneaks into the scalar side -- the build compiles the
//    library with -ffp-contract=off for exactly this reason (see
//    CMakeLists.txt).
//
// Kernels take unaligned pointers (loads are loadu); pair them with
// aligned.hpp storage for the cache-line guarantees, not for correctness.
#pragma once

#include <cstddef>
#include <cstdint>

#include "graph/types.hpp"
#include "simd/dispatch.hpp"

namespace gsp::simd {

/// Widest block the masked kernel (relax_lanes) accepts per call: results
/// are returned in a uint32_t lane mask.
inline constexpr std::size_t kMaxLanes = 32;

struct Kernels {
    Backend backend = Backend::kScalar;

    /// First index i in [begin, end) with keys[i] >= d, or `end` if none.
    /// `keys` must be nondecreasing and NaN-free on [begin, end) -- the
    /// BatchedProbe far sweep's sorted effective radii. Exactly the index
    /// the scalar cursor `while (i < end && keys[i] < d) ++i;` stops at.
    std::size_t (*sweep_lower_bound)(const double* keys, std::size_t begin,
                                     std::size_t end, double d);

    /// out[i] = sqrt((ax[i]-bx[i])^2 + (ay[i]-by[i])^2) for i in [0, n):
    /// n 2D Euclidean distances per call, bitwise equal to
    /// EuclideanMetric::distance on the same coordinates. Broadcast one
    /// endpoint to batch "one source vs n targets".
    void (*distances2d)(const double* ax, const double* ay, const double* bx,
                        const double* by, std::size_t n, double* out);

    /// The BucketQueue drain's batched relaxation: nd[i] = d + half[i].weight
    /// for i in [0, n), returning the lane mask of nd[i] <= limit
    /// (n <= kMaxLanes). Adds are performed in independent lanes -- no
    /// reassociation -- so nd[i] is bitwise the scalar `d + weight`.
    std::uint32_t (*relax_lanes)(const HalfEdge* half, std::size_t n, double d,
                                 double limit, double* nd);
};

/// The always-available pure-C++ reference table.
[[nodiscard]] const Kernels& scalar_kernels();

/// The table for an explicit backend; widths the build cannot express
/// (non-x86-64) degrade to the scalar table.
[[nodiscard]] const Kernels& kernels_for(Backend b);

/// kernels_for(detect()): the runtime-dispatched table, latched once.
[[nodiscard]] const Kernels& auto_kernels();

/// backend_name of the table's actual backend (after any degrade).
[[nodiscard]] const char* backend_label(const Kernels& k);

}  // namespace gsp::simd
