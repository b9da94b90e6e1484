// Golden fixture for gsp-no-fma: an explicit fused multiply-add inside a
// GSP_DECISION_PURE function. A contracted arm rounds once where the
// per-pair distance rounds twice, breaking batched == per-pair bit-identity.
// Lint-only input; never compiled or linked into any target.
#include <cmath>

#include "util/annotations.hpp"

GSP_DECISION_PURE double fixture_kernel(double a, double b, double c) {
    return std::fma(a, b, c);
}
