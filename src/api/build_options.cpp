#include "api/build_options.hpp"

#include <cmath>
#include <stdexcept>

namespace gsp {

void BuildOptions::validate() const {
    // NaN-proof: NaN fails every comparison. An infinite stretch would
    // reject unreachable pairs (inf <= inf) and return a non-spanner.
    if (!(std::isfinite(stretch) && stretch >= 1.0)) {
        throw std::invalid_argument("BuildOptions: stretch must be finite and >= 1");
    }
    if (engine.chunk_soft_cap == 0) {
        throw std::invalid_argument("BuildOptions: engine.chunk_soft_cap must be >= 1");
    }
    if (!(engine.parallel_accept_gate >= 0.0)) {
        throw std::invalid_argument(
            "BuildOptions: engine.parallel_accept_gate must be >= 0");
    }
}

}  // namespace gsp
