#include "api/build_options.hpp"

#include <stdexcept>

namespace gsp {

void BuildOptions::validate() const {
    if (!(stretch >= 1.0)) {  // NaN-proof: NaN fails every comparison
        throw std::invalid_argument("BuildOptions: stretch must be >= 1");
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
