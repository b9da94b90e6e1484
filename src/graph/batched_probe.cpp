#include "graph/batched_probe.hpp"

namespace gsp {

void BatchedProbe::resize(std::size_t n) {
    if (n <= dist_.size()) return;
    dist_.resize(n, kInfiniteWeight);
    stamp_.resize(n, 0);
    tgt_stamp_.resize(n, 0);
    tgt_head_.resize(n, kNoSlot);
}

}  // namespace gsp
