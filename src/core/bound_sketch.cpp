#include "core/bound_sketch.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace gsp {

void BoundSketch::reset(std::size_t n, std::size_t ways) {
    if (ways == 0 || (ways & (ways - 1)) != 0) {
        throw std::invalid_argument("BoundSketch: ways must be a power of two >= 1");
    }
    ways_ = ways;
    const std::size_t slots = n * ways_;
    src_.assign(slots, kNoVertex);
    ub_.assign(slots, kInfiniteWeight);
    lo_.assign(slots, 0.0);
    lo_epoch_.assign(slots, 0);
}

std::size_t BoundSketch::slot_for_write(VertexId src, VertexId x) {
    const std::size_t s = slot(x, src);
    if (src_[s] != src) {
        // Deterministic eviction: the newest source owning this way wins.
        src_[s] = src;
        ub_[s] = kInfiniteWeight;
        lo_[s] = 0.0;
        lo_epoch_[s] = 0;
    }
    return s;
}

GSP_SERIAL_ONLY void BoundSketch::record_exact(VertexId src, VertexId x, Weight d,
                                               std::uint64_t epoch) {
    const std::size_t s = slot_for_write(src, x);
    ub_[s] = std::min(ub_[s], d);
    if (epoch > lo_epoch_[s]) {
        lo_epoch_[s] = epoch;
        lo_[s] = d;
    } else if (epoch == lo_epoch_[s]) {
        lo_[s] = std::max(lo_[s], d);
    }
}

GSP_SERIAL_ONLY void BoundSketch::record_far(VertexId src, VertexId x, Weight lo,
                                             std::uint64_t epoch) {
    const std::size_t s = slot_for_write(src, x);
    if (epoch > lo_epoch_[s]) {
        lo_epoch_[s] = epoch;
        lo_[s] = lo;
    } else if (epoch == lo_epoch_[s]) {
        lo_[s] = std::max(lo_[s], lo);
    }
}

GSP_SERIAL_ONLY void BoundSketch::record_upper(VertexId src, VertexId x, Weight ub) {
    const std::size_t s = slot_for_write(src, x);
    ub_[s] = std::min(ub_[s], ub);
}

GSP_DECISION_PURE GSP_HOT_PATH Weight BoundSketch::upper_bound(VertexId u,
                                                               VertexId v) const {
    Weight best = kInfiniteWeight;
    const std::size_t a = slot(v, u);
    if (src_[a] == u) best = ub_[a];
    const std::size_t b = slot(u, v);
    if (src_[b] == v) best = std::min(best, ub_[b]);
    return best;
}

GSP_DECISION_PURE GSP_HOT_PATH Weight BoundSketch::via_upper_bound(
    VertexId u, VertexId v) const {
    Weight best = kInfiniteWeight;
    // u's ways each name one landmark src with ub(src, u); the matching
    // way of v (same low bits of src) holds v's record of the same
    // landmark iff the sources agree. One vector load + compare per block
    // finds the agreeing ways; the ub lanes are only read for matches.
    // (min is order-independent for the NaN-free bounds stored here, so
    // the lane-order walk returns exactly the scalar loop's minimum.)
    const std::size_t ubase = static_cast<std::size_t>(u) * ways_;
    const std::size_t vbase = static_cast<std::size_t>(v) * ways_;
    std::size_t w = 0;
    while (w < ways_) {
        const std::size_t blk = std::min(ways_ - w, simd::kMaxLanes);
        std::uint32_t mask = simd_->match_pairs(src_.data() + ubase + w,
                                                src_.data() + vbase + w, blk,
                                                kNoVertex);
        while (mask != 0) {
            const unsigned j = static_cast<unsigned>(std::countr_zero(mask));
            mask &= mask - 1;
            const Weight au = ub_[ubase + w + j];
            const Weight av = ub_[vbase + w + j];
            if (au == kInfiniteWeight || av == kInfiniteWeight) continue;
            best = std::min(best, au + av);
        }
        w += blk;
    }
    return best;
}

GSP_DECISION_PURE GSP_HOT_PATH Weight BoundSketch::lower_bound_at(
    VertexId u, VertexId v, std::uint64_t epoch) const {
    Weight best = 0.0;
    const std::size_t a = slot(v, u);
    if (src_[a] == u && lo_epoch_[a] == epoch) best = lo_[a];
    const std::size_t b = slot(u, v);
    if (src_[b] == v && lo_epoch_[b] == epoch) best = std::max(best, lo_[b]);
    return best;
}

}  // namespace gsp
