#include "core/candidate_stream.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/timer.hpp"

namespace gsp {

bool CandidateStream::refill() {
    if (exhausted_) return false;
    base_ = cursor_;
    buffer_->clear();
    const Timer pull_timer;
    const bool pulled = source_->next_chunk(soft_cap_, *buffer_);
    pull_seconds_ += pull_timer.seconds();
    if (!pulled || buffer_->empty()) {
        exhausted_ = true;
        return false;
    }
    Weight prev = last_weight_;
    bool have_prev = have_last_;
    for (const GreedyCandidate& c : *buffer_) {
        if (have_prev && c.weight < prev) {
            throw std::invalid_argument(
                "CandidateStream: chunk source emitted candidates out of "
                "non-decreasing weight order");
        }
        prev = c.weight;
        have_prev = true;
    }
    // The chunk is sorted, so its last weight gives its largest threshold.
    if (!std::isfinite(stretch_ * prev)) {
        std::ostringstream msg;
        msg << "CandidateStream: stretch " << stretch_ << " times candidate weight " << prev
            << " is not finite";
        throw std::invalid_argument(msg.str());
    }
    last_weight_ = prev;
    have_last_ = true;
    streamed_ += buffer_->size();
    const std::size_t bytes = buffer_->size() * sizeof(GreedyCandidate);
    if (bytes > peak_bytes_) peak_bytes_ = bytes;
    return true;
}

bool CandidateStream::next(CandidateBucket& out, bool widen) {
    if (cursor_ - base_ >= buffer_->size() && !refill()) return false;
    const std::vector<GreedyCandidate>& buf = *buffer_;
    std::size_t local = cursor_ - base_;
    out.begin = cursor_;
    out.lo = buf[local].weight;
    // A bucket never outlives the resident chunk: a bucket cut by the
    // chunk boundary (or by kMaxBucket) becomes two, which the engine's
    // decision-preserving bucketing makes harmless.
    const std::size_t last = local + std::min(buf.size() - local, kMaxBucket);
    if (widen) {
        local = last;
    } else {
        const Weight hi = 2.0 * out.lo;
        ++local;  // the first candidate always joins, so every bucket progresses
        while (local < last && buf[local].weight <= hi) ++local;
    }
    out.end = base_ + local;
    cursor_ = out.end;
    return true;
}

GSP_DECISION_PURE void SourceGroups::rebuild(std::span<const GreedyCandidate> candidates,
                                             std::size_t num_vertices, bool anchored) {
    if (count_.size() < num_vertices) {
        start_.resize(num_vertices, 0);
        count_.resize(num_vertices, 0);
        remaining_.resize(num_vertices, 0);
        degree_.resize(num_vertices, 0);
        is_hub_.resize(num_vertices, 0);
    }
    for (VertexId s : sources_) {
        start_[s] = 0;
        count_[s] = 0;
        remaining_[s] = 0;
    }
    sources_.clear();
    max_group_size_ = 0;
    members_.resize(candidates.size());
    side_.resize(candidates.size());

    if (anchored) {
        // Pass 1: endpoint incidences over the bucket (lazily cleared
        // through touched_, so the rebuild stays O(bucket), never O(n)).
        for (VertexId x : touched_) {
            degree_[x] = 0;
            is_hub_[x] = 0;
        }
        touched_.clear();
        for (const GreedyCandidate& c : candidates) {
            if (degree_[c.u]++ == 0) touched_.push_back(c.u);
            if (degree_[c.v]++ == 0) touched_.push_back(c.v);
        }
    }

    // Count: choose every candidate's anchor and size its group.
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const GreedyCandidate& c = candidates[i];
        VertexId a = c.u;
        if (anchored) {
            // Pass 2: stick to an existing hub when exactly one endpoint
            // is one; otherwise elect the higher-incidence endpoint
            // (tie: min id) and mark it. The stickiness is what re-merges
            // a grid rep's u-side and v-side candidates into one group.
            const bool hu = is_hub_[c.u] != 0;
            const bool hv = is_hub_[c.v] != 0;
            if (hu != hv) {
                a = hu ? c.u : c.v;
            } else {
                a = degree_[c.v] > degree_[c.u] ? c.v : c.u;
                is_hub_[a] = 1;
            }
        }
        side_[i] = a != c.u ? 1 : 0;
        if (count_[a]++ == 0) sources_.push_back(a);
        max_group_size_ = std::max<std::size_t>(max_group_size_, count_[a]);
    }
    // Prefix sum over the bucket's anchors, in first-appearance order.
    std::uint32_t offset = 0;
    for (VertexId s : sources_) {
        start_[s] = offset;
        offset += count_[s];
    }
    // Fill in candidate order, so every group lists ascending indices;
    // remaining_ doubles as the fill cursor and ends equal to count_.
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const VertexId a = side_[i] != 0 ? candidates[i].v : candidates[i].u;
        members_[start_[a] + remaining_[a]++] = static_cast<std::uint32_t>(i);
    }
}

}  // namespace gsp
