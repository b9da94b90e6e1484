#include "core/candidate_stream.hpp"

#include <algorithm>
#include <stdexcept>

namespace gsp {

bool CandidateStream::refill() {
    if (exhausted_) return false;
    base_ = cursor_;
    buffer_->clear();
    if (!source_->next_chunk(soft_cap_, *buffer_) || buffer_->empty()) {
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
    last_weight_ = prev;
    have_last_ = true;
    streamed_ += buffer_->size();
    const std::size_t bytes = buffer_->size() * sizeof(GreedyCandidate);
    if (bytes > peak_bytes_) peak_bytes_ = bytes;
    return true;
}

bool CandidateStream::next(CandidateBucket& out) {
    if (cursor_ - base_ >= buffer_->size() && !refill()) return false;
    const std::vector<GreedyCandidate>& buf = *buffer_;
    std::size_t local = cursor_ - base_;
    out.begin = cursor_;
    out.lo = buf[local].weight;
    out.hi = out.lo * bucket_ratio_;
    // A bucket never outlives the resident chunk: a weight class cut by
    // the chunk boundary becomes two buckets, which the engine's
    // decision-preserving bucketing makes harmless.
    while (local < buf.size() && buf[local].weight <= out.hi) ++local;
    out.end = base_ + local;
    cursor_ = out.end;
    return true;
}

GSP_DECISION_PURE void SourceGroups::rebuild(std::span<const GreedyCandidate> candidates,
                                             std::size_t num_vertices, bool anchored) {
    if (groups_.size() < num_vertices) {
        groups_.resize(num_vertices);
        remaining_.resize(num_vertices, 0);
        degree_.resize(num_vertices, 0);
        is_hub_.resize(num_vertices, 0);
    }
    for (VertexId s : sources_) {
        groups_[s].clear();
        remaining_[s] = 0;
    }
    sources_.clear();
    max_group_size_ = 0;
    if (anchor_.size() < candidates.size()) anchor_.resize(candidates.size());

    if (anchored) {
        // Pass 1: endpoint incidences over the bucket (lazily cleared
        // through touched_, so the rebuild stays O(bucket), never O(n)).
        for (VertexId x : touched_) {
            degree_[x] = 0;
            is_hub_[x] = 0;
        }
        touched_.clear();
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            const GreedyCandidate& c = candidates[i];
            if (degree_[c.u]++ == 0) touched_.push_back(c.u);
            if (degree_[c.v]++ == 0) touched_.push_back(c.v);
        }
    }

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
        const auto local = static_cast<std::uint32_t>(i);
        anchor_[local] = a;
        if (groups_[a].empty()) sources_.push_back(a);
        groups_[a].push_back(local);
        ++remaining_[a];
        max_group_size_ = std::max<std::size_t>(max_group_size_, groups_[a].size());
    }
}

}  // namespace gsp
