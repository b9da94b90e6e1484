// The narrow seam between the prefilter and the batched group-probe
// kernel (ROADMAP direction 4's accelerator slot).
//
// Everything that crosses this boundary is plain-old-data in SoA form:
//
//   in:  one source vertex, the group's target vertices and decision
//        radii as two parallel contiguous arrays (radii nondecreasing --
//        free, because group members arrive in weight order);
//   out: one of two verdicts per slot (far bit OR exact distance <=
//        radius) and the completeness radius of the settled frontier.
//
// The contract an alternative backend must honor to slot in here is
// exactly the verdict-bitset contract of core/prefilter_stage.hpp:
//   * a returned distance is the length of a realizable path on the
//     probed view (sound forever as a reject witness);
//   * a far verdict certifies d(source, target) > radius ON THAT VIEW
//     (stage 3 treats it as "far at snapshot": accept-on-certificate only
//     while nothing was inserted since, re-verify otherwise);
//   * the probe settled every vertex out to certified_radius, each at its
//     exact distance (an unsettled target is farther) -- what makes the
//     frontier publishable as a lazily revalidated ball.
// Verdicts must be pure functions of (view, source, targets, radii):
// the stage's determinism argument (schedule-independent edge sets and
// decision stats) rests on it. Nothing in the contract requires a
// sequential traversal -- a wavefront/GPU relaxation that returns exact
// bounded distances satisfies it verbatim.
//
// This class owns only the gather scratch (group member -> SoA slot);
// the traversal state lives in the BatchedProbe the caller passes in
// (one per worker, pooled with its DijkstraWorkspace).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/candidate_stream.hpp"
#include "graph/batched_probe.hpp"
#include "graph/types.hpp"
#include "simd/aligned.hpp"
#include "util/annotations.hpp"

namespace gsp {

/// What the engine knows about one candidate of the current bucket: the
/// per-candidate half of the stage-2 -> stage-3 handoff, one byte each.
/// Every harvested path length was only ever compared with its own
/// candidate's threshold t * w, so the byte keeps the verdict of that
/// comparison instead of the length.
enum class CandidateState : std::uint8_t {
    kOpen = 0,       ///< nothing decided yet
    kWitnessed = 1,  ///< a realizable path <= t * w is known: reject. Sticky
                     ///< (the spanner only grows); a far mark never overwrites it
    kFar = 2,        ///< a serial group probe certified d > t * w, and no edge
                     ///< was inserted since (each insertion reopens it)
};

class PrefilterKernel {
public:
    struct Outcome {
        std::size_t probed = 0;       ///< members the kernel carried
        std::size_t far_members = 0;  ///< of those, decided far (the rest settled)
        Weight certified_radius = 0.0;
        bool early_exit = false;
    };

    /// Decide every still-undecided member of `grp` (bucket-local indices
    /// into the bucket window `candidates`, anchored at `source`) with one
    /// batched probe on `view`. `undecided(local)` filters members already
    /// decided upstream (earlier harvests); every carried
    /// member gets one of two verdicts -- a settled member whose distance
    /// is within its radius is marked witnessed in `state[local]`, far
    /// members are reported through `mark_far(local)` (the caller owns the
    /// far encoding: stage 2 sets far bits; the serial loop sets the far
    /// state and folds the verdict into its accept flag).
    template <class View, class Undecided, class FarSink>
    GSP_DECISION_PURE GSP_HOT_PATH Outcome decide_group(BatchedProbe& probe, const View& view, VertexId source,
                         std::span<const GreedyCandidate> candidates,
                         std::span<const std::uint32_t> grp, double stretch,
                         Undecided&& undecided, std::vector<CandidateState>& state,
                         FarSink&& mark_far) {
        Outcome out;
        locals_.clear();
        targets_.clear();
        radii_.clear();
        for (const std::uint32_t local : grp) {
            if (!undecided(local)) continue;
            const GreedyCandidate& c = candidates[local];
            locals_.push_back(local);
            targets_.push_back(SourceGroups::other_of(c, source));
            radii_.push_back(stretch * c.weight);
        }
        if (locals_.empty()) return out;

        probe.run(view, source, targets_, radii_);

        for (std::size_t j = 0; j < locals_.size(); ++j) {
            const std::uint32_t local = locals_[j];
            if (probe.target_far(j)) {
                mark_far(local);
                ++out.far_members;
            } else if (probe.target_bound(j) <= radii_[j]) {
                state[local] = CandidateState::kWitnessed;
            }
        }
        out.probed = locals_.size();
        out.certified_radius = probe.certified_radius();
        out.early_exit = probe.early_exit();
        return out;
    }

private:
    std::vector<std::uint32_t> locals_;
    std::vector<VertexId> targets_;
    simd::AlignedVector<Weight> radii_;  ///< the probe's far-sweep operand
};

}  // namespace gsp
