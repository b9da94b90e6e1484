// Stage 2 of the greedy pipeline: the parallel reject-only prefilter.
//
// Within one weight bucket every probe of this stage -- the multi-target
// group probe and the bounded (bi)directional point probe -- is
// *read-only* over the bucket-start spanner: the serialized insertion
// loop has not run yet, so the incremental view is immutable for the
// whole stage. That is the structure (after Alewijnse et al.'s bucketed
// greedy, arXiv:1306.4919) that makes candidate prefiltering
// embarrassingly parallel: workers fan out over the bucket's source
// groups (or fixed blocks when ball sharing is off), each with its own
// DijkstraWorkspace, and record per-candidate facts:
//
//  * a path <= threshold found in the bucket-start spanner, a subgraph
//    of every later spanner, marks the candidate witnessed -- it is
//    rejected, permanently;
//  * a probe that exceeds the threshold sets the far bit, "far at bucket
//    start": the insertion loop may accept on it alone while no edge has
//    been inserted since the snapshot (insert_epoch == snapshot_epoch),
//    and decides the candidate exactly otherwise.
//
// The unit of work is a source group of the *whole* bucket, never a
// fixed-width slice of it. Bucket-start facts stay sound for the whole
// bucket, so nothing is gained by probing a fresher spanner mid-bucket,
// and the group is what one probe amortizes over: a 2D all-pairs bucket
// has ~126 candidates per source, where 2048-candidate slices left ~3.6
// and multiplied the probe count twentyfold. The engine skips the stage
// for buckets predicted accept-heavy, whose far bits would die on the
// first insertion, and for buckets that start on an edgeless spanner.
//
// The stage-2 -> stage-3 handoff is deliberately *thin* (the memory-wall
// fix for metric workloads, where m = n^2 candidates): 1 byte + 1 bit per
// candidate of the bucket. The byte is the candidate's CandidateState
// (core/prefilter_kernel.hpp), addressed by the same bucket-local u32
// indices SourceGroups hands out; a task writes only its own group's
// bytes, so the writes need no atomics. The bit is the candidate's
// far-at-snapshot bit in a packed bitset. Bitset words are shared between
// tasks, so far-bit writes are relaxed atomic fetch_or; the final word
// value is an OR of task-owned bits and therefore schedule-independent.
//
// Determinism: tasks are claimed dynamically for load balance, but every
// recorded fact lands in a task-owned slot (groups own disjoint candidate
// index sets and disjoint source slots for ball reuse), and bit ORs
// commute -- so the recorded facts, and therefore the final edge set, are
// independent of scheduling and thread count.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/candidate_stream.hpp"
#include "core/greedy.hpp"
#include "core/prefilter_kernel.hpp"
#include "graph/dijkstra.hpp"
#include "graph/types.hpp"
#include "util/annotations.hpp"
#include "util/thread_pool.hpp"

namespace gsp {

/// Inputs of one bucket's prefilter pass that are independent of the
/// adjacency view type.
struct PrefilterContext {
    /// The bucket's candidates: every index below (groups, state bytes,
    /// verdict bits) is bucket-local, i.e. an index into this span.
    std::span<const GreedyCandidate> candidates;
    /// Grouping by source; null => ball sharing is off, partition the
    /// bucket into fixed blocks and probe each candidate independently.
    const SourceGroups* groups = nullptr;
    double stretch = 1.0;
    bool bidirectional = true;
    /// Ball-reuse scope (the engine's bucket sequence number): a published
    /// ball may only be revalidated by candidates of the same bucket,
    /// whose states its harvest wrote.
    std::uint64_t ball_scope = 0;
    std::uint64_t snapshot_epoch = 0;
};

/// Owns the packed far bitset and per-worker counters. One instance per
/// GreedyEngine, reused across runs.
class PrefilterStage {
public:
    /// Reset the per-worker counters for a run. The kernel gather scratch
    /// is sized here but never shrunk -- resize, not assign, keeps a warm
    /// session's capacities.
    GSP_SERIAL_ONLY void begin_run(std::size_t workers) {
        counters_.assign(workers, WorkerCounters{});
        if (kernels_.size() < workers) kernels_.resize(workers);
    }

    /// Size and zero the far bitset for a bucket of `candidates`
    /// candidates (one bucket-local bit per candidate).
    GSP_SERIAL_ONLY void begin_bucket(std::size_t candidates) {
        far_bits_.assign((candidates + 63) / 64, 0);
    }

    /// Far-bit read for the serialized insertion loop (bucket-local
    /// candidate index). Called strictly after the bucket's fan-out
    /// joined, and no stage-2 task reads a far bit, so a plain read
    /// suffices.
    [[nodiscard]] bool far_at_snapshot(std::size_t local) const {
        return (far_bits_[local >> 6] >> (local & 63)) & 1u;
    }

    /// Current far-bitset footprint (for the handoff byte accounting).
    /// Logical words, not capacities: the counter must be a pure function
    /// of the run, independent of what earlier (larger) runs left behind
    /// in a warm session's buffers.
    [[nodiscard]] std::size_t verdict_bytes() const {
        return far_bits_.size() * sizeof(std::uint64_t);
    }

    /// Fan one whole bucket out over the pool: one task per source group
    /// (or per fixed block without grouping). `state` collects the
    /// witnessed verdicts (bucket-local slots); the ball_*
    /// arrays (source-indexed) record grown balls so the insertion loop's
    /// lazy-revalidation path can reuse them. Worker counters are merged
    /// into `stats` (sums, so the totals are schedule-independent).
    template <class View>
    GSP_SERIAL_ONLY void run_bucket(ThreadPool& pool, DijkstraWorkspacePool& ws_pool, const View& view,
                   const PrefilterContext& ctx, std::vector<CandidateState>& state,
                   std::vector<std::uint64_t>& ball_bucket,
                   std::vector<std::uint64_t>& ball_epoch,
                   std::vector<Weight>& ball_radius, GreedyStats& stats);

private:
    /// Block width of the no-grouping partition: small enough to balance,
    /// big enough that the atomic task cursor is off the hot path. One
    /// 64-bit verdict word per block, so block tasks tend to own whole
    /// words.
    static constexpr std::size_t kBlock = 64;

    // One cache line per worker: the counters are written in the innermost
    // probe loop and must not false-share.
    struct alignas(64) WorkerCounters {
        std::size_t dijkstra_runs = 0;
        std::size_t group_probes = 0;
        std::size_t group_probe_decisions = 0;
        std::size_t group_probe_early_exits = 0;
    };

    /// Set a bucket-local far bit. Words are shared across tasks, so the
    /// write is a relaxed atomic OR (commutative => deterministic; the
    /// bucket's join publishes the result to stage 3).
    GSP_HOT_PATH void set_far(std::size_t local) {
        std::atomic_ref<std::uint64_t> word(far_bits_[local >> 6]);
        word.fetch_or(std::uint64_t{1} << (local & 63), std::memory_order_relaxed);
    }

    template <class View>
    GSP_HOT_PATH void process_group(DijkstraWorkspace& ws, WorkerCounters& wc, const View& view,
                       const PrefilterContext& ctx, std::size_t worker, VertexId source,
                       std::vector<CandidateState>& state,
                       std::vector<std::uint64_t>& ball_bucket,
                       std::vector<std::uint64_t>& ball_epoch,
                       std::vector<Weight>& ball_radius);

    /// One early-exit point query from -> to deciding candidate `local`.
    template <class View>
    GSP_HOT_PATH void point_probe(DijkstraWorkspace& ws, WorkerCounters& wc, const View& view,
                                  const PrefilterContext& ctx, std::uint32_t local,
                                  VertexId from, VertexId to,
                                  std::vector<CandidateState>& state);

    std::vector<std::uint64_t> far_bits_;    ///< probe exceeded threshold at snapshot
    std::vector<WorkerCounters> counters_;
    std::vector<PrefilterKernel> kernels_;   ///< per-worker gather scratch
};

template <class View>
GSP_SERIAL_ONLY void PrefilterStage::run_bucket(
    ThreadPool& pool, DijkstraWorkspacePool& ws_pool,
                               const View& view, const PrefilterContext& ctx,
                               std::vector<CandidateState>& state,
                               std::vector<std::uint64_t>& ball_bucket,
                               std::vector<std::uint64_t>& ball_epoch,
                               std::vector<Weight>& ball_radius, GreedyStats& stats) {
    const std::size_t tasks =
        ctx.groups != nullptr
            ? ctx.groups->sources().size()
            : (ctx.candidates.size() + kBlock - 1) / kBlock;
    pool.run(tasks, [&](std::size_t worker, std::size_t task) {
        DijkstraWorkspace& ws = ws_pool.at(worker);
        WorkerCounters& wc = counters_[worker];
        if (ctx.groups != nullptr) {
            process_group(ws, wc, view, ctx, worker, ctx.groups->sources()[task], state,
                          ball_bucket, ball_epoch, ball_radius);
        } else {
            const std::size_t first = task * kBlock;
            const std::size_t last = std::min(first + kBlock, ctx.candidates.size());
            for (std::size_t i = first; i < last; ++i) {
                const GreedyCandidate& c = ctx.candidates[i];
                point_probe(ws, wc, view, ctx, static_cast<std::uint32_t>(i), c.u, c.v, state);
            }
        }
    });
    for (WorkerCounters& wc : counters_) {
        stats.dijkstra_runs += wc.dijkstra_runs;
        stats.group_probes += wc.group_probes;
        stats.group_probe_decisions += wc.group_probe_decisions;
        stats.group_probe_early_exits += wc.group_probe_early_exits;
        wc = WorkerCounters{};
    }
}

template <class View>
GSP_HOT_PATH void PrefilterStage::process_group(
    DijkstraWorkspace& ws, WorkerCounters& wc,
                                   const View& view, const PrefilterContext& ctx,
                                   std::size_t worker, VertexId source,
                                   std::vector<CandidateState>& state,
                                   std::vector<std::uint64_t>& ball_bucket,
                                   std::vector<std::uint64_t>& ball_epoch,
                                   std::vector<Weight>& ball_radius) {
    const std::span<const std::uint32_t> grp = ctx.groups->of(source);
    const std::span<const GreedyCandidate> cands = ctx.candidates;

    // The batched group probe: one traversal from the shared source
    // carries every undecided member's target and decision radius and
    // terminates the moment the last member is decided. The gate reads
    // only the group's size, so it is schedule-free.
    if (grp.size() >= 2) {
        BatchedProbe& probe = ws.batched();
        const auto is_undecided = [&](std::uint32_t local) {
            return state[local] != CandidateState::kWitnessed;
        };
        const PrefilterKernel::Outcome outcome = kernels_[worker].decide_group(
            probe, view, source, cands, grp, ctx.stretch, is_undecided,
            state, [&](std::uint32_t local) { set_far(local); });
        ++wc.dijkstra_runs;
        ++wc.group_probes;
        wc.group_probe_decisions += outcome.probed;
        if (outcome.early_exit) ++wc.group_probe_early_exits;
        // The frontier doubles as a published ball for the insertion
        // loop's lazy revalidation, valid out to the certified radius.
        ball_bucket[source] = ctx.ball_scope;
        ball_epoch[source] = ctx.snapshot_epoch;
        ball_radius[source] = outcome.certified_radius;
        return;
    }

    // A single member: nothing to amortize, and meet-in-the-middle beats
    // a one-sided traversal.
    const std::uint32_t local = grp.front();
    point_probe(ws, wc, view, ctx, local, source,
                SourceGroups::other_of(cands[local], source), state);
}

template <class View>
GSP_HOT_PATH void PrefilterStage::point_probe(DijkstraWorkspace& ws, WorkerCounters& wc,
                                              const View& view, const PrefilterContext& ctx,
                                              std::uint32_t local, VertexId from, VertexId to,
                                              std::vector<CandidateState>& state) {
    const Weight threshold = ctx.stretch * ctx.candidates[local].weight;
    ++wc.dijkstra_runs;
    const Weight d = ctx.bidirectional ? ws.distance_bidirectional(view, from, to, threshold)
                                       : ws.distance(view, from, to, threshold);
    if (d <= threshold) {
        state[local] = CandidateState::kWitnessed;
    } else {
        set_far(local);
    }
}

}  // namespace gsp
