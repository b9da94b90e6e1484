// The shared engine configuration block.
//
// EngineTuning is declared once: GreedyEngineOptions derives from it (so
// `options.bidirectional` reads flat), and the api layer's BuildOptions
// carries it verbatim as its `engine` section.
//
// Every field here is *decision preserving*: the greedy edge set is
// bit-identical at every setting (the knobs trade work, not output).
//
// Parallelism has two knobs: num_threads and parallel_accept_gate. Stage 2
// always probes a whole weight bucket against the bucket-start spanner, so
// there is no batch width to tune.
// Bucket widths are not a knob either: the candidate stream keeps a
// bucket to one octave [lo, 2 * lo] and widens it to the rest of the
// resident chunk after a bucket that accepted nothing
// (core/candidate_stream.hpp).
#pragma once

#include <cstddef>

namespace gsp {

class MetricSpace;

struct EngineTuning {
    bool bidirectional = true;  ///< meet-in-the-middle point queries
    bool ball_sharing = true;   ///< per-bucket group probes / cell balls + lazy revalidation
    bool csr_snapshot = true;   ///< incremental gap-buffered CSR adjacency

    /// Worker count for the parallel prefilter stage: 1 = fully serial
    /// (the default: buckets flow straight from the candidate stream into
    /// the serialized insertion loop), 0 = hardware concurrency, k =
    /// exactly k workers. Above 1, stage 2 probes each whole weight bucket
    /// against the bucket-start spanner, one task per source group. The
    /// edge set is identical at every value.
    std::size_t num_threads = 1;

    /// Accept-rate boundary for stage 2, keyed on the previous bucket's
    /// measured accept rate (a pure function of the greedy decisions,
    /// hence identical at every thread count): a bucket predicted above
    /// the gate skips stage 2 and goes straight to the serial insertion
    /// loop, because its stage-2 far facts would die on the first
    /// insertion. 1.0 = never predict accept-heavy.
    double parallel_accept_gate = 0.25;

    /// Until the first group probe of a run calibrates the probe-vs-point
    /// cost model, a probe is attempted only for groups with at least
    /// this many undecided candidates. The effective bootstrap threshold
    /// is min(this, the bucket's largest group): a stream whose groups all
    /// sit below the knob still seeds the cost model from its first
    /// full-size group instead of never calibrating. Anchored
    /// (cell-batched) groups take a cell ball once they reach min(this, 4)
    /// members.
    std::size_t ball_share_min_group = 16;

    /// Cell-batched candidate grouping (the grid-streamed reject
    /// amortizer). kOff groups a bucket's candidates by their min-id
    /// endpoint (the PR-1 rule); kOn groups them by a deterministic
    /// two-sided *anchor* endpoint (SourceGroups' hub heuristic), so one
    /// drained ball per grid cell decides every rep candidate the cell
    /// emits into the window -- roughly doubling group sizes on streams
    /// that emit each pair once. kAuto lets the candidate source decide:
    /// GridCandidateSource turns it on (its reps are exactly the hubs the
    /// heuristic elects), everything else keeps the classic rule.
    /// Decision preserving like every other field: anchors only change
    /// which endpoint seeds a probe, and distances are symmetric.
    enum class CellBatching { kAuto, kOn, kOff };
    CellBatching cell_batching = CellBatching::kAuto;

    /// Vector kernel backend for the hot inner loops (the far sweep and
    /// batched relaxation in BatchedProbe, batched 2D distance
    /// evaluation, radix chunk finalization). kAuto runtime-
    /// dispatches to the widest instruction set the CPU reports (AVX2 >
    /// SSE4.2 > scalar); kScalar pins the pure-C++ reference; kForced pins
    /// the widest vector table the build can express even where a future
    /// heuristic might prefer scalar (degrading gracefully to scalar on
    /// non-x86-64 builds). Decision preserving in the strongest sense the
    /// codebase uses: every kernel is bit-exact against its scalar
    /// reference (see src/simd/simd.hpp), so edges, verdicts, AND stats
    /// are identical across backends -- property-tested by
    /// simd_kernel_test.
    enum class SimdBackend { kAuto, kScalar, kForced };
    SimdBackend simd_backend = SimdBackend::kAuto;

    /// Optional goal-direction oracle for the engine's single-target point
    /// probes (group probes stay plain bounded Dijkstra): when set, they
    /// run A* keyed by g + metric(v, target) instead of a blind
    /// (bi)directional sweep, so a probe explores the
    /// ellipse that can still contain a <= threshold path rather than a
    /// disc around each endpoint. Sound whenever every graph edge's
    /// weight dominates the metric distance of its endpoints -- true for
    /// every candidate source here, whose weights *are* metric distances
    /// -- because then any graph path from v to the target is at least
    /// metric(v, target) long (and the heuristic is consistent, so the
    /// distance returned for a reject is exact). The oracle must outlive
    /// the build. Decision preserving in the same sense as
    /// `bidirectional`: only the float-addition order of the pruning test
    /// differs from the one-sided sweep (last-ulp class).
    const MetricSpace* goal_bound = nullptr;

    /// Advisory chunk size (candidates) of the candidate stream: how many
    /// candidates a CandidateChunkSource is asked to append per pull.
    /// Sources may overshoot to finish an atomic generation unit (a
    /// whole-list source hands over its sorted list in one chunk). Must
    /// be >= 1. Chunk boundaries only ever split weight buckets, which is
    /// decision preserving like every other field here.
    std::size_t chunk_soft_cap = 1 << 16;

    /// The naive reference kernel: every optimisation off, one one-sided
    /// distance-limited Dijkstra per candidate. What old-vs-new
    /// equivalence suites compare everything against.
    [[nodiscard]] static EngineTuning naive() {
        EngineTuning t;
        t.bidirectional = false;
        t.ball_sharing = false;
        t.csr_snapshot = false;
        t.num_threads = 1;
        return t;
    }
};

}  // namespace gsp
