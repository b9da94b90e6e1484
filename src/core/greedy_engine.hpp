// The unified high-throughput greedy kernel.
//
// Every greedy entry point in the library -- greedy_spanner (graph inputs),
// greedy_spanner_metric (all-pairs candidates), the approximate-greedy
// simulation (base-spanner candidates), the WSPD-pair source -- is the same
// loop: examine candidate edges in non-decreasing weight order and keep an
// edge iff the growing spanner's distance between its endpoints exceeds
// t * w(e). The api layer (src/api) turns "where the candidates come from"
// into a CandidateSource plug-in; GreedyEngine runs the loop itself, as an
// explicit three-stage pipeline per weight bucket:
//
//   [1] candidate stream   (core/candidate_stream) -- pull the bucket
//       [w, 2 * w] out of the resident candidate chunk (the rest of the
//       chunk after a bucket that accepted nothing) and group its
//       candidates by source (bucket-local indices);
//   [2] bucket-wide probe  (core/prefilter_stage)  -- parallel runs only,
//       and only for buckets predicted reject-heavy (the previous
//       bucket's accept rate at or below parallel_accept_gate): fan the
//       whole bucket's source groups out to a work-stealing worker pool.
//       Each worker owns a DijkstraWorkspace and probes the bucket-start
//       incremental CSR view, recording per-candidate facts in a thin
//       handoff (one bucket-local state byte and one packed far bit per
//       candidate): witnessed rejects and "far at bucket start" bits;
//   [3] insertion loop     -- walks the bucket in deterministic tie order,
//       consumes the recorded facts, and decides everything else with the
//       serial exact machinery (group probes, cell balls, point queries).
//
// Soundness rests on two facts. A stage-2 witness is a realizable path
// within the threshold in the bucket-start spanner, which is a subgraph of
// every later spanner, so a witnessed candidate is rejected for good.
// A far bit is exact on the bucket-start view only, so stage 3 accepts on
// it alone only while insert_epoch == snapshot_epoch (no insertion since
// the bucket began) and re-decides the candidate otherwise. Every accept
// is therefore exact, and the edge set is bit-identical to the naive
// kernel at every thread count.
//
// The serial kernel's stacked optimisations (bidirectional, ball_sharing,
// csr_snapshot -- see core/engine_tuning.hpp) are individually toggleable
// for the ablation benches and *decision preserving*: every configuration
// returns the same edge set. Every fact the engine keeps about a candidate
// is bucket-local; nothing is cached across buckets.
//
// Resource model: the thread pool and the per-worker workspace pool are the
// expensive part of an engine. They live in an EngineResources, which a
// GreedyEngine either owns privately (the one-shot entry points) or borrows
// from a SpannerSession (src/api/session) that keeps them warm across many
// build() calls -- the request-serving path, where a warm build pays zero
// pool/workspace construction (counter-verified by the session-reuse bench
// probe).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/candidate_stream.hpp"
#include "core/engine_tuning.hpp"
#include "core/greedy.hpp"
#include "core/prefilter_kernel.hpp"
#include "core/prefilter_stage.hpp"
#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"
#include "graph/types.hpp"
#include "util/thread_pool.hpp"

namespace gsp {

/// Engine configuration: the shared tuning block (see engine_tuning.hpp)
/// plus the per-run stretch. Field access is flat
/// (`options.bidirectional`) -- the base class is a layering device, not
/// an indirection.
struct GreedyEngineOptions : EngineTuning {
    double stretch = 2.0;  ///< t >= 1
};

/// The heavy, reusable half of a greedy engine: thread pools (cached per
/// worker count), the serial-loop Dijkstra workspace, the per-worker
/// workspace pool, and every per-run scratch vector. Construction
/// counters certify the warm path: a SpannerSession owns one
/// EngineResources across builds, and repeat builds construct zero pools
/// and zero workspaces.
class EngineResources {
public:
    /// A pool with exactly `workers` workers (>= 2): the cached instance
    /// when one of that size exists, otherwise constructed (and counted)
    /// and kept for the lifetime of the resources. Distinct sizes coexist
    /// so heterogeneous builds in one session each stay warm.
    [[nodiscard]] ThreadPool& acquire_pool(std::size_t workers);

    /// Thread pools constructed through acquire_pool so far.
    [[nodiscard]] std::size_t pools_constructed() const { return pools_constructed_; }

    /// Dijkstra workspaces constructed so far (the serial-loop workspace
    /// plus the per-worker pool's entries).
    [[nodiscard]] std::size_t workspaces_constructed() const {
        return 1 + ws_pool_.created();
    }

    /// The per-worker workspace pool (analysis/audit's pool overloads
    /// accept it directly, so audits in a session pay no allocation).
    [[nodiscard]] DijkstraWorkspacePool& workspace_pool() { return ws_pool_; }

private:
    friend class GreedyEngine;

    std::vector<std::unique_ptr<ThreadPool>> pools_;  ///< one per distinct size
    std::size_t pools_constructed_ = 0;

    DijkstraWorkspace ws_;             ///< the insertion loop's workspace
    DijkstraWorkspacePool ws_pool_;    ///< one workspace per stage-2 worker
    PrefilterStage prefilter_stage_;   ///< stage-2 far bitset + counters
    SourceGroups groups_;              ///< stage-1 per-bucket grouping
    PrefilterKernel prefilter_kernel_; ///< serial-loop group-probe marshalling scratch

    // Ball-sharing / prefilter scratch, reused across runs. Groups are
    // cleared lazily so a bucket costs O(its candidates), not O(n).
    std::vector<CandidateState> state_;      ///< bucket-local candidate states
    std::vector<std::uint32_t> far_list_;    ///< members marked far since the last insertion
    std::vector<std::uint64_t> ball_bucket_; ///< ball-reuse scope (bucket seq) per source
    std::vector<std::uint64_t> ball_epoch_;  ///< insert epoch of last ball
    std::vector<Weight> ball_radius_;        ///< radius of last ball
};

/// The shared greedy kernel. `run` may be called repeatedly; with the
/// borrowed-resources constructor the engine itself is a cheap per-build
/// object and every expensive allocation lives in the session.
class GreedyEngine {
public:
    /// Owns a private EngineResources (the one-shot entry points).
    GreedyEngine(std::size_t n, GreedyEngineOptions options);

    /// Borrows `resources` (a SpannerSession's): pools and workspaces are
    /// acquired from the shared cache, so repeat constructions are free.
    /// `resources` must outlive the engine.
    GreedyEngine(std::size_t n, GreedyEngineOptions options, EngineResources& resources);

    /// Run the greedy loop over `source`, drained chunk by chunk through
    /// `buffer` (the caller-owned reusable chunk buffer -- a session passes
    /// its own). The source must honor the CandidateChunkSource ordering
    /// contract (validated as chunks arrive; violations throw); the engine
    /// preserves its tie order. Decisions are appended to `h`, which
    /// carries any pre-seeded edges (the approximate-greedy E0 set);
    /// returns the final spanner. The edge set is the same at every chunk
    /// size and thread count. `*stats` is overwritten with this run's
    /// counters (never additive).
    GSP_SERIAL_ONLY Graph run(Graph h, CandidateChunkSource& source,
                              std::vector<GreedyCandidate>& buffer,
                              GreedyStats* stats = nullptr);

    [[nodiscard]] const GreedyEngineOptions& options() const { return options_; }

private:
    void init();  ///< shared constructor tail: validation + pool acquisition

    template <class Adapter>
    GSP_DECISION_PURE GSP_SERIAL_ONLY Graph run_impl(Adapter& adapter, Graph h,
                                                     CandidateStream& feed,
                                                     GreedyStats& stats);

    [[nodiscard]] bool parallel_enabled() const { return pool_ != nullptr; }

    GreedyEngineOptions options_;
    std::size_t n_;
    std::size_t workers_ = 1;

    std::unique_ptr<EngineResources> owned_;  ///< set by the owning constructor
    EngineResources* res_;                    ///< owned or borrowed
    ThreadPool* pool_ = nullptr;              ///< stage-2 executor (workers_ > 1)
};

/// The kernel table a run with the given SimdBackend knob executes:
/// kScalar pins the reference table, kAuto and kForced both resolve to
/// the widest table the CPU supports (kForced differs only in *intent* --
/// it is the property-test knob asserting "I expect vector lanes", and
/// degrades to scalar gracefully off x86-64). Resolved once per run;
/// every probe and grid consumer is handed the same table.
[[nodiscard]] const simd::Kernels& resolve_simd_kernels(EngineTuning::SimdBackend backend);

/// The candidate list of a graph input: all edges of g sorted by
/// (weight, min endpoint, max endpoint, edge id) -- the deterministic tie
/// order the naive kernel has always used. The appending form writes into
/// the caller's buffer (the session's reused chunk buffer: no per-build
/// allocation on the warm path); the value form allocates.
void append_sorted_graph_candidates(const Graph& g, std::vector<GreedyCandidate>& out);
std::vector<GreedyCandidate> sorted_graph_candidates(const Graph& g);

}  // namespace gsp
