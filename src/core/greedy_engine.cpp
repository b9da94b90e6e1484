#include "core/greedy_engine.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "graph/incremental_csr.hpp"
#include "metric/euclidean.hpp"
#include "metric/metric_space.hpp"
#include "util/timer.hpp"

namespace gsp {

const simd::Kernels& resolve_simd_kernels(EngineTuning::SimdBackend backend) {
    switch (backend) {
        case EngineTuning::SimdBackend::kScalar:
            return simd::scalar_kernels();
        case EngineTuning::SimdBackend::kForced:
            return simd::kernels_for(simd::detect());
        case EngineTuning::SimdBackend::kAuto:
            break;
    }
    return simd::auto_kernels();
}

namespace {

/// The goal oracle handed to the group probe: point queries stay virtual
/// calls, but when BatchedProbe asks for a whole frontier's lower bounds
/// at once (its kBatchGoal path) a 2D Euclidean oracle evaluates them
/// through the vector distance kernel. Bitwise-identical to the scalar
/// loop (see EuclideanMetric::distances_from), so engagement decisions
/// and verdicts are unchanged.
struct ProbeGoalOracle {
    const MetricSpace* m = nullptr;
    const EuclideanMetric* e2 = nullptr;  ///< m downcast, when it is Euclidean
    const simd::Kernels* k = nullptr;

    Weight operator()(VertexId x, VertexId tgt) const { return m->distance(x, tgt); }
    void batch(VertexId x, std::span<const VertexId> targets, Weight* out) const {
        if (e2 != nullptr) {
            e2->distances_from(x, targets, out, *k);
        } else {
            for (std::size_t i = 0; i < targets.size(); ++i) {
                out[i] = m->distance(x, targets[i]);
            }
        }
    }
};

/// Reject radius of the anchored (cell-batched) shared ball, as a factor
/// of the group's heaviest candidate weight. A reject's witness path in
/// the dense grid regime has stretch barely above 1, so draining ~1.3x
/// the heaviest weight settles nearly every reject at a fraction of the
/// area the classic full-threshold radius (stretch * w) pays for; the
/// members it leaves unsettled (accepts, high-stretch rejects) fall
/// through to their own goal-directed point probes. Measured optimum on
/// uniform instances: below ~1.2 the fall-through probes dominate, above
/// ~1.4 the extra drained area buys no further decisions.
constexpr double kCellRejectRadiusFactor = 1.3;

/// Queries run directly on the growing Graph (csr_snapshot off).
struct LiveAdapter {
    const Graph* h = nullptr;
    void snapshot(const Graph& g) { h = &g; }
    static void add_edge(VertexId, VertexId, Weight, EdgeId) {}
    [[nodiscard]] const Graph& view() const { return *h; }
    [[nodiscard]] static std::size_t rebuilds() { return 0; }
    [[nodiscard]] static std::size_t compactions() { return 0; }
};

/// Queries run on the gap-buffered incremental CSR mirror (csr_snapshot
/// on): contiguous per-vertex scans, kept exact at O(degree) per insertion
/// -- "snapshots" after the first build are free no-ops, so a bucket's
/// stage-2 fan-out never pays a refreeze and accept-heavy buckets cost no
/// O(n + m) rebuilds.
struct IncrementalAdapter {
    IncrementalCsrView v;
    void snapshot(const Graph& g) { v.refresh(g); }
    void add_edge(VertexId a, VertexId b, Weight w, EdgeId id) { v.add_edge(a, b, w, id); }
    [[nodiscard]] const IncrementalCsrView& view() const { return v; }
    [[nodiscard]] std::size_t rebuilds() const { return v.rebuilds(); }
    [[nodiscard]] std::size_t compactions() const { return v.compactions(); }
};

/// Measured-cost gate for the prefilter hooks: a calibration window times
/// each (serial) prefilter call and each exact decision of a candidate the
/// prefilter let through, then keeps the prefilter only if the exact work
/// it is expected to save per call exceeds its per-call cost.
struct PrefilterGateState {
    bool live = false;         ///< prefilter hooks still consulted
    bool calibrating = false;  ///< inside the timing window
    std::size_t calls = 0;
    std::size_t rejects = 0;
    std::size_t exact_decisions = 0;
    double prefilter_seconds = 0.0;
    double exact_seconds = 0.0;

    static constexpr std::size_t kWindow = 384;       ///< prefilter-call samples
    static constexpr std::size_t kMinExact = 16;      ///< exact-decision samples
    static constexpr std::size_t kForceSettle = 1536; ///< settle even if starved

    void maybe_settle(GreedyStats& stats) {
        if (calls < kWindow) return;
        if (exact_decisions < kMinExact && calls < kForceSettle) return;
        calibrating = false;
        if (exact_decisions == 0) return;  // everything rejected: clearly paying off
        const double avg_prefilter = prefilter_seconds / static_cast<double>(calls);
        const double avg_exact = exact_seconds / static_cast<double>(exact_decisions);
        const double reject_rate =
            static_cast<double>(rejects) / static_cast<double>(calls);
        // Expected exact seconds saved per call vs seconds spent per call.
        if (avg_prefilter > reject_rate * avg_exact) {
            live = false;
            stats.prefilter_gated_off = 1;
        }
    }
};

}  // namespace

ThreadPool& EngineResources::acquire_pool(std::size_t workers) {
    for (const auto& pool : pools_) {
        if (pool->num_workers() == workers) return *pool;
    }
    pools_.push_back(std::make_unique<ThreadPool>(workers));
    ++pools_constructed_;
    return *pools_.back();
}

GreedyEngine::GreedyEngine(std::size_t n, GreedyEngineOptions options)
    : options_(std::move(options)), n_(n),
      owned_(std::make_unique<EngineResources>()), res_(owned_.get()) {
    init();
}

GreedyEngine::GreedyEngine(std::size_t n, GreedyEngineOptions options,
                           EngineResources& resources)
    : options_(std::move(options)), n_(n), res_(&resources) {
    init();
}

void GreedyEngine::init() {
    if (!(options_.stretch >= 1.0)) {  // NaN-proof: NaN fails every comparison
        throw std::invalid_argument("GreedyEngine: stretch must be >= 1");
    }
    if (!(options_.bucket_ratio > 1.0)) {
        throw std::invalid_argument("GreedyEngine: bucket_ratio must be > 1");
    }
    if (options_.sketch_ways == 0 ||
        (options_.sketch_ways & (options_.sketch_ways - 1)) != 0) {
        throw std::invalid_argument(
            "GreedyEngine: sketch_ways must be a power of two >= 1");
    }
    if (options_.chunk_soft_cap == 0) {
        throw std::invalid_argument("GreedyEngine: chunk_soft_cap must be >= 1");
    }
    workers_ = options_.parallel_prefilter
                   ? ThreadPool::resolve_workers(options_.num_threads)
                   : 1;
    if (workers_ > 1) {
        pool_ = &res_->acquire_pool(workers_);
        // Worker workspaces are sized lazily by run_impl on first use.
    }
}

GSP_SERIAL_ONLY Graph GreedyEngine::run(Graph h, CandidateChunkSource& source,
                                        std::vector<GreedyCandidate>& buffer,
                                        GreedyStats* stats) {
    const Timer timer;
    if (h.num_vertices() != n_) {
        throw std::invalid_argument("GreedyEngine::run: vertex count mismatch");
    }
    // Sortedness is validated incrementally as chunks arrive (the stream
    // throws on a contract violation), including across chunk boundaries.
    GreedyStats local;
    CandidateStream feed(source, buffer, options_.bucket_ratio, options_.chunk_soft_cap);
    Graph out(0);
    if (options_.csr_snapshot) {
        IncrementalAdapter adapter;
        out = run_impl(adapter, std::move(h), feed, local);
    } else {
        LiveAdapter adapter;
        out = run_impl(adapter, std::move(h), feed, local);
    }
    local.seconds = timer.seconds();
    if (stats != nullptr) *stats = local;
    return out;
}

template <class Adapter>
GSP_SERIAL_ONLY Graph GreedyEngine::run_impl(Adapter& adapter, Graph h, CandidateStream& feed,
                                             GreedyStats& stats) {
    // Every expensive array below lives in the (possibly session-shared)
    // resources; a warm build reuses them all. Per-run state is reset
    // explicitly here, so a run's decisions *and stats* are a pure
    // function of (candidates, options) -- identical whether the
    // resources are fresh or warm (the session-equivalence contract).
    EngineResources& res = *res_;
    DijkstraWorkspace& ws = res.ws_;
    DijkstraWorkspacePool& ws_pool = res.ws_pool_;
    PrefilterStage& prefilter_stage = res.prefilter_stage_;
    SourceGroups& groups = res.groups_;
    BoundSketch& sketch = res.sketch_;
    std::vector<Weight>& bound = res.bound_;
    std::vector<std::uint64_t>& far_mark = res.far_mark_;
    std::vector<std::uint64_t>& ball_bucket = res.ball_bucket_;
    std::vector<std::uint64_t>& ball_epoch = res.ball_epoch_;
    std::vector<Weight>& ball_radius = res.ball_radius_;

    const double t = options_.stretch;
    const bool sharing = options_.ball_sharing;
    const bool parallel = parallel_enabled();
    const bool use_sketch = options_.bound_sketch;
    // Cell-batched grouping: anchor each candidate at one endpoint by the
    // two-sided hub heuristic instead of always at u. kAuto means no
    // source opted in (GridCandidateSource flips it to kOn), so it
    // resolves to the classic rule here.
    const bool anchored =
        sharing && options_.cell_batching == EngineTuning::CellBatching::kOn;
    // Multi-target group probes: one bounded traversal per source group
    // carries every member's target and radius (kAuto resolves here like
    // cell_batching -- graph/metric/WSPD sources flip it to kOn). Rides on
    // the group machinery, so sharing is a prerequisite.
    const bool group_probe =
        sharing && options_.group_probing == EngineTuning::GroupProbing::kOn;
    // Bounds are the currency of both ball sharing and the parallel stage.
    const bool track_bounds = sharing || parallel;
    const std::size_t meets_before = ws.meet_events() + ws_pool.total_meet_events();
    ws.resize(n_);
    if (parallel) ws_pool.configure(workers_, n_);

    // Resolve the SIMD backend once and hand every consumer the same
    // kernel table: the serial probe here, the stage-2 workers (via
    // ctx.simd below), and the sketch's way-probe. The tables are
    // bit-exact replacements for each other, so this cannot change a
    // decision -- only how fast the sweeps and relaxations run.
    const simd::Kernels& simd_k = resolve_simd_kernels(options_.simd_backend);
    ws.batched().set_kernels(&simd_k);
    sketch.set_kernels(&simd_k);
    // Goal oracle for the serial group probe, resolved (and downcast)
    // once per run instead of per group.
    const MetricSpace* probe_goal_metric = options_.probe_goal_bound != nullptr
                                               ? options_.probe_goal_bound
                                               : options_.goal_bound;
    const ProbeGoalOracle probe_goal_oracle{
        probe_goal_metric, dynamic_cast<const EuclideanMetric*>(probe_goal_metric),
        &simd_k};

    if (track_bounds) {
        ball_bucket.assign(n_, 0);
        ball_epoch.assign(n_, 0);
        ball_radius.assign(n_, 0.0);
    }
    if (parallel) prefilter_stage.begin_run(workers_);
    if (use_sketch) sketch.reset(n_, options_.sketch_ways);

    PrefilterGateState gate;
    const bool have_serial_pf = static_cast<bool>(options_.prefilter);
    const bool have_concurrent_pf =
        parallel && static_cast<bool>(options_.concurrent_prefilter);
    gate.live = have_serial_pf || static_cast<bool>(options_.concurrent_prefilter);
    // kAdaptive calibrates on the *serial* hook's timings, so while the
    // window is open the insertion loop consults the serial prefilter even
    // when a concurrent variant exists; stage 2 takes the oracle over only
    // after it survives calibration. A concurrent-only installation has
    // nothing to time and runs ungated.
    gate.calibrating =
        gate.live && have_serial_pf &&
        options_.prefilter_gate == GreedyEngineOptions::PrefilterGate::kAdaptive;

    std::uint64_t insert_epoch = 1;  // bumped on every accepted edge
    // Stage-2 accept-rate gate state: optimistic start (a first bucket
    // with a pre-seeded spanner is prefiltered).
    double last_accept_rate = 0.0;

    // Cross-bucket sketch recorder (serial-only writer; stage 2 reads
    // the sketch strictly between buckets' fan-outs). Accept paths record
    // nothing here: the insertion that follows bumps the epoch and writes
    // the now-exact pair distance, which would overwrite any far record
    // one statement later.
    const auto sk_pair_exact = [&](VertexId a, VertexId b, Weight d) {
        if (!use_sketch) return;
        sketch.record_exact(a, b, d, insert_epoch);
        sketch.record_exact(b, a, d, insert_epoch);
    };

    // One early-exit point query by the configured strategy. The
    // goal-directed probe (a metric oracle focusing the sweep into the
    // pair's ellipse) is one-sided, so only the bidirectional query leaves
    // backward labels to harvest.
    const auto point_query = [&](VertexId a, VertexId b, Weight threshold) -> Weight {
        if (options_.goal_bound != nullptr) {
            const MetricSpace& lb = *options_.goal_bound;
            return ws.distance_goal_directed(
                adapter.view(), a, b, threshold,
                [&lb, b](VertexId x) { return lb.distance(x, b); });
        }
        if (options_.bidirectional) {
            return ws.distance_bidirectional(adapter.view(), a, b, threshold);
        }
        return ws.distance(adapter.view(), a, b, threshold);
    };

    // Online cost model for the ball-vs-point decision: exponential moving
    // averages of heap pushes per query kind, and of how many candidates a
    // ball actually resolves (its own decision plus the cache hits its
    // harvested bounds will produce). Zero = not yet calibrated this run.
    // Owned by the insertion loop: stage-2 ball decisions use the static
    // group-size threshold instead, so they never depend on scheduling.
    double ball_cost = 0.0;
    double point_cost = 0.0;
    double ball_value = 0.0;
    const auto update_ema = [](double& ema, double sample) {
        ema = ema == 0.0 ? sample : 0.75 * ema + 0.25 * sample;
    };

    // --- Stage 1: the chunk stream paces the bucket loop (the loop below
    // only ever touches the current bucket's window, addressed
    // bucket-locally). ---
    CandidateBucket bucket;
    while (feed.next(bucket)) {
        ++stats.buckets;
        // Ball-reuse scope marker. A ball may only answer candidates whose
        // bounds its harvest wrote, and a harvest covers one bucket's
        // group -- so reuse is keyed per bucket. A chunk boundary can cut
        // one weight class into two buckets, and a ball of the first must
        // not accept a tie-weight candidate of the second.
        const std::uint64_t bucket_seq = stats.buckets;
        if (bucket.size() > std::numeric_limits<std::uint32_t>::max()) {
            // Bucket-local indices (bounds, verdict bits, groups) are u32.
            throw std::length_error(
                "GreedyEngine: a single weight bucket exceeds 2^32 candidates; "
                "lower bucket_ratio to split it");
        }
        // The bucket's candidates, addressed from zero: everything below
        // (groups, bounds, verdict bits, the insertion loop) runs in
        // bucket-local coordinates, whatever the chunk layout.
        const std::span<const GreedyCandidate> bw = feed.window(bucket);

        // Synchronize the adjacency view. With the incremental store this
        // is a full build exactly once per run (then a free no-op: the
        // view mirrors every insertion at O(degree) as it happens).
        adapter.snapshot(h);
        if (options_.on_bucket) options_.on_bucket(h, bucket.lo);

        // The thin stage-2 -> stage-3 handoff: one Weight slot and two
        // verdict bits per candidate, all bucket-local. Bounds die with
        // the bucket by design -- cross-bucket persistence is the
        // sketch's job, in O(n) instead of O(m).
        if (track_bounds) bound.assign(bucket.size(), kInfiniteWeight);
        // Per-member far certificates from group probes: the epoch at
        // which a probe certified this member far (0 = never). Unlike the
        // shared ball slot, these survive the probe's early exit shrinking
        // the certified radius below a heavy member's threshold.
        if (group_probe) far_mark.assign(bucket.size(), 0);
        if (parallel) prefilter_stage.begin_bucket(bw.size());
        // Logical footprint, not vector capacities: capacities depend on
        // what earlier (possibly larger) runs left in a warm session, and
        // the handoff counter must be a pure function of this run.
        const std::size_t handoff_bytes =
            (track_bounds ? bound.size() * sizeof(Weight) : 0) +
            (parallel ? prefilter_stage.verdict_bytes() : 0);
        stats.handoff_peak_bytes = std::max(stats.handoff_peak_bytes, handoff_bytes);

        const auto cand_at = [&](std::uint32_t local) -> const GreedyCandidate& {
            return bw[local];
        };

        // Stage 2 runs over the whole bucket or not at all. It is keyed on
        // the previous bucket's accept rate -- a pure function of the
        // greedy decisions, hence identical at every thread count -- and
        // never runs during the prefilter gate's calibration window
        // (calibration times the *serial* economics; stage-2 probes would
        // hollow out the exact decisions it measures and double-consult
        // the oracle). An accept-predicted bucket goes straight to the
        // insertion loop: its far bits would die on the first insertion.
        // So does a bucket that starts on an edgeless spanner (the first
        // bucket of an unseeded run): every probe there reports far, and
        // the bucket's first accept stales all of it.
        const bool run_stage2 = parallel && !gate.calibrating &&
                                last_accept_rate <= options_.parallel_accept_gate &&
                                h.num_edges() > 0;
        if (sharing) groups.rebuild(bw, n_, anchored);
        // Group-size-aware bootstrap threshold for the ball-vs-point gate:
        // a stream whose groups never reach ball_share_min_group (grid rep
        // windows are ~s^2 wide) still calibrates the cost model from its
        // first full-size group, instead of staying on point queries for
        // the whole run. The floor of 2 keeps degenerate all-singleton
        // buckets from bootstrapping a ball that can amortize nothing.
        const std::size_t bootstrap_min_group =
            sharing ? std::min(options_.ball_share_min_group,
                               std::max<std::size_t>(groups.max_group_size(), 2))
                    : options_.ball_share_min_group;
        const std::uint64_t snapshot_epoch = insert_epoch;
        const std::size_t accepts_before = stats.edges_added;

        // --- Stage 2: parallel reject-only prefilter of the whole bucket,
        // one task per source group, against the bucket-start view. Its
        // bounds stay sound whatever stage 3 inserts later; its far bits
        // hold only while nothing has been inserted. ---
        if (run_stage2) {
            PrefilterContext ctx;
            ctx.candidates = bw;
            ctx.groups = sharing ? &groups : nullptr;
            ctx.stretch = t;
            ctx.bidirectional = options_.bidirectional;
            ctx.ball_share_min_group = bootstrap_min_group;
            ctx.anchored = anchored;
            ctx.group_probe = group_probe;
            ctx.ball_scope = bucket_seq;
            ctx.snapshot_epoch = snapshot_epoch;
            ctx.sketch = use_sketch ? &sketch : nullptr;
            ctx.oracle = (have_concurrent_pf && gate.live && !gate.calibrating)
                             ? &options_.concurrent_prefilter
                             : nullptr;
            ctx.simd = &simd_k;
            prefilter_stage.run_bucket(*pool_, ws_pool, adapter.view(), ctx, bound,
                                       ball_bucket, ball_epoch, ball_radius, stats);
        }

        // --- Stage 3: the serialized insertion loop walks the bucket in
        // deterministic tie order and re-verifies every surviving accept. ---
        for (std::size_t i = 0; i < bw.size(); ++i) {
            const GreedyCandidate& c = bw[i];
            const auto li = static_cast<std::uint32_t>(i);
            const Weight threshold = t * c.weight;
            ++stats.edges_examined;
            // The probe endpoint pair: the group anchor (u in classic
            // mode, the hub endpoint in cell-batched mode) and the other
            // endpoint. Distances are symmetric, so every exact path
            // below may run anchor -> target instead of u -> v.
            const VertexId anchor = sharing ? groups.anchor_of(li) : c.u;
            const VertexId target = SourceGroups::other_of(c, anchor);
            // This candidate is decided this iteration, whichever path runs.
            if (sharing) groups.decrement_remaining(anchor);

            if (parallel && prefilter_stage.oracle_reject(i)) {
                ++stats.prefilter_rejects;
                continue;
            }
            if (have_serial_pf && gate.live &&
                (!have_concurrent_pf || gate.calibrating)) {
                bool rejected;
                if (gate.calibrating) {
                    const Timer call_timer;
                    rejected = options_.prefilter(c.u, c.v, threshold);
                    gate.prefilter_seconds += call_timer.seconds();
                    ++gate.calls;
                    if (rejected) ++gate.rejects;
                    gate.maybe_settle(stats);
                } else {
                    rejected = options_.prefilter(c.u, c.v, threshold);
                }
                if (rejected) {
                    ++stats.prefilter_rejects;
                    continue;
                }
            }
            // Calibration samples for the measured-cost gate: the cost of
            // deciding a candidate the prefilter let through (cache hits
            // included -- an oracle reject only saves whatever the decision
            // would actually have cost).
            std::optional<Timer> decide_timer;
            if (gate.calibrating) decide_timer.emplace();
            const auto record_exact = [&] {
                if (decide_timer) {
                    gate.exact_seconds += decide_timer->seconds();
                    ++gate.exact_decisions;
                }
            };

            bool accept = false;
            if (track_bounds && bound[li] <= threshold) {
                // A realizable witness path no heavier than the threshold
                // is already known (harvested serially or by stage 2); the
                // spanner only grows, so the bound can only have improved.
                ++stats.cache_hits;
                if (use_sketch) {
                    // Persist the witness across buckets (upper bounds are
                    // sound forever).
                    sketch.record_upper(c.u, c.v, bound[li]);
                    sketch.record_upper(c.v, c.u, bound[li]);
                }
                record_exact();
                continue;
            }
            if (use_sketch && sketch.upper_bound(c.u, c.v) <= threshold) {
                // Cross-bucket cache hit: an earlier bucket's exact query
                // already certified a witness path for this pair.
                ++stats.sketch_hits;
                record_exact();
                continue;
            }
            if (use_sketch) {
                // Coarse-bound fast reject: even when neither endpoint
                // remembers the other (a grid stream emits each pair
                // exactly once, so the direct consult above never hits),
                // both may remember a common landmark -- typically a cell
                // anchor whose drained ball settled them. Concatenating
                // the two witness paths through the landmark is a sound
                // upper bound; within the threshold it rejects with zero
                // graph work, spending the stretch slack the grid banks
                // (t >= the emitted weight's slack keeps such two-leg
                // witnesses plentiful for far reps).
                const Weight via = sketch.via_upper_bound(c.u, c.v);
                if (via <= threshold) {
                    ++stats.coarse_rejects;
                    sketch.record_upper(c.u, c.v, via);
                    sketch.record_upper(c.v, c.u, via);
                    record_exact();
                    continue;
                }
            }
            if (parallel && prefilter_stage.far_at_snapshot(i) &&
                insert_epoch == snapshot_epoch) {
                // The stage-2 probe was exact on the bucket-start view and
                // nothing has been inserted since: the far bit stands. A
                // stale far bit is simply ignored -- the exact machinery
                // below re-decides the candidate on the current view.
                ++stats.snapshot_accepts;
                accept = true;
            } else if (group_probe && far_mark[li] == insert_epoch) {
                // A group probe certified this member far on the current
                // view and nothing was inserted since: d(u, v) > threshold
                // stands. The per-member twin of the shared-ball lazy
                // revalidation below -- and immune to an early exit having
                // shrunk the probe's certified radius under this member's
                // threshold.
                ++stats.cache_hits;
                accept = true;
            } else if (use_sketch &&
                       sketch.lower_bound_at(c.u, c.v, insert_epoch) > threshold) {
                // Epoch-valid sketch lower bound: the pair was measured
                // farther than the threshold and nothing was inserted
                // since -- accept without any probe.
                ++stats.sketch_accepts;
                accept = true;
            } else if (sharing) {
                const std::uint32_t peers = groups.remaining(anchor);
                const auto& grp = groups.of(anchor);
                // Ball-vs-point gate: a ball pays off iff its measured work
                // amortizes below the point-query work of the candidates it
                // realistically resolves (accept-heavy phases make balls
                // near-worthless -- harvested bounds reject nothing).
                // Bootstrap: one ball for the bucket's largest group class
                // calibrates the ball side, then one point query
                // calibrates the other.
                bool want_ball = false;
                if (peers > 0) {
                    if (anchored) {
                        // Cell-batched rule: one drained ball per cell per
                        // window, structurally. Its value is mostly
                        // *outside* the group -- the settled frontier
                        // persists in the sketch, so the anchor's later
                        // buckets hit the direct consult and neighboring
                        // cells' candidates hit the via-landmark reject --
                        // which per-group cost accounting cannot see. The
                        // previous bucket's accept rate vetoes accept-heavy
                        // phases instead (the stage-2 gate's signal, kept
                        // fresh for serial runs too): there, harvests
                        // resolve nearly nothing and every insertion
                        // stales the sketch facts the ball just paid for.
                        // At most one drained ball per anchor per bucket:
                        // its harvested bounds are upper bounds -- sound
                        // forever -- so the group's rejects stay decided
                        // across the bucket's insertions, and the few
                        // members an insertion un-certifies (the accept
                        // side needs the epoch) are exactly the ones a
                        // cheap early-exit point query handles best.
                        // Re-draining after every accept is what epoch
                        // invalidation would otherwise cost.
                        want_ball = grp.size() >= std::min<std::size_t>(
                                                      bootstrap_min_group, 4) &&
                                    last_accept_rate <= options_.parallel_accept_gate &&
                                    ball_bucket[anchor] != bucket_seq;
                    } else if (ball_cost == 0.0) {
                        want_ball = grp.size() >= bootstrap_min_group;
                    } else if (point_cost != 0.0) {
                        want_ball = 2.0 * ball_cost <= std::max(ball_value, 1.0) * point_cost;
                    }
                }
                if (ball_bucket[anchor] == bucket_seq && ball_epoch[anchor] == insert_epoch &&
                    ball_radius[anchor] >= threshold) {
                    // Lazy revalidation pay-off: the last ball from this
                    // anchor (grown serially or by stage 2) is still exact
                    // -- no insertion anywhere since -- and covered this
                    // radius, so bound > threshold means the true distance
                    // exceeds the threshold.
                    ++stats.cache_hits;
                    if (anchored) ++stats.cell_ball_decisions;
                    accept = true;
                } else {
                    bool need_point = !want_ball;
                    if (want_ball && group_probe && !anchored &&
                        last_accept_rate <= options_.parallel_accept_gate) {
                        // Multi-target group probe: one bounded traversal
                        // carries every undecided member's target and
                        // decision radius, settles targets as the frontier
                        // reaches them, and stops the moment the last is
                        // decided or the frontier passes the largest
                        // undecided bound -- the serial twin of the
                        // stage-2 kernel path, replacing the classic
                        // full-radius drained ball. Settled members land
                        // as exact bounds (cache-hit rejects when their
                        // turn comes); far members ride the published
                        // certified-radius ball slot, accepting by the
                        // same lazy revalidation a classic ball backs --
                        // at a fraction of its drained area. A member
                        // whose threshold outruns the certified radius
                        // (possible after early termination) simply fails
                        // revalidation and falls through to the exact
                        // machinery: cost, never correctness.
                        //
                        // The accept-rate veto mirrors the cell-batched
                        // rule above: in accept-heavy phases every
                        // insertion stales the far certificates the probe
                        // just paid for, so the group gets re-probed per
                        // accept while the bidirectional point query (two
                        // meet-in-the-middle half-balls plus a two-sided
                        // harvest) decides each member outright.
                        BatchedProbe& probe = ws.batched();
                        bool li_far = false;
                        const auto is_undecided = [&](std::uint32_t local) {
                            return local == li ||
                                   (local > li &&
                                    bound[local] > t * cand_at(local).weight);
                        };
                        const auto mark_far = [&](std::uint32_t local) {
                            far_mark[local] = insert_epoch;
                            if (local == li) li_far = true;
                        };
                        // With a metric oracle at hand the probe goes
                        // goal-directed once few targets remain undecided
                        // -- the accept-side tail, where the classic drain
                        // spends most of its area (verdicts unchanged; see
                        // BatchedProbe's header note).
                        const PrefilterKernel::Outcome outcome =
                            probe_goal_metric != nullptr
                                ? res.prefilter_kernel_.decide_group(
                                      probe, adapter.view(), anchor, bw, grp, t,
                                      is_undecided, bound, mark_far, probe_goal_oracle)
                                : res.prefilter_kernel_.decide_group(
                                      probe, adapter.view(), anchor, bw, grp, t,
                                      is_undecided, bound, mark_far);
                        ++stats.dijkstra_runs;
                        ++stats.balls_computed;
                        ++stats.group_probes;
                        stats.group_probe_decisions += outcome.probed;
                        if (outcome.early_exit) ++stats.group_probe_early_exits;
                        update_ema(ball_cost, static_cast<double>(probe.last_work()));
                        // Value accounting mirrors the classic ball's
                        // `resolved` (settled rejects only) so the two
                        // paths bid against the point query on equal
                        // terms: counting far members as value inflates
                        // the EMA and flips the gate toward probes on
                        // inputs where per-candidate queries genuinely win.
                        const std::size_t resolved = outcome.probed - outcome.far_members;
                        update_ema(ball_value, static_cast<double>(
                                                   std::max<std::size_t>(resolved, 1)));
                        if (use_sketch) {
                            // Same cross-bucket harvest as a drained ball's,
                            // except goal pruning bounds the exact claim:
                            // settles past the engagement distance may have
                            // had a shorter path pruned, so they land as
                            // upper bounds (sound rejects, no lower-bound
                            // accepts). Settle order is nondecreasing, so
                            // the exact prefix is a prefix.
                            const Weight exact_r = probe.settled_exact_radius();
                            for (const auto& [x, d] : probe.settled()) {
                                if (x == anchor) continue;
                                if (d <= exact_r) {
                                    sketch.record_exact(anchor, x, d, insert_epoch);
                                } else {
                                    sketch.record_upper(anchor, x, d);
                                }
                            }
                        }
                        ball_bucket[anchor] = bucket_seq;
                        ball_epoch[anchor] = insert_epoch;
                        ball_radius[anchor] = outcome.certified_radius;
                        // li rode the probe, so it holds one of the two
                        // verdicts: far at this view, or settled with a
                        // witness within its threshold.
                        accept = li_far;
                    } else if (want_ball) {
                        // Shared ball: one query answers every candidate of
                        // this anchor in the bucket. The classic radius covers
                        // the heaviest member's threshold, so unsettled means
                        // far for the whole group -- but Dijkstra cost grows
                        // with radius^2, and in the reject-heavy regime a
                        // reject's witness path barely exceeds its weight. The
                        // anchored (cell-batched) ball therefore drains only a
                        // *reject radius*: enough to settle the typical
                        // witness for every member, with no clamp up to the
                        // current candidate's threshold -- when the shave
                        // leaves li itself unsettled below its threshold, li
                        // is simply undecided and falls through to its own
                        // goal-directed probe below. Cost, never correctness:
                        // a settled bound is an exact witness either way.
                        const Weight w_top = cand_at(grp.back()).weight;
                        const Weight radius =
                            anchored ? kCellRejectRadiusFactor * w_top : t * w_top;
                        ++stats.dijkstra_runs;
                        ++stats.balls_computed;
                        if (anchored) ++stats.cell_balls;
                        const auto& settled = ws.ball(adapter.view(), anchor, radius);
                        update_ema(ball_cost, static_cast<double>(ws.last_work()));
                        if (use_sketch) {
                            // The settled set is exact at this epoch: the
                            // cross-bucket harvest that recovers the n^2
                            // DistanceCache's hit rate in O(n) memory (and, on
                            // streams that emit each pair once, feeds the
                            // via-landmark coarse reject -- the anchor is the
                            // landmark). Each record is a random write into
                            // the O(n)-sized slot table, so the harvest is
                            // DRAM-bound: in anchored mode only the near half
                            // of the frontier is recorded -- a via reject
                            // concatenates two *short* legs through a shared
                            // anchor, so the far half buys almost no rejects
                            // at the same per-record cost. Settle order is
                            // nondecreasing distance: the cap is a prefix.
                            const Weight record_cap =
                                anchored ? 0.5 * radius : kInfiniteWeight;
                            for (const auto& [x, d] : settled) {
                                if (d > record_cap) break;
                                if (x != anchor) sketch.record_exact(anchor, x, d, insert_epoch);
                            }
                        }
                        std::size_t resolved = 1;  // this candidate
                        for (std::uint32_t idx : grp) {
                            const Weight d =
                                ws.settled_distance(SourceGroups::other_of(cand_at(idx), anchor));
                            if (d < bound[idx]) {
                                bound[idx] = d;
                                if (idx > li && d <= t * cand_at(idx).weight) ++resolved;
                            }
                        }
                        update_ema(ball_value, static_cast<double>(resolved));
                        if (anchored) stats.cell_ball_decisions += resolved;
                        ball_bucket[anchor] = bucket_seq;
                        ball_epoch[anchor] = insert_epoch;
                        ball_radius[anchor] = radius;
                        if (bound[li] <= threshold) {
                            accept = false;  // exact witness settled by a ball
                        } else if (radius >= threshold) {
                            accept = true;  // unsettled at a covering radius: far
                        } else {
                            // The reject-radius shave left li unsettled below
                            // its own threshold: undecided, probe it directly.
                            need_point = true;
                        }
                    }
                    if (need_point) {
                        // Small group (or a ball-undecided member): an
                        // early-exit point query decides this candidate, and
                        // every label it touched is a realizable path length --
                        // harvest them as upper bounds for the anchor's (and,
                        // bidirectionally, the target's) other candidates in
                        // the bucket.
                        ++stats.dijkstra_runs;
                        const Weight d = point_query(anchor, target, threshold);
                        update_ema(point_cost, static_cast<double>(ws.last_work()));
                        for (std::uint32_t idx : grp) {
                            if (idx <= li) continue;
                            const Weight b = ws.last_forward_bound(
                                SourceGroups::other_of(cand_at(idx), anchor));
                            if (b < bound[idx]) bound[idx] = b;
                        }
                        if (options_.goal_bound == nullptr && options_.bidirectional) {
                            for (std::uint32_t idx : groups.of(target)) {
                                if (idx <= li) continue;
                                const Weight b = ws.last_backward_bound(
                                    SourceGroups::other_of(cand_at(idx), target));
                                if (b < bound[idx]) bound[idx] = b;
                            }
                        }
                        accept = d > threshold;
                        if (!accept) sk_pair_exact(c.u, c.v, d);
                    }
                }
            } else {
                ++stats.dijkstra_runs;
                const Weight d = point_query(c.u, c.v, threshold);
                accept = d > threshold;
                if (!accept) sk_pair_exact(c.u, c.v, d);
            }
            record_exact();
            if (!accept) continue;

            const EdgeId id = h.add_edge(c.u, c.v, c.weight);
            adapter.add_edge(c.u, c.v, c.weight, id);
            ++stats.edges_added;
            ++insert_epoch;
            // The accepted edge is now the shortest u-v path (any older
            // path exceeded t * w >= w), exact at the new epoch.
            sk_pair_exact(c.u, c.v, c.weight);
            if (sharing) {
                // Parallel candidates of the same pair now have a one-edge
                // witness; lower their bounds so they hit the cache. A
                // duplicate is always anchored at one of its own
                // endpoints, so the two groups below cover every copy.
                for (std::uint32_t idx : groups.of(c.u)) {
                    if (idx > li && SourceGroups::other_of(cand_at(idx), c.u) == c.v &&
                        c.weight < bound[idx]) {
                        bound[idx] = c.weight;
                    }
                }
                for (std::uint32_t idx : groups.of(c.v)) {
                    if (idx > li && SourceGroups::other_of(cand_at(idx), c.v) == c.u &&
                        c.weight < bound[idx]) {
                        bound[idx] = c.weight;
                    }
                }
            }
        }
        // Tracked for serial runs too since the cell-batched ball rule
        // reads it.
        if (!bw.empty()) {
            last_accept_rate = static_cast<double>(stats.edges_added - accepts_before) /
                               static_cast<double>(bw.size());
        }
    }
    stats.bidirectional_meets =
        ws.meet_events() + ws_pool.total_meet_events() - meets_before;
    stats.csr_rebuilds = adapter.rebuilds();
    stats.csr_compactions = adapter.compactions();
    stats.candidates_streamed = feed.streamed();
    stats.candidate_buffer_peak_bytes = feed.peak_buffer_bytes();
    return h;
}

void append_sorted_graph_candidates(const Graph& g, std::vector<GreedyCandidate>& out) {
    std::vector<EdgeId> order(g.num_edges());
    for (EdgeId i = 0; i < g.num_edges(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
        const Edge& ea = g.edge(a);
        const Edge& eb = g.edge(b);
        return std::make_tuple(ea.weight, std::min(ea.u, ea.v), std::max(ea.u, ea.v), a) <
               std::make_tuple(eb.weight, std::min(eb.u, eb.v), std::max(eb.u, eb.v), b);
    });
    out.reserve(out.size() + order.size());
    for (EdgeId id : order) {
        const Edge& e = g.edge(id);
        out.push_back(GreedyCandidate{e.u, e.v, e.weight});
    }
}

std::vector<GreedyCandidate> sorted_graph_candidates(const Graph& g) {
    std::vector<GreedyCandidate> cands;
    append_sorted_graph_candidates(g, cands);
    return cands;
}

#ifndef GSP_NO_DEPRECATED
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
Graph greedy_spanner_with(const Graph& g, const GreedyEngineOptions& options,
                          GreedyStats* stats) {
    // Zero the out-param before any work: a throw below must not leave a
    // previous run's counters behind (the additive-stats footgun).
    if (stats != nullptr) *stats = GreedyStats{};
    const Timer timer;  // include the candidate sort, as the naive kernel did
    // Resolve kAuto the way the session front door's GraphCandidateSource
    // does, so wrapper and session builds stay bit-identical, stats
    // included (the old-vs-new equivalence contract).
    GreedyEngineOptions resolved = options;
    if (resolved.group_probing == EngineTuning::GroupProbing::kAuto) {
        resolved.group_probing = EngineTuning::GroupProbing::kOn;
    }
    GreedyEngine engine(g.num_vertices(), resolved);
    WholeListChunkSource candidates(
        [&g](std::vector<GreedyCandidate>& out) { append_sorted_graph_candidates(g, out); });
    std::vector<GreedyCandidate> buffer;
    GreedyStats local;
    Graph h = engine.run(Graph(g.num_vertices()), candidates, buffer, &local);
    local.seconds = timer.seconds();
    if (stats != nullptr) *stats = local;
    return h;
}
#pragma GCC diagnostic pop
#endif  // GSP_NO_DEPRECATED

}  // namespace gsp
