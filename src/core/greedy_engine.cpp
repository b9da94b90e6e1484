#include "core/greedy_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "graph/incremental_csr.hpp"
#include "metric/metric_space.hpp"
#include "util/timer.hpp"

namespace gsp {

namespace {

/// Reject radius of the anchored (cell-batched) ball, as a factor
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
    // NaN-proof: NaN fails every comparison. An infinite stretch would
    // reject unreachable pairs (inf <= inf) and return a non-spanner.
    if (!(std::isfinite(options_.stretch) && options_.stretch >= 1.0)) {
        throw std::invalid_argument("GreedyEngine: stretch must be finite and >= 1");
    }
    if (options_.chunk_soft_cap == 0) {
        throw std::invalid_argument("GreedyEngine: chunk_soft_cap must be >= 1");
    }
    workers_ = ThreadPool::resolve_workers(options_.num_threads);
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
    CandidateStream feed(source, buffer, options_.chunk_soft_cap, options_.stretch);
    Graph out(0);
    if (options_.csr_snapshot) {
        IncrementalAdapter adapter;
        out = run_impl(adapter, std::move(h), feed, local);
    } else {
        LiveAdapter adapter;
        out = run_impl(adapter, std::move(h), feed, local);
    }
    local.seconds = timer.seconds();
    local.pull_seconds = feed.pull_seconds();
    if (stats != nullptr) *stats = local;
    return out;
}

template <class Adapter>
GSP_DECISION_PURE GSP_SERIAL_ONLY Graph GreedyEngine::run_impl(Adapter& adapter, Graph h,
                                                               CandidateStream& feed,
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
    std::vector<CandidateState>& state = res.state_;
    std::vector<std::uint32_t>& far_list = res.far_list_;
    std::vector<std::uint64_t>& ball_bucket = res.ball_bucket_;
    std::vector<std::uint64_t>& ball_epoch = res.ball_epoch_;
    std::vector<Weight>& ball_radius = res.ball_radius_;

    const double t = options_.stretch;
    const bool sharing = options_.ball_sharing;
    const bool parallel = parallel_enabled();
    // Cell-batched grouping: anchor each candidate at one endpoint by the
    // two-sided hub heuristic instead of always at u. kAuto means no
    // source opted in (GridCandidateSource flips it to kOn), so it
    // resolves to the classic rule here.
    const bool anchored =
        sharing && options_.cell_batching == EngineTuning::CellBatching::kOn;
    // Every other shared group is decided by a multi-target group probe:
    // one bounded traversal from the anchor carries every member's target
    // and radius.
    const bool group_probe = sharing && !anchored;
    // State bytes are the currency of both ball sharing and the parallel
    // stage.
    const bool track_state = sharing || parallel;
    const std::size_t meets_before = ws.meet_events() + ws_pool.total_meet_events();
    ws.resize(n_);
    if (parallel) ws_pool.configure(workers_, n_);

    if (track_state) {
        ball_bucket.assign(n_, 0);
        ball_epoch.assign(n_, 0);
        ball_radius.assign(n_, 0.0);
    }
    if (parallel) prefilter_stage.begin_run(workers_);

    std::uint64_t insert_epoch = 1;  // bumped on every accepted edge
    // Stage-2 accept-rate gate state: optimistic start (a first bucket
    // with a pre-seeded spanner is prefiltered).
    double last_accept_rate = 0.0;

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

    // Online cost model for the probe-vs-point decision: exponential
    // moving averages of heap pushes per query kind, and of how many
    // candidates a group probe actually resolves (its own decision plus the
    // cache hits its settled bounds will produce). Zero = not yet
    // calibrated this run. Owned by the insertion loop: stage 2 probes
    // every group with two or more undecided members instead, so its
    // decisions never depend on scheduling.
    double probe_cost = 0.0;
    double point_cost = 0.0;
    double probe_value = 0.0;
    const auto update_ema = [](double& ema, double sample) {
        ema = ema == 0.0 ? sample : 0.75 * ema + 0.25 * sample;
    };

    // --- Stage 1: the chunk stream paces the bucket loop (the loop below
    // only ever touches the current bucket's window, addressed
    // bucket-locally). A bucket is one octave [lo, 2 * lo], except that a
    // bucket following one that accepted no edge takes the rest of the
    // resident chunk: reject-only stretches (the tail of every all-pairs
    // build) then pay one group probe per source instead of one per
    // source per octave. Widening only after *zero* accepts keeps sparse
    // accepts in narrow buckets: on clustered all-pairs inputs a wide
    // bucket that still accepts stales, with each accept, the far marks
    // its probes paid for. Against a looser trigger (previous accept rate
    // <= 0.25; serial 2D all-pairs, n = 2048, t = 1.5) this rule ran 10%
    // and 27% faster on 20 and 4 blobs, where the looser one tripled the
    // group-probe decisions, and 19% faster on uniform points. The first
    // bucket of a run is never widened. ---
    CandidateBucket bucket;
    bool widen = false;
    while (feed.next(bucket, widen)) {
        ++stats.buckets;
        // Ball-reuse scope marker. A ball may only answer candidates whose
        // states its harvest wrote, and a harvest covers one bucket's
        // group -- so reuse is keyed per bucket. A chunk boundary can cut
        // one weight class into two buckets, and a ball of the first must
        // not accept a tie-weight candidate of the second.
        const std::uint64_t bucket_seq = stats.buckets;
        // The bucket's candidates, addressed from zero: everything below
        // (groups, state bytes, verdict bits, the insertion loop) runs in
        // bucket-local coordinates, whatever the chunk layout. The stream
        // keeps every bucket below 2^32 candidates, so they fit a u32.
        const std::span<const GreedyCandidate> bw = feed.window(bucket);

        // Synchronize the adjacency view. With the incremental store this
        // is a full build exactly once per run (then a free no-op: the
        // view mirrors every insertion at O(degree) as it happens).
        adapter.snapshot(h);

        // The thin stage-2 -> stage-3 handoff: one state byte and one far
        // bit per candidate, all bucket-local. States die with the bucket
        // by design: nothing persists across buckets, so the engine's
        // memory stays O(n) plus one bucket, never O(m). The far
        // state is the per-member certificate of the serial group probes;
        // unlike the published ball slot, it survives the probe's early
        // exit shrinking the certified radius below a heavy member's
        // threshold. far_list holds the members marked far since the last
        // insertion, which reopens them.
        if (track_state) state.assign(bucket.size(), CandidateState::kOpen);
        far_list.clear();
        if (parallel) prefilter_stage.begin_bucket(bw.size());
        // Logical footprint, not vector capacities: capacities depend on
        // what earlier (possibly larger) runs left in a warm session, and
        // the handoff counter must be a pure function of this run.
        const std::size_t handoff_bytes =
            (track_state ? state.size() * sizeof(CandidateState) : 0) +
            (parallel ? prefilter_stage.verdict_bytes() : 0);
        stats.handoff_peak_bytes = std::max(stats.handoff_peak_bytes, handoff_bytes);

        const auto cand_at = [&](std::uint32_t local) -> const GreedyCandidate& {
            return bw[local];
        };

        // Stage 2 runs over the whole bucket or not at all. It is keyed on
        // the previous bucket's accept rate -- a pure function of the
        // greedy decisions, hence identical at every thread count. An
        // accept-predicted bucket goes straight to the insertion loop: its
        // far bits would die on the first insertion. So does a bucket that
        // starts on an edgeless spanner (the first bucket of an unseeded
        // run): every probe there reports far, and the bucket's first
        // accept stales all of it.
        const bool run_stage2 = parallel &&
                                last_accept_rate <= options_.parallel_accept_gate &&
                                h.num_edges() > 0;
        if (sharing) groups.rebuild(bw, n_, anchored);
        // Group-size-aware bootstrap threshold for the probe-vs-point gate:
        // a stream whose groups never reach ball_share_min_group (grid rep
        // windows are ~s^2 wide) still calibrates the cost model from its
        // first full-size group, instead of staying on point queries for
        // the whole run. The floor of 2 keeps degenerate all-singleton
        // buckets from bootstrapping a probe that can amortize nothing.
        const std::size_t bootstrap_min_group =
            sharing ? std::min(options_.ball_share_min_group,
                               std::max<std::size_t>(groups.max_group_size(), 2))
                    : options_.ball_share_min_group;
        const std::uint64_t snapshot_epoch = insert_epoch;
        const std::size_t accepts_before = stats.edges_added;

        // --- Stage 2: parallel reject-only prefilter of the whole bucket,
        // one task per source group, against the bucket-start view. Its
        // witnesses stay sound whatever stage 3 inserts later; its far bits
        // hold only while nothing has been inserted. ---
        if (run_stage2) {
            PrefilterContext ctx;
            ctx.candidates = bw;
            ctx.groups = sharing ? &groups : nullptr;
            ctx.stretch = t;
            ctx.bidirectional = options_.bidirectional;
            ctx.ball_scope = bucket_seq;
            ctx.snapshot_epoch = snapshot_epoch;
            prefilter_stage.run_bucket(*pool_, ws_pool, adapter.view(), ctx, state,
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
            const VertexId anchor = sharing ? groups.anchor_of(li, c) : c.u;
            const VertexId target = SourceGroups::other_of(c, anchor);
            // This candidate is decided this iteration, whichever path runs.
            if (sharing) groups.decrement_remaining(anchor);

            bool accept = false;
            if (track_state && state[li] == CandidateState::kWitnessed) {
                // A realizable witness path no heavier than the threshold
                // is already known (harvested serially or by stage 2); the
                // spanner only grows, so the path is still there.
                ++stats.cache_hits;
                continue;
            }
            if (parallel && prefilter_stage.far_at_snapshot(i) &&
                insert_epoch == snapshot_epoch) {
                // The stage-2 probe was exact on the bucket-start view and
                // nothing has been inserted since: the far bit stands. A
                // stale far bit is simply ignored -- the exact machinery
                // below re-decides the candidate on the current view.
                ++stats.snapshot_accepts;
                accept = true;
            } else if (group_probe && state[li] == CandidateState::kFar) {
                // A group probe certified this member far on the current
                // view and nothing was inserted since: d(u, v) > threshold
                // stands. The per-member twin of the shared-ball lazy
                // revalidation below -- and immune to an early exit having
                // shrunk the probe's certified radius under this member's
                // threshold.
                ++stats.cache_hits;
                accept = true;
            } else if (sharing) {
                const std::uint32_t peers = groups.remaining(anchor);
                const std::span<const std::uint32_t> grp = groups.of(anchor);
                // Shared-traversal gate: does this group take one shared
                // traversal (the cell ball of anchored runs, the group
                // probe of every other run) instead of a point query?
                bool want_ball = false;
                if (peers > 0) {
                    if (anchored) {
                        // Cell-batched rule: at most one drained ball per
                        // anchor per bucket, taken structurally instead of
                        // through the cost model below. The ball drains
                        // only the reject radius (kCellRejectRadiusFactor),
                        // which settles the typical witness of every rep
                        // candidate the cell emits into the window, so its
                        // harvest decides the group's rejects in one
                        // traversal. Its harvested witnesses are realizable
                        // paths -- sound forever -- so the group's rejects stay
                        // decided across the bucket's insertions, and the
                        // few members an insertion un-certifies (the
                        // accept side needs the epoch) go to a cheap
                        // early-exit point query. The previous bucket's
                        // accept rate (the stage-2 gate's signal, kept
                        // fresh for serial runs too) vetoes accept-heavy
                        // phases, where every insertion stales the far
                        // facts the ball just paid for. Measured against
                        // routing anchored groups through the cost model
                        // (serial grid, s = 5, t = 2, alternating pairs),
                        // this rule won on uniform n = 5000 (0.755 s vs
                        // 0.849 s; the cost model won 0/10), clustered
                        // n = 5000 (0.693 s vs 0.729 s; 2/10) and uniform
                        // n = 20000 (6.64 s vs 9.27 s, 321k vs 956k
                        // Dijkstra runs; 0/4), with identical edge sets.
                        want_ball = grp.size() >= std::min<std::size_t>(
                                                      bootstrap_min_group, 4) &&
                                    last_accept_rate <= options_.parallel_accept_gate &&
                                    ball_bucket[anchor] != bucket_seq;
                    } else if (probe_cost == 0.0) {
                        // Bootstrap: one group probe for the bucket's
                        // largest group class calibrates the probe side,
                        // then one point query calibrates the other.
                        want_ball = grp.size() >= bootstrap_min_group;
                    } else if (point_cost != 0.0) {
                        // Probe-vs-point cost model: a group probe pays off
                        // iff its measured work amortizes below the
                        // point-query work of the candidates it
                        // realistically resolves (in accept-heavy phases
                        // its settled rejects, and so its value, vanish).
                        want_ball = 2.0 * probe_cost <= std::max(probe_value, 1.0) * point_cost;
                    }
                }
                if (ball_bucket[anchor] == bucket_seq && ball_epoch[anchor] == insert_epoch &&
                    ball_radius[anchor] >= threshold) {
                    // Lazy revalidation pay-off: the last ball or group
                    // probe from this anchor (run serially or by stage 2)
                    // is still exact -- no insertion anywhere since -- and
                    // certified this radius, so bound > threshold means
                    // the true distance exceeds the threshold.
                    ++stats.cache_hits;
                    if (anchored) ++stats.cell_ball_decisions;
                    accept = true;
                } else {
                    bool need_point = !want_ball;
                    if (want_ball && anchored) {
                        // Cell ball: Dijkstra cost grows with radius^2, and
                        // in the reject-heavy regime a reject's witness
                        // path barely exceeds its weight, so the ball
                        // drains only a *reject radius*: enough to settle
                        // the typical witness for every member, with no
                        // clamp up to the current candidate's threshold.
                        // When the shave leaves li itself unsettled below
                        // its threshold, li is simply undecided and falls
                        // through to its own point query below. Cost,
                        // never correctness: a settled distance is an exact
                        // witness either way.
                        const Weight radius =
                            kCellRejectRadiusFactor * cand_at(grp.back()).weight;
                        ++stats.dijkstra_runs;
                        ++stats.balls_computed;
                        ++stats.cell_balls;
                        ws.ball(adapter.view(), anchor, radius);
                        std::size_t resolved = 1;  // this candidate
                        for (std::uint32_t idx : grp) {
                            const Weight d =
                                ws.settled_distance(SourceGroups::other_of(cand_at(idx), anchor));
                            if (d <= t * cand_at(idx).weight &&
                                state[idx] != CandidateState::kWitnessed) {
                                state[idx] = CandidateState::kWitnessed;
                                if (idx > li) ++resolved;
                            }
                        }
                        stats.cell_ball_decisions += resolved;
                        ball_bucket[anchor] = bucket_seq;
                        ball_epoch[anchor] = insert_epoch;
                        ball_radius[anchor] = radius;
                        if (state[li] == CandidateState::kWitnessed) {
                            accept = false;  // exact witness settled by the ball
                        } else if (radius >= threshold) {
                            accept = true;  // unsettled at a covering radius: far
                        } else {
                            need_point = true;  // shaved below li's threshold
                        }
                    } else if (want_ball) {
                        // Multi-target group probe: one bounded traversal
                        // carries every undecided member's target and
                        // decision radius, settles targets as the frontier
                        // reaches them, and stops the moment the last is
                        // decided or the frontier passes the largest
                        // undecided bound -- the serial twin of the
                        // stage-2 kernel path. Settled members are marked
                        // witnessed (cache-hit rejects when their turn
                        // comes); far members get the far state and also
                        // ride the published certified-radius
                        // ball slot. A member whose threshold outruns the
                        // certified radius (possible after early
                        // termination) fails revalidation and falls
                        // through to the exact machinery: cost, never
                        // correctness.
                        BatchedProbe& probe = ws.batched();
                        bool li_far = false;
                        const auto is_undecided = [&](std::uint32_t local) {
                            return local == li ||
                                   (local > li && state[local] != CandidateState::kWitnessed);
                        };
                        const auto mark_far = [&](std::uint32_t local) {
                            if (state[local] == CandidateState::kOpen) {
                                state[local] = CandidateState::kFar;
                                far_list.push_back(local);
                            }
                            if (local == li) li_far = true;
                        };
                        const PrefilterKernel::Outcome outcome =
                            res.prefilter_kernel_.decide_group(
                                probe, adapter.view(), anchor, bw, grp, t,
                                is_undecided, state, mark_far);
                        ++stats.dijkstra_runs;
                        ++stats.balls_computed;
                        ++stats.group_probes;
                        stats.group_probe_decisions += outcome.probed;
                        if (outcome.early_exit) ++stats.group_probe_early_exits;
                        update_ema(probe_cost, static_cast<double>(probe.last_work()));
                        // Value counts settled rejects only: counting far
                        // members as value inflates the EMA and flips the
                        // gate toward probes on inputs where per-candidate
                        // queries genuinely win.
                        const std::size_t resolved = outcome.probed - outcome.far_members;
                        update_ema(probe_value, static_cast<double>(
                                                   std::max<std::size_t>(resolved, 1)));
                        ball_bucket[anchor] = bucket_seq;
                        ball_epoch[anchor] = insert_epoch;
                        ball_radius[anchor] = outcome.certified_radius;
                        // li rode the probe, so it holds one of the two
                        // verdicts: far at this view, or settled with a
                        // witness within its threshold.
                        accept = li_far;
                    }
                    if (need_point) {
                        // Small group (or a ball-undecided member): an
                        // early-exit point query decides this candidate, and
                        // every label it touched is a realizable path length --
                        // harvest them as witnesses for the anchor's (and,
                        // bidirectionally, the target's) other candidates in
                        // the bucket.
                        ++stats.dijkstra_runs;
                        const Weight d = point_query(anchor, target, threshold);
                        update_ema(point_cost, static_cast<double>(ws.last_work()));
                        for (std::uint32_t idx : grp) {
                            if (idx <= li) continue;
                            const Weight b = ws.last_forward_bound(
                                SourceGroups::other_of(cand_at(idx), anchor));
                            if (b <= t * cand_at(idx).weight) {
                                state[idx] = CandidateState::kWitnessed;
                            }
                        }
                        if (options_.goal_bound == nullptr && options_.bidirectional) {
                            for (std::uint32_t idx : groups.of(target)) {
                                if (idx <= li) continue;
                                const Weight b = ws.last_backward_bound(
                                    SourceGroups::other_of(cand_at(idx), target));
                                if (b <= t * cand_at(idx).weight) {
                                    state[idx] = CandidateState::kWitnessed;
                                }
                            }
                        }
                        accept = d > threshold;
                    }
                }
            } else {
                ++stats.dijkstra_runs;
                accept = point_query(c.u, c.v, threshold) > threshold;
            }
            if (!accept) continue;

            const EdgeId id = h.add_edge(c.u, c.v, c.weight);
            adapter.add_edge(c.u, c.v, c.weight, id);
            ++stats.edges_added;
            ++insert_epoch;
            // The insertion stales every far certificate: reopen them.
            for (std::uint32_t idx : far_list) {
                if (state[idx] == CandidateState::kFar) state[idx] = CandidateState::kOpen;
            }
            far_list.clear();
            if (sharing) {
                // Parallel candidates of the same pair now have a one-edge
                // witness; mark them so they hit the cache. A duplicate is
                // always anchored at one of its own endpoints, so the two
                // groups below cover every copy.
                for (std::uint32_t idx : groups.of(c.u)) {
                    if (idx > li && SourceGroups::other_of(cand_at(idx), c.u) == c.v &&
                        c.weight <= t * cand_at(idx).weight) {
                        state[idx] = CandidateState::kWitnessed;
                    }
                }
                for (std::uint32_t idx : groups.of(c.v)) {
                    if (idx > li && SourceGroups::other_of(cand_at(idx), c.v) == c.u &&
                        c.weight <= t * cand_at(idx).weight) {
                        state[idx] = CandidateState::kWitnessed;
                    }
                }
            }
        }
        // Tracked for serial runs too since the cell-batched ball rule
        // reads it.
        last_accept_rate = static_cast<double>(stats.edges_added - accepts_before) /
                           static_cast<double>(bw.size());
        widen = stats.edges_added == accepts_before;
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

}  // namespace gsp
