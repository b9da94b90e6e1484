// Shared harness for the greedy-kernel configuration sweep and the
// machine-readable BENCH_greedy.json artifact.
//
// Both bench_runtime (full-size sweep, the perf-trajectory source of truth)
// and bench_micro (CI smoke that validates the schema) emit the same JSON
// shape, version-tagged "gsp.bench_greedy.v10", built on the library's
// shared JsonWriter + append_greedy_stats serializer (src/api/build_report)
// instead of hand-rolled streams:
//
//   {
//     "schema": "gsp.bench_greedy.v10",
//     "source": "<bench binary>",
//     "stretch": <t>,
//     "instance": {"kind": ..., "n": ..., "m": ...},
//     "configs": [
//       {"name": ..., "bidirectional": ..., "ball_sharing": ...,
//        "csr_snapshot": ..., "threads": ..., "seconds": ...,
//        "edges": ..., "matches_naive": ..., "handoff_bytes": ...,
//        "bytes_per_candidate": ..., "rss_delta_kb": ..., "stats": {...}},
//       ...],
//     "metric_probe": {...},        // bench_runtime only (optional)
//     "accept_probe": {...},        // bench_runtime only (optional)
//     "session_probe": {...},       // the session-reuse probe (v4)
//     "mem_probe": {...},           // the linear-space probe (v5, required)
//     "time_probe": {...},          // the cell-batched probe (v6, required)
//     "simd_probe": {...},          // the SIMD kernel ablation (v8, required)
//     "peak_rss_kb": <ru_maxrss>,
//     "speedup_full_vs_naive": <naive seconds / full seconds>
//   }
//
// v2 added the memory trajectory (handoff bytes-per-candidate, peak RSS,
// the metric-workload probe); v3 the speculative-accept counters and the
// accept-heavy probe. v4 (the unified API) adds the session-reuse probe:
// the same instance built repeatedly through one SpannerSession vs a fresh
// session per call, with the per-call thread-pool / workspace construction
// counters -- warm calls must report zero of each (enforced by
// scripts/validate_bench_json.py), certifying the warm-start contract of
// the request-serving path.
//
// v5 (chunked candidate streaming) makes the RSS accounting honest and
// adds the memory probe. Before, a single getrusage() at JSON-write time
// attributed the process-lifetime maximum to every row; now every config
// row and every probe samples ru_maxrss before and after and reports the
// delta (the high-water mark is monotone, so a zero delta means the phase
// fit inside already-touched memory). The required "mem_probe" object
// builds a t = 2 spanner over the grid-pruned streaming candidate source
// on uniform and clustered 2D instances -- n = 10^6 by default in
// bench_runtime, 10^5 in bench_micro's per-PR smoke, overridable with
// GSP_MEM_PROBE_N -- and must stay inside a fixed linear RSS budget
// (enforced by the validator), certifying the linear-space claim end to
// end: candidates are streamed one window at a time, never materialized.
//
// v7 (multi-target group probes) added the "group_probe" object (v7-v9):
// the same instance built with per-candidate classic balls and with one
// batched traversal per source group, on the metric all-pairs and the
// graph shapes, with a 1.05x us/candidate floor on the metric arm.
//
// v8 (SIMD prefilter backend) adds the required "simd_probe" object: the
// vector kernels (the far-sweep bound scan, the batched 2D distance
// evaluation, and the LSD radix chunk sort vs std::stable_sort; v8-v9 also
// carried the sketch way-probe match) each timed scalar-vs-dispatched on a
// fixed synthetic workload, with outputs asserted identical before any
// timing is reported. The dispatch-selected backend name rides along, and
// the "time_probe" (and, v8-v9, "group_probe") objects record the backend
// their builds executed ("simd_backend") -- the validator refuses history
// comparisons of rows whose backends differ, so a machine change can never
// masquerade as a kernel regression.
//
// v9 (bucket-wide stage 2) retires the speculative repair path: the stats
// blocks, the metric probe and the accept probe drop the repair counters,
// and the accept probe keeps its serial/mt2 timings, snapshot accepts and
// the mt == serial edge-set check.
//
// v10 (the cross-bucket bound sketch deleted) drops the "bound_sketch"
// ablation row and config column, the "sketch_probe" SIMD ablation row,
// "sketch_hits" / "sketch_accepts" / "coarse_rejects" from the stats
// blocks, "sketch_hits" from the metric probe and "coarse_rejects" from
// the time probe. It also drops the "group_probe" ablation: the classic
// full-radius shared ball it measured against is deleted, so every
// non-grid shared group is decided by a group probe and there is no
// second arm to time.
//
// The output path defaults to BENCH_greedy.json in the working directory;
// override with the GSP_BENCH_JSON environment variable.
// scripts/validate_bench_json.py checks the schema in CI.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "api/build_report.hpp"
#include "api/candidate_source.hpp"
#include "api/grid_source.hpp"
#include "api/session.hpp"
#include "core/greedy.hpp"
#include "gen/graphs.hpp"
#include "gen/points.hpp"
#include "graph/graph.hpp"
#include "metric/euclidean.hpp"
#include "simd/radix_sort.hpp"
#include "simd/simd.hpp"
#include "util/json.hpp"
#include "util/random.hpp"
#include "util/rss.hpp"
#include "util/timer.hpp"

namespace gsp::benchutil {

struct KernelConfig {
    const char* name;
    bool bidirectional;
    bool ball_sharing;
    bool csr_snapshot;
    std::size_t threads = 1;  ///< stage-2 workers (1 = serial pipeline)
};

/// The ablation ladder: the naive reference, each optimisation alone, the
/// full serial engine, and the full engine with the parallel prefilter
/// stage at increasing worker counts. kKernelConfigs[0] must stay the
/// naive kernel -- the sweep verifies every other row against its edge
/// set. "full" stays the serial pipeline so the mt rows read as speedup
/// over the serial engine.
inline constexpr KernelConfig kKernelConfigs[] = {
    {"naive", false, false, false},
    {"bidirectional", true, false, false},
    {"ball_sharing", false, true, false},
    {"csr_snapshot", false, false, true},
    {"bidirectional+csr", true, false, true},
    {"full", true, true, true},
    {"full+mt2", true, true, true, 2},
    {"full+mt4", true, true, true, 4},
};

struct KernelRun {
    KernelConfig config;
    double seconds = 0.0;
    std::size_t edges = 0;
    bool matches_naive = false;
    GreedyStats stats;
    /// ru_maxrss high-water mark sampled around this run. The mark is
    /// monotone across the process, so delta = after - before is the
    /// memory growth attributable to *this* configuration (0 when the run
    /// fit inside memory an earlier run already touched).
    std::size_t rss_before_kb = 0;
    std::size_t rss_after_kb = 0;
};

inline BuildOptions options_for(const KernelConfig& config, double t) {
    BuildOptions options;
    options.stretch = t;
    options.engine.bidirectional = config.bidirectional;
    options.engine.ball_sharing = config.ball_sharing;
    options.engine.csr_snapshot = config.csr_snapshot;
    options.engine.num_threads = config.threads;
    return options;
}

/// Run every kernel configuration on (g, t) and verify each edge set
/// against the naive kernel's -- the in-benchmark equivalence check the
/// acceptance criteria require. Each configuration runs in a fresh
/// session (per-call timings stay comparable across the bench history).
inline std::vector<KernelRun> run_kernel_sweep(const Graph& g, double t) {
    std::vector<KernelRun> runs;
    Graph naive_spanner(0);
    for (const KernelConfig& config : kKernelConfigs) {
        KernelRun run;
        run.config = config;
        run.rss_before_kb = process_peak_rss_kb();
        SpannerSession session;
        GraphCandidateSource source(g);
        BuildReport report;
        const Graph h = session.build(source, options_for(config, t), &report);
        run.rss_after_kb = process_peak_rss_kb();
        run.stats = report.stats;
        run.stats.seconds = report.seconds;
        run.seconds = report.seconds;
        run.edges = h.num_edges();
        if (runs.empty()) {
            naive_spanner = h;
            run.matches_naive = true;
        } else {
            run.matches_naive = same_edge_set(h, naive_spanner);
        }
        runs.push_back(std::move(run));
    }
    return runs;
}

/// The metric-workload probe: n points, m = n(n-1)/2 candidates -- the
/// regime where the stage-2/stage-3 handoff dominates memory traffic and
/// the PR-2 verdict/bound arrays cost a flat 9 bytes per candidate (1-byte
/// verdict + 8-byte bound, both sized to the whole run). The artifact
/// tracks the measured bytes-per-candidate of the bucket-local handoff
/// against that baseline.
struct MetricProbeResult {
    std::size_t n = 0;
    std::size_t candidates = 0;
    double stretch = 0.0;
    double serial_seconds = 0.0;
    double mt2_seconds = 0.0;
    std::size_t edges = 0;
    bool matches_serial = false;  ///< mt2 edge set == serial edge set
    std::size_t handoff_bytes = 0;
    double bytes_per_candidate = 0.0;
    /// The PR-2 handoff layout's flat cost on the same run.
    double pr2_bytes_per_candidate = 9.0;
    GreedyStats stats;  ///< serial cached-engine run
    std::size_t rss_before_kb = 0;  ///< ru_maxrss sampled around the probe
    std::size_t rss_after_kb = 0;
};

inline MetricProbeResult run_metric_probe(std::size_t n, double t) {
    Rng rng(1234);
    MetricProbeResult probe;
    probe.rss_before_kb = process_peak_rss_kb();
    const EuclideanMetric pts =
        uniform_points(n, 2, std::sqrt(static_cast<double>(n)) * 10.0, rng);
    probe.n = n;
    probe.candidates = n * (n - 1) / 2;
    probe.stretch = t;

    SpannerSession session;  // one session serves both runs (the API path)
    MetricCandidateSource source(pts);
    BuildOptions options;
    options.stretch = t;

    BuildReport serial_report;
    const Graph serial = session.build(source, options, &serial_report);
    probe.stats = serial_report.stats;
    probe.stats.seconds = serial_report.seconds;
    probe.serial_seconds = serial_report.seconds;
    probe.edges = serial.num_edges();

    options.engine.num_threads = 2;
    BuildReport mt_report;
    const Graph mt = session.build(source, options, &mt_report);
    probe.mt2_seconds = mt_report.seconds;
    probe.matches_serial = same_edge_set(mt, serial);
    // The parallel handoff adds the verdict bitsets; report the larger of
    // the two runs so the column upper-bounds both paths.
    probe.handoff_bytes = std::max(serial_report.stats.handoff_peak_bytes,
                                   mt_report.stats.handoff_peak_bytes);
    probe.bytes_per_candidate =
        static_cast<double>(probe.handoff_bytes) /
        static_cast<double>(probe.candidates == 0 ? 1 : probe.candidates);
    probe.rss_after_kb = process_peak_rss_kb();
    return probe;
}

/// The accept-heavy probe: a clustered-euclidean geometric graph (dense
/// intra-cluster candidate sets with near-parallel alternatives) at
/// moderate stretch, tuned so the greedy keeps > 30% of all candidates --
/// the regime where stage 2's far bits go stale fastest. Times the serial
/// and the 2-worker build, checks their edge sets agree, and reports how
/// many accepts the parallel run took straight from a still-current
/// stage-2 far bit.
struct AcceptProbeResult {
    std::size_t n = 0;
    std::size_t m = 0;  ///< candidate edges
    double stretch = 0.0;
    double accept_rate = 0.0;  ///< |H| / m
    double serial_seconds = 0.0;
    double mt2_seconds = 0.0;
    std::size_t edges = 0;
    bool matches_serial = false;
    std::size_t snapshot_accepts = 0;
    std::size_t rss_before_kb = 0;  ///< ru_maxrss sampled around the probe
    std::size_t rss_after_kb = 0;
};

inline AcceptProbeResult run_accept_probe(std::size_t n, double t) {
    Rng rng(7);
    AcceptProbeResult probe;
    probe.rss_before_kb = process_peak_rss_kb();
    const Graph g = clustered_geometric(n, 12, 60.0, 1.0, 0.6, rng);
    probe.n = n;
    probe.m = g.num_edges();
    probe.stretch = t;

    SpannerSession session;
    GraphCandidateSource source(g);
    BuildOptions options;
    options.stretch = t;

    BuildReport serial_report;
    const Graph serial = session.build(source, options, &serial_report);
    probe.serial_seconds = serial_report.seconds;
    probe.edges = serial.num_edges();
    probe.accept_rate =
        static_cast<double>(serial.num_edges()) / static_cast<double>(g.num_edges());

    options.engine.num_threads = 2;
    BuildReport mt;
    const Graph parallel = session.build(source, options, &mt);
    probe.mt2_seconds = mt.seconds;
    probe.matches_serial = same_edge_set(parallel, serial);
    probe.snapshot_accepts = mt.stats.snapshot_accepts;
    probe.rss_after_kb = process_peak_rss_kb();
    return probe;
}

/// The session-reuse probe: the same parallel build run `builds` times
/// through one warm SpannerSession vs a fresh session per call. The
/// counters certify the tentpole's warm-start claim -- a warm build()
/// constructs zero thread pools and zero Dijkstra workspaces (the
/// validator enforces both at exactly 0) -- and the seconds columns show
/// the per-call setup cost eliminated.
struct SessionProbeResult {
    std::size_t n = 0;
    std::size_t m = 0;
    double stretch = 0.0;
    std::size_t threads = 0;
    std::size_t builds = 0;  ///< measured calls per arm (after the warm prime)
    double cold_seconds = 0.0;       ///< sum over fresh-session calls
    double warm_seconds = 0.0;       ///< sum over warm calls of one session
    double cold_setup_seconds = 0.0; ///< engine/pool acquisition, fresh sessions
    double warm_setup_seconds = 0.0; ///< same, warm session (should be ~0)
    std::size_t cold_pool_constructions = 0;
    std::size_t cold_workspace_constructions = 0;
    std::size_t warm_pool_constructions = 0;       ///< must be 0
    std::size_t warm_workspace_constructions = 0;  ///< must be 0
    bool matches = true;  ///< every warm edge set == the cold edge set
    std::size_t rss_before_kb = 0;  ///< ru_maxrss sampled around the probe
    std::size_t rss_after_kb = 0;
};

inline SessionProbeResult run_session_probe(std::size_t n, double t,
                                            std::size_t threads, std::size_t builds) {
    Rng rng(99);
    SessionProbeResult probe;
    probe.rss_before_kb = process_peak_rss_kb();
    const Graph g = random_graph_nm(n, 8 * n, {.lo = 1.0, .hi = 2.0}, rng);
    probe.n = n;
    probe.m = g.num_edges();
    probe.stretch = t;
    probe.threads = threads;
    probe.builds = builds;

    BuildOptions options;
    options.stretch = t;
    options.engine.num_threads = threads;
    GraphCandidateSource source(g);

    Graph reference(0);
    for (std::size_t i = 0; i < builds; ++i) {
        SpannerSession cold;  // pays pool + workspace construction every call
        BuildReport report;
        Graph h = cold.build(source, options, &report);
        probe.cold_seconds += report.seconds;
        probe.cold_setup_seconds += report.setup_seconds;
        probe.cold_pool_constructions += report.pools_constructed;
        probe.cold_workspace_constructions += report.workspaces_constructed;
        if (i == 0) reference = std::move(h);
    }

    SpannerSession warm;
    {
        BuildReport prime;  // first call of the session pays construction once
        (void)warm.build(source, options, &prime);
    }
    for (std::size_t i = 0; i < builds; ++i) {
        BuildReport report;
        const Graph h = warm.build(source, options, &report);
        probe.warm_seconds += report.seconds;
        probe.warm_setup_seconds += report.setup_seconds;
        probe.warm_pool_constructions += report.pools_constructed;
        probe.warm_workspace_constructions += report.workspaces_constructed;
        probe.matches = probe.matches && same_edge_set(h, reference);
    }
    probe.rss_after_kb = process_peak_rss_kb();
    return probe;
}

/// One instance of the linear-space memory probe: a t = 2 greedy build
/// over the grid-pruned streaming candidate source, with the candidate
/// accounting and the per-instance ru_maxrss samples that certify the
/// candidates were streamed, never materialized.
struct MemProbeInstance {
    std::string kind;  ///< "uniform" | "clustered"
    double gen_seconds = 0.0;    ///< instance generation (streaming emitter)
    double build_seconds = 0.0;  ///< session.build() wall clock
    std::size_t edges = 0;
    double weight = 0.0;
    double stretch_target = 0.0;  ///< dumbbell bound t(s+4)/(s-4)
    std::size_t candidates_streamed = 0;
    std::size_t candidate_buffer_peak_bytes = 0;  ///< peak resident chunk
    std::size_t rss_before_kb = 0;
    std::size_t rss_after_kb = 0;
};

/// The v5 headline probe: can the chunked pipeline build a t = 2 spanner
/// on n = 10^6 2D points inside a fixed *linear* RSS budget? Candidate
/// counts are ~100n at s = 5 (near pairs enumerated exactly below the
/// cutoff, one representative pair per ring cell pair above it), so a
/// materialized run would need ~100n * 16 B = ~1.6 GiB at n = 10^6; the
/// streamed run's candidate buffer peaks at one window instead, and the
/// budget below leaves room only for the O(n) structures (points, grid
/// levels, the spanner, workspaces).
struct MemProbeResult {
    std::size_t n = 0;
    double stretch = 0.0;     ///< engine t over the candidate stream
    double separation = 0.0;  ///< grid separation s (> 4)
    std::size_t rss_budget_kb = 0;  ///< kMemProbeBudget* evaluated at n
    std::size_t rss_before_kb = 0;  ///< high-water mark at probe start
    bool within_budget = true;      ///< max(after) - before <= budget
    std::vector<MemProbeInstance> instances;
};

/// The linear RSS budget of the memory probe: a flat base (binary, heap
/// warmup, earlier probes' small instances) plus a per-point allowance
/// covering coordinates (16 B), the grid hierarchy (~30 B across levels),
/// the spanner adjacency lists (~1.44 edges/point), Dijkstra workspaces,
/// the incremental CSR mirror, and allocator slack. Calibrated against
/// measured high-waters of +62,680 KiB at n = 10^5 and +185,380 KiB at
/// n = 3x10^5 (uniform + clustered, single-core Release) --
/// a 2.96x delta for 3x the points, confirming the linear model -- so
/// 896 B/point gives ~1.8-2.3x headroom at those shapes and ~1.45x at
/// 10^6 under straight extrapolation (~630 MiB) while staying far below what any
/// materializing run needs -- the candidate array alone is 16 B x 7.9M
/// = 121 MiB at 10^5 (vs a 149 MiB total budget) and ~2.5 GiB at 10^6
/// (vs 918 MiB). The validator re-derives within_budget from the raw
/// samples, so a change that starts materializing candidates fails CI.
inline constexpr std::size_t kMemProbeBudgetBaseKb = 65536;       // 64 MiB
inline constexpr std::size_t kMemProbeBudgetBytesPerPoint = 896;  // ~0.88 KiB

inline std::size_t mem_probe_budget_kb(std::size_t n) {
    return kMemProbeBudgetBaseKb + n * kMemProbeBudgetBytesPerPoint / 1024;
}

/// Probe size: `fallback` unless the GSP_MEM_PROBE_N environment variable
/// overrides it (CI's per-PR smoke runs the reduced 10^5 shape; the
/// history job on main runs the full 10^6).
inline std::size_t mem_probe_n(std::size_t fallback) {
    if (const char* env = std::getenv("GSP_MEM_PROBE_N")) {
        const unsigned long long v = std::strtoull(env, nullptr, 10);
        if (v > 0) return static_cast<std::size_t>(v);
    }
    return fallback;
}

inline MemProbeResult run_mem_probe(std::size_t n, double t = 2.0,
                                    double separation = 5.0) {
    MemProbeResult probe;
    probe.n = n;
    probe.stretch = t;
    probe.separation = separation;
    probe.rss_budget_kb = mem_probe_budget_kb(n);
    probe.rss_before_kb = process_peak_rss_kb();

    SpannerSession session;  // one session: both builds share the buffer
    BuildOptions options;
    options.stretch = t;
    const double extent = std::sqrt(static_cast<double>(n)) * 10.0;

    const auto run_instance = [&](const char* kind, double gen_seconds,
                                  std::size_t rss_before,
                                  const EuclideanMetric& pts) {
        MemProbeInstance inst;
        inst.kind = kind;
        inst.gen_seconds = gen_seconds;
        inst.rss_before_kb = rss_before;
        GridCandidateSource source(pts, separation);
        BuildReport report;
        const Graph h = session.build(source, options, &report);
        inst.build_seconds = report.seconds;
        inst.edges = h.num_edges();
        inst.weight = h.total_weight();
        inst.stretch_target = report.stretch_target;
        inst.candidates_streamed = report.stats.candidates_streamed;
        inst.candidate_buffer_peak_bytes = report.stats.candidate_buffer_peak_bytes;
        inst.rss_after_kb = process_peak_rss_kb();
        probe.within_budget =
            probe.within_budget &&
            inst.rss_after_kb - probe.rss_before_kb <= probe.rss_budget_kb;
        probe.instances.push_back(std::move(inst));
    };

    {
        Rng rng(2026);
        std::size_t before = process_peak_rss_kb();
        Timer timer;
        const EuclideanMetric uniform = uniform_points(n, 2, extent, rng);
        run_instance("uniform", timer.seconds(), before, uniform);
    }
    {
        // The clustered instance goes through the streaming emitter --
        // cluster centers resident, one point at a time into the flat
        // coordinate array -- the n = 10^6-capable generator path.
        Rng rng(2027);
        std::size_t before = process_peak_rss_kb();
        Timer timer;
        std::vector<double> coords;
        coords.reserve(n * 2);
        // n/100 clusters of ~100 points with spread extent/40 keeps the local
        // density ~2x uniform; tighter clusters (n/1000, extent/50) triple the
        // candidate count and the probe's build time with it.
        stream_clustered_points(n, 2, std::max<std::size_t>(n / 100, 1), extent,
                                extent / 40.0, rng,
                                [&](std::span<const double> p) {
                                    coords.insert(coords.end(), p.begin(), p.end());
                                });
        const EuclideanMetric clustered(2, std::move(coords));
        run_instance("clustered", timer.seconds(), before, clustered);
    }
    return probe;
}

/// The v6 headline probe: wall-clock of the grid-streamed t = 2 build
/// with the cell-batched rejection path on (the grid source's default),
/// reported as microseconds per streamed candidate so runs at different
/// n remain comparable. The cell-ball share (batched decisions over all
/// candidates) attributes where the amortization came from; the
/// validator enforces the us/candidate ceiling at the reduced CI shape
/// and the end-to-end build ceiling at the full n = 10^6 history shape.
struct TimeProbeResult {
    std::size_t n = 0;
    double stretch = 0.0;
    double separation = 0.0;
    double gen_seconds = 0.0;    ///< uniform point generation
    double grid_seconds = 0.0;   ///< grid hierarchy construction (source ctor)
    double build_seconds = 0.0;  ///< session.build() wall clock
    std::size_t edges = 0;
    std::size_t candidates = 0;
    double us_per_candidate = 0.0;
    std::size_t cell_balls = 0;
    std::size_t cell_ball_decisions = 0;
    double cell_ball_share = 0.0;  ///< cell_ball_decisions / candidates
    std::size_t dijkstra_runs = 0;
    std::string simd_backend;  ///< dispatch-resolved backend of this build (v8)
};

/// Probe size: `fallback` unless GSP_TIME_PROBE_N overrides it (CI's
/// per-PR smoke runs the reduced 10^5 shape; the history job on main
/// runs the full 10^6 with the 15-minute single-core assertion).
inline std::size_t time_probe_n(std::size_t fallback) {
    if (const char* env = std::getenv("GSP_TIME_PROBE_N")) {
        const unsigned long long v = std::strtoull(env, nullptr, 10);
        if (v > 0) return static_cast<std::size_t>(v);
    }
    return fallback;
}

inline TimeProbeResult run_time_probe(std::size_t n, double t = 2.0,
                                      double separation = 5.0) {
    TimeProbeResult probe;
    probe.n = n;
    probe.stretch = t;
    probe.separation = separation;
    const double extent = std::sqrt(static_cast<double>(n)) * 10.0;

    Rng rng(2026);
    Timer gen_timer;
    const EuclideanMetric pts = uniform_points(n, 2, extent, rng);
    probe.gen_seconds = gen_timer.seconds();

    Timer grid_timer;
    GridCandidateSource source(pts, separation);
    probe.grid_seconds = grid_timer.seconds();

    // Default engine tuning: the grid source flips cell batching on.
    SpannerSession session;
    BuildOptions options;
    options.stretch = t;
    BuildReport report;
    const Graph h = session.build(source, options, &report);

    probe.build_seconds = report.seconds;
    probe.edges = h.num_edges();
    probe.candidates = report.stats.candidates_streamed;
    probe.us_per_candidate =
        probe.candidates > 0
            ? probe.build_seconds * 1e6 / static_cast<double>(probe.candidates)
            : 0.0;
    probe.cell_balls = report.stats.cell_balls;
    probe.cell_ball_decisions = report.stats.cell_ball_decisions;
    probe.cell_ball_share =
        probe.candidates > 0
            ? static_cast<double>(probe.cell_ball_decisions) /
                  static_cast<double>(probe.candidates)
            : 0.0;
    probe.dijkstra_runs = report.stats.dijkstra_runs;
    probe.simd_backend = report.simd_backend;
    return probe;
}

/// One row of the v8 SIMD kernel ablation: the same workload through the
/// scalar reference table and through the dispatch-selected vector table
/// (or, for the radix row, std::stable_sort vs the LSD radix sorter).
/// outputs_identical is checked *before* any timing is recorded -- a row
/// whose arms disagree reports false and the validator hard-fails, so a
/// speedup can never be quoted for a kernel that changed answers.
struct SimdKernelAblation {
    double scalar_seconds = 0.0;
    double simd_seconds = 0.0;
    double speedup = 0.0;  ///< scalar_seconds / simd_seconds
    bool outputs_identical = false;
};

struct SimdProbeResult {
    std::string backend;  ///< dispatch-selected vector table ("scalar" = no-op ablation)
    SimdKernelAblation far_sweep;       ///< sorted-radii bound sweep
    SimdKernelAblation distance_batch;  ///< batched 2D Euclidean distances
    SimdKernelAblation radix_sort;      ///< LSD radix vs std::stable_sort
};

namespace detail {

/// Keeps timed-loop results observable without pulling in a benchmark
/// library dependency (the header is shared by bench_micro and
/// bench_runtime, only the former links google-benchmark).
inline void simd_probe_sink(std::uint64_t v) {
    [[maybe_unused]] static volatile std::uint64_t s = 0;
    s = v;
}

template <typename F>
double simd_probe_min_seconds(int reps, F&& f) {
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps; ++r) {
        Timer timer;
        f();
        best = std::min(best, timer.seconds());
    }
    return best;
}

}  // namespace detail

/// The v8 kernel ablation: fixed synthetic workloads sized like the shapes
/// the engine actually feeds each kernel (bucket-scale sorted sweeps,
/// chunk-scale distance batches, chunk-scale candidate sorts). Every row
/// first proves its two arms produce identical bytes, then reports
/// min-of-reps wall clock for each arm. On a machine whose dispatch
/// resolves to scalar the vector rows degenerate to speedup 1.0x by
/// construction -- the validator only enforces speedup floors when backend
/// != "scalar".
inline SimdProbeResult run_simd_probe() {
    SimdProbeResult probe;
    const simd::Kernels& vec = simd::auto_kernels();
    const simd::Kernels& sca = simd::scalar_kernels();
    probe.backend = simd::backend_label(vec);
    constexpr int kReps = 5;
    Rng rng(20260808);

    {  // far sweep: one sorted key array, many probe radii from index 0.
        constexpr std::size_t kKeys = 1u << 15;
        constexpr std::size_t kProbes = 2048;
        std::vector<double> keys(kKeys);
        double acc = 0.0;
        for (double& k : keys) {
            // Duplicate-heavy ascending keys: ties exercise the strict
            // `< d` boundary the verdict classification depends on.
            acc += static_cast<double>(rng.index(3));
            k = acc;
        }
        std::vector<double> probes(kProbes);
        for (double& d : probes) d = rng.uniform(0.0, acc * 1.05);
        std::vector<std::size_t> out_s(kProbes);
        std::vector<std::size_t> out_v(kProbes);
        for (std::size_t i = 0; i < kProbes; ++i) {
            out_s[i] = sca.sweep_lower_bound(keys.data(), 0, kKeys, probes[i]);
            out_v[i] = vec.sweep_lower_bound(keys.data(), 0, kKeys, probes[i]);
        }
        probe.far_sweep.outputs_identical = out_s == out_v;
        const auto arm = [&](const simd::Kernels& k) {
            std::uint64_t sum = 0;
            for (std::size_t i = 0; i < kProbes; ++i) {
                sum += k.sweep_lower_bound(keys.data(), 0, kKeys, probes[i]);
            }
            detail::simd_probe_sink(sum);
        };
        probe.far_sweep.scalar_seconds =
            detail::simd_probe_min_seconds(kReps, [&] { arm(sca); });
        probe.far_sweep.simd_seconds =
            detail::simd_probe_min_seconds(kReps, [&] { arm(vec); });
    }

    {  // distance batch: chunk-scale coordinate arrays, one pass per rep.
        constexpr std::size_t kN = 1u << 16;
        constexpr int kInner = 16;
        std::vector<double> ax(kN), ay(kN), bx(kN), by(kN);
        for (std::size_t i = 0; i < kN; ++i) {
            ax[i] = rng.uniform(0.0, 1e4);
            ay[i] = rng.uniform(0.0, 1e4);
            bx[i] = rng.uniform(0.0, 1e4);
            by[i] = rng.uniform(0.0, 1e4);
        }
        std::vector<double> out_s(kN), out_v(kN);
        sca.distances2d(ax.data(), ay.data(), bx.data(), by.data(), kN, out_s.data());
        vec.distances2d(ax.data(), ay.data(), bx.data(), by.data(), kN, out_v.data());
        probe.distance_batch.outputs_identical =
            std::memcmp(out_s.data(), out_v.data(), kN * sizeof(double)) == 0;
        const auto arm = [&](const simd::Kernels& k, std::vector<double>& out) {
            for (int j = 0; j < kInner; ++j) {
                k.distances2d(ax.data(), ay.data(), bx.data(), by.data(), kN,
                              out.data());
            }
            detail::simd_probe_sink(static_cast<std::uint64_t>(out[kN - 1]));
        };
        probe.distance_batch.scalar_seconds =
            detail::simd_probe_min_seconds(kReps, [&] { arm(sca, out_s); });
        probe.distance_batch.simd_seconds =
            detail::simd_probe_min_seconds(kReps, [&] { arm(vec, out_v); });
    }

    {  // radix sort: chunk-scale candidates, tie-heavy quantized weights.
        constexpr std::size_t kN = 1u << 18;
        std::vector<GreedyCandidate> input(kN);
        for (GreedyCandidate& c : input) {
            c.u = static_cast<VertexId>(rng.index(kN));
            c.v = static_cast<VertexId>(rng.index(kN));
            // Quantized weights: long equal-key plateaus, the stability-
            // sensitive shape (and the one grid streams actually emit).
            c.weight = static_cast<double>(rng.index(4096)) * 0.25;
        }
        const auto cmp = [](const GreedyCandidate& a, const GreedyCandidate& b) {
            return std::tie(a.weight, a.u, a.v) < std::tie(b.weight, b.u, b.v);
        };
        std::vector<GreedyCandidate> ref = input;
        std::stable_sort(ref.begin(), ref.end(), cmp);
        simd::CandidateRadixSorter sorter;
        std::vector<GreedyCandidate> got = input;
        sorter.sort(got);
        probe.radix_sort.outputs_identical =
            std::memcmp(ref.data(), got.data(), kN * sizeof(GreedyCandidate)) == 0;
        // Timed by hand rather than via simd_probe_min_seconds: each rep
        // re-copies the pristine input, and that copy must stay outside
        // the timed region of both arms.
        probe.radix_sort.scalar_seconds = std::numeric_limits<double>::infinity();
        probe.radix_sort.simd_seconds = std::numeric_limits<double>::infinity();
        std::vector<GreedyCandidate> work;
        for (int r = 0; r < kReps; ++r) {
            work = input;
            Timer sort_timer;
            std::stable_sort(work.begin(), work.end(), cmp);
            probe.radix_sort.scalar_seconds =
                std::min(probe.radix_sort.scalar_seconds, sort_timer.seconds());
            detail::simd_probe_sink(work.back().u);
            work = input;
            Timer radix_timer;
            sorter.sort(work);
            probe.radix_sort.simd_seconds =
                std::min(probe.radix_sort.simd_seconds, radix_timer.seconds());
            detail::simd_probe_sink(work.back().u);
        }
    }

    const auto finish = [](SimdKernelAblation& a) {
        a.speedup = a.simd_seconds > 0.0 ? a.scalar_seconds / a.simd_seconds : 0.0;
    };
    finish(probe.far_sweep);
    finish(probe.distance_batch);
    finish(probe.radix_sort);
    return probe;
}

/// Process peak RSS in KiB (0 where unsupported). Kept as the top-level
/// JSON field's reader; per-row attribution uses before/after samples of
/// the same counter (util/rss.hpp).
inline std::size_t peak_rss_kb() { return process_peak_rss_kb(); }

inline std::string bench_json_path() {
    const char* env = std::getenv("GSP_BENCH_JSON");
    return env != nullptr ? std::string(env) : std::string("BENCH_greedy.json");
}

inline void write_bench_greedy_json(const std::string& path, const std::string& source,
                                    const std::string& instance_kind, std::size_t n,
                                    std::size_t m, double t,
                                    const std::vector<KernelRun>& runs,
                                    const MemProbeResult& mem_probe,
                                    const TimeProbeResult& time_probe,
                                    const SessionProbeResult* session_probe = nullptr,
                                    const MetricProbeResult* metric_probe = nullptr,
                                    const AcceptProbeResult* accept_probe = nullptr,
                                    const SimdProbeResult* simd_probe = nullptr) {
    JsonWriter w;
    w.begin_object();
    w.member("schema", "gsp.bench_greedy.v10");
    w.member("source", source);
    w.member("stretch", t);
    w.key("instance").begin_object();
    w.member("kind", instance_kind);
    w.member("n", n);
    w.member("m", m);
    w.end_object();

    w.key("configs").begin_array();
    for (const KernelRun& r : runs) {
        const double bpc = static_cast<double>(r.stats.handoff_peak_bytes) /
                           static_cast<double>(m == 0 ? 1 : m);
        w.begin_object();
        w.member("name", r.config.name);
        w.member("bidirectional", r.config.bidirectional);
        w.member("ball_sharing", r.config.ball_sharing);
        w.member("csr_snapshot", r.config.csr_snapshot);
        w.member("threads", r.config.threads);
        w.member("seconds", r.seconds);
        w.member("edges", r.edges);
        w.member("matches_naive", r.matches_naive);
        w.member("handoff_bytes", r.stats.handoff_peak_bytes);
        w.member("bytes_per_candidate", bpc);
        w.member("rss_delta_kb", r.rss_after_kb - r.rss_before_kb);
        w.key("stats").begin_object();
        append_greedy_stats(w, r.stats);
        w.end_object();
        w.end_object();
    }
    w.end_array();

    if (metric_probe != nullptr) {
        const MetricProbeResult& p = *metric_probe;
        w.key("metric_probe").begin_object();
        w.member("kind", "euclidean_uniform");
        w.member("n", p.n);
        w.member("candidates", p.candidates);
        w.member("stretch", p.stretch);
        w.member("serial_seconds", p.serial_seconds);
        w.member("mt2_seconds", p.mt2_seconds);
        w.member("edges", p.edges);
        w.member("matches_serial", p.matches_serial);
        w.member("handoff_bytes", p.handoff_bytes);
        w.member("bytes_per_candidate", p.bytes_per_candidate);
        w.member("pr2_bytes_per_candidate", p.pr2_bytes_per_candidate);
        w.member("dijkstra_runs", p.stats.dijkstra_runs);
        w.member("rss_delta_kb", p.rss_after_kb - p.rss_before_kb);
        w.end_object();
    }
    if (accept_probe != nullptr) {
        const AcceptProbeResult& p = *accept_probe;
        w.key("accept_probe").begin_object();
        w.member("kind", "clustered_geometric");
        w.member("n", p.n);
        w.member("m", p.m);
        w.member("stretch", p.stretch);
        w.member("accept_rate", p.accept_rate);
        w.member("serial_seconds", p.serial_seconds);
        w.member("mt2_seconds", p.mt2_seconds);
        w.member("edges", p.edges);
        w.member("matches_serial", p.matches_serial);
        w.member("snapshot_accepts", p.snapshot_accepts);
        w.member("rss_delta_kb", p.rss_after_kb - p.rss_before_kb);
        w.end_object();
    }
    if (session_probe != nullptr) {
        const SessionProbeResult& p = *session_probe;
        w.key("session_probe").begin_object();
        w.member("kind", "random_nm");
        w.member("n", p.n);
        w.member("m", p.m);
        w.member("stretch", p.stretch);
        w.member("threads", p.threads);
        w.member("builds", p.builds);
        w.member("cold_seconds", p.cold_seconds);
        w.member("warm_seconds", p.warm_seconds);
        w.member("cold_setup_seconds", p.cold_setup_seconds);
        w.member("warm_setup_seconds", p.warm_setup_seconds);
        w.member("cold_pool_constructions", p.cold_pool_constructions);
        w.member("cold_workspace_constructions", p.cold_workspace_constructions);
        w.member("warm_pool_constructions", p.warm_pool_constructions);
        w.member("warm_workspace_constructions", p.warm_workspace_constructions);
        w.member("matches", p.matches);
        w.member("rss_delta_kb", p.rss_after_kb - p.rss_before_kb);
        w.end_object();
    }

    {
        const MemProbeResult& p = mem_probe;
        w.key("mem_probe").begin_object();
        w.member("kind", "grid_stream");
        w.member("n", p.n);
        w.member("stretch", p.stretch);
        w.member("separation", p.separation);
        w.member("rss_budget_kb", p.rss_budget_kb);
        w.member("rss_before_kb", p.rss_before_kb);
        w.member("within_budget", p.within_budget);
        w.key("instances").begin_array();
        for (const MemProbeInstance& inst : p.instances) {
            w.begin_object();
            w.member("kind", inst.kind);
            w.member("gen_seconds", inst.gen_seconds);
            w.member("build_seconds", inst.build_seconds);
            w.member("edges", inst.edges);
            w.member("weight", inst.weight);
            w.member("stretch_target", inst.stretch_target);
            w.member("candidates_streamed", inst.candidates_streamed);
            w.member("candidate_buffer_peak_bytes", inst.candidate_buffer_peak_bytes);
            w.member("rss_before_kb", inst.rss_before_kb);
            w.member("rss_after_kb", inst.rss_after_kb);
            w.member("rss_delta_kb", inst.rss_after_kb - inst.rss_before_kb);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }

    {
        const TimeProbeResult& p = time_probe;
        w.key("time_probe").begin_object();
        w.member("kind", "grid_stream_uniform");
        w.member("n", p.n);
        w.member("stretch", p.stretch);
        w.member("separation", p.separation);
        w.member("gen_seconds", p.gen_seconds);
        w.member("grid_seconds", p.grid_seconds);
        w.member("build_seconds", p.build_seconds);
        w.member("edges", p.edges);
        w.member("candidates", p.candidates);
        w.member("us_per_candidate", p.us_per_candidate);
        w.member("cell_balls", p.cell_balls);
        w.member("cell_ball_decisions", p.cell_ball_decisions);
        w.member("cell_ball_share", p.cell_ball_share);
        w.member("dijkstra_runs", p.dijkstra_runs);
        w.member("simd_backend", p.simd_backend);
        w.end_object();
    }

    if (simd_probe != nullptr) {
        const SimdProbeResult& p = *simd_probe;
        const auto write_kernel = [&w](const char* key, const SimdKernelAblation& a) {
            w.key(key).begin_object();
            w.member("scalar_seconds", a.scalar_seconds);
            w.member("simd_seconds", a.simd_seconds);
            w.member("speedup", a.speedup);
            w.member("outputs_identical", a.outputs_identical);
            w.end_object();
        };
        w.key("simd_probe").begin_object();
        w.member("backend", p.backend);
        write_kernel("far_sweep", p.far_sweep);
        write_kernel("distance_batch", p.distance_batch);
        write_kernel("radix_sort", p.radix_sort);
        w.end_object();
    }

    w.member("peak_rss_kb", peak_rss_kb());
    // Named lookups: the ladder may append parallel rows after "full", so
    // ratios reference configs by name rather than position.
    const auto seconds_of = [&runs](const std::string& name) -> double {
        for (const KernelRun& r : runs) {
            if (name == r.config.name) return r.seconds;
        }
        return 0.0;
    };
    const double naive_s = runs.front().seconds;
    const double full_s = seconds_of("full");
    const double mt_s = seconds_of("full+mt4");
    w.member("speedup_full_vs_naive", full_s > 0.0 ? naive_s / full_s : 0.0);
    w.member("speedup_parallel_vs_full",
             mt_s > 0.0 && full_s > 0.0 ? full_s / mt_s : 0.0);
    w.end_object();

    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path);
    out << w.str() << "\n";
}

}  // namespace gsp::benchutil
