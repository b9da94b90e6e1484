// Runtime scaling experiment (paper §1.2): the exact greedy costs
// ~O(n^2 log n) in metric spaces even with the cached implementation
// [BCF+10], while Algorithm Approximate-Greedy runs in O(n log n) [GLN02].
//
// We time three implementations on the same instances and fit exponents:
//   naive greedy        -- one limited Dijkstra per pair;
//   FG-cached greedy    -- the [BCF+10]-style practical variant;
//   approximate-greedy  -- Theorem 6's algorithm.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <thread>
#include <vector>

#include "greedy_kernel_bench.hpp"
#include "api/candidate_source.hpp"
#include "api/registry.hpp"
#include "api/session.hpp"
#include "core/approx_greedy.hpp"
#include "core/greedy_metric.hpp"
#include "gen/graphs.hpp"
#include "gen/points.hpp"
#include "util/dary_heap.hpp"
#include "util/fit.hpp"
#include "util/random.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

/// Replay a Dijkstra-frontier-shaped op sequence (bursts of pushes with
/// drifting keys, interleaved pops -- the kernel's hot instruction stream)
/// on a d-ary heap; returns seconds. The same pre-generated sequence is
/// fed to every arity, so the delta is purely the heap layout.
struct HeapOp {
    double key;   ///< key to push; pop when count == 0
    int count;    ///< pushes in this burst
};

std::vector<HeapOp> make_heap_workload(std::size_t ops) {
    using namespace gsp;
    Rng rng(7);
    std::vector<HeapOp> seq;
    seq.reserve(ops);
    double frontier = 1.0;
    std::size_t live = 0;
    for (std::size_t i = 0; i < ops; ++i) {
        // Dijkstra pops one vertex, then pushes ~deg relaxations slightly
        // above the current frontier key.
        if (live > 0 && (live > 4096 || rng.chance(0.45))) {
            seq.push_back({0.0, 0});
            --live;
            frontier += 1e-4;
        } else {
            const int burst = static_cast<int>(rng.uniform_int(1, 4));
            seq.push_back({frontier + rng.uniform(0.0, 1.0), burst});
            live += static_cast<std::size_t>(burst);
        }
    }
    return seq;
}

struct ReplayItem {
    double key;
    std::uint32_t v;
    friend bool operator>(const ReplayItem& a, const ReplayItem& b) {
        return a.key > b.key;
    }
};

template <std::size_t Arity>
double time_heap_replay(const std::vector<HeapOp>& seq) {
    using namespace gsp;
    DaryHeap<ReplayItem, Arity> heap;
    double sink = 0.0;
    const Timer timer;
    std::uint32_t id = 0;
    for (const HeapOp& op : seq) {
        if (op.count == 0) {
            if (!heap.empty()) sink += heap.pop_min().key;
        } else {
            for (int k = 0; k < op.count; ++k) heap.push({op.key + 1e-6 * k, id++});
        }
    }
    while (!heap.empty()) sink += heap.pop_min().key;
    const double seconds = timer.seconds();
    if (sink < 0.0) std::cout << "";  // keep the replay observable
    return seconds;
}

/// The ROADMAP's d-ary heap item: the binary std::push_heap/pop_heap pair
/// was the hot loop of every query; DijkstraWorkspace now runs the 4-ary
/// layout. Show the data-structure-level delta on a replayed workload.
void heap_arity_section() {
    const auto seq = make_heap_workload(1u << 21);
    gsp::Table table({"heap", "seconds", "speedup vs 2-ary"});
    const double s2 = time_heap_replay<2>(seq);
    const double s4 = time_heap_replay<4>(seq);
    const double s8 = time_heap_replay<8>(seq);
    table.add_row({"2-ary (pre-PR2 layout)", gsp::fmt(s2, 3), gsp::fmt_ratio(1.0)});
    table.add_row({"4-ary (DijkstraWorkspace)", gsp::fmt(s4, 3), gsp::fmt_ratio(s2 / s4)});
    table.add_row({"8-ary", gsp::fmt(s8, 3), gsp::fmt_ratio(s2 / s8)});
    std::cout << "== Heap arity: replayed kernel frontier workload (2^21 ops) ==\n";
    table.print(std::cout);
    std::cout << "\n";
}

/// Graph-kernel ablation on the stock instance (n = 2^13, m = 16n, t = 2):
/// every GreedyEngine configuration against the naive kernel, edge sets
/// verified in-benchmark, timings dumped to BENCH_greedy.json so the perf
/// trajectory is tracked from this PR onward.
void graph_kernel_section() {
    using namespace gsp;
    const std::size_t n = 1u << 13;
    const std::size_t m = 16 * n;
    const double t = 2.0;
    Rng rng(42);
    const Graph g = random_graph_nm(n, m, {.lo = 1.0, .hi = 2.0}, rng);
    std::cout << "== Graph-kernel ablation: GreedyEngine configurations ==\n"
              << "instance: " << g.summary() << ", t = " << t << "\n\n";

    const auto runs = benchutil::run_kernel_sweep(g, t);
    Table table({"config", "threads", "seconds", "speedup", "|H|", "queries", "balls",
                 "cache hits", "snap accepts", "same edges"});
    const double naive_s = runs.front().seconds;
    double full_s = 0.0;
    double mt4_s = 0.0;
    for (const auto& r : runs) {
        if (std::strcmp(r.config.name, "full") == 0) full_s = r.seconds;
        if (std::strcmp(r.config.name, "full+mt4") == 0) mt4_s = r.seconds;
        table.add_row({r.config.name, std::to_string(r.config.threads), fmt(r.seconds, 3),
                       fmt_ratio(naive_s / r.seconds), std::to_string(r.edges),
                       std::to_string(r.stats.dijkstra_runs),
                       std::to_string(r.stats.balls_computed),
                       std::to_string(r.stats.cache_hits),
                       std::to_string(r.stats.snapshot_accepts),
                       r.matches_naive ? "yes" : "NO"});
    }
    table.print(std::cout);

    bool all_match = true;
    for (const auto& r : runs) all_match = all_match && r.matches_naive;
    std::cout << "\nfull-engine speedup over naive: " << fmt_ratio(naive_s / full_s)
              << "\nparallel (4 workers) speedup over serial full engine: "
              << fmt_ratio(full_s / mt4_s) << " on "
              << std::thread::hardware_concurrency() << " hardware thread(s)"
              << (all_match ? " (all edge sets verified identical)"
                            : " (EDGE SET MISMATCH -- engine bug!)")
              << "\n";

    // Metric-workload probe (n = 2^10, m = n^2/2 candidates): the regime
    // where the stage-2/stage-3 handoff dominates memory traffic. Tracked
    // in the artifact so bench/history/ shows the bytes-per-candidate
    // trajectory next to the kernel-time trajectory.
    const auto probe = benchutil::run_metric_probe(1u << 10, 1.5);
    std::cout << "\n== Metric-workload probe (handoff memory) ==\n";
    Table mtable({"metric", "value"});
    mtable.add_row({"points n", std::to_string(probe.n)});
    mtable.add_row({"candidates m", std::to_string(probe.candidates)});
    mtable.add_row({"cached engine (s, serial)", fmt(probe.serial_seconds, 3)});
    mtable.add_row({"cached engine (s, mt2)", fmt(probe.mt2_seconds, 3)});
    mtable.add_row({"handoff peak bytes", std::to_string(probe.handoff_bytes)});
    mtable.add_row({"bytes per candidate", fmt(probe.bytes_per_candidate, 4)});
    mtable.add_row({"PR-2 handoff (bytes/cand)", fmt(probe.pr2_bytes_per_candidate, 1)});
    mtable.add_row({"mt2 edge set == serial", probe.matches_serial ? "yes" : "NO"});
    mtable.print(std::cout);

    // Accept-heavy probe (clustered-euclidean, accept rate > 30%): the
    // regime where stage 2's far bits go stale fastest, so the accept-rate
    // gate sends most buckets straight to the insertion loop. Serial vs
    // mt2 time and the mt2 == serial edge set are the tracked columns.
    const auto accept_probe = benchutil::run_accept_probe(1u << 10, 1.5);
    std::cout << "\n== Accept-heavy probe (bucket-wide stage 2 under an accept-heavy input) ==\n";
    Table atable({"metric", "value"});
    atable.add_row({"instance", "clustered_geometric n=" + std::to_string(accept_probe.n) +
                                    ", m=" + std::to_string(accept_probe.m)});
    atable.add_row({"accept rate |H|/m", fmt(accept_probe.accept_rate, 3)});
    atable.add_row({"serial (s)", fmt(accept_probe.serial_seconds, 4)});
    atable.add_row({"mt2 (s)", fmt(accept_probe.mt2_seconds, 4)});
    atable.add_row({"snapshot accepts", std::to_string(accept_probe.snapshot_accepts)});
    atable.add_row({"mt2 edge set == serial", accept_probe.matches_serial ? "yes" : "NO"});
    atable.print(std::cout);

    // Session-reuse probe: the request-serving path. One warm session vs a
    // fresh session per call; warm calls must construct zero thread pools
    // and zero workspaces (the v4 acceptance criterion).
    const auto session_probe = benchutil::run_session_probe(1u << 10, 2.0, 2, 6);
    std::cout << "\n== Session-reuse probe (warm SpannerSession vs cold per-call) ==\n";
    Table stable({"metric", "value"});
    stable.add_row({"instance", "random_nm n=" + std::to_string(session_probe.n) +
                                    ", m=" + std::to_string(session_probe.m) +
                                    ", threads=" + std::to_string(session_probe.threads)});
    stable.add_row({"builds per arm", std::to_string(session_probe.builds)});
    stable.add_row({"cold seconds (fresh session each)",
                    fmt(session_probe.cold_seconds, 4)});
    stable.add_row({"warm seconds (one session)", fmt(session_probe.warm_seconds, 4)});
    stable.add_row({"cold setup seconds", fmt(session_probe.cold_setup_seconds, 5)});
    stable.add_row({"warm setup seconds", fmt(session_probe.warm_setup_seconds, 5)});
    stable.add_row({"cold pool / workspace constructions",
                    std::to_string(session_probe.cold_pool_constructions) + " / " +
                        std::to_string(session_probe.cold_workspace_constructions)});
    stable.add_row({"warm pool / workspace constructions (target 0 / 0)",
                    std::to_string(session_probe.warm_pool_constructions) + " / " +
                        std::to_string(session_probe.warm_workspace_constructions)});
    stable.add_row({"warm edge sets == cold", session_probe.matches ? "yes" : "NO"});
    stable.print(std::cout);

    // The v5 linear-space probe: a t = 2 spanner over the grid-pruned
    // streaming candidate source at n = 10^6 (GSP_MEM_PROBE_N overrides;
    // CI's per-PR smoke runs 10^5 through bench_micro). ~100n candidates
    // are streamed one weight window at a time -- materialized they would
    // cost ~100n * 16 B = ~1.6 GiB at 10^6 -- so the probe's RSS delta
    // must stay inside the fixed linear budget the validator enforces.
    const auto mem_probe =
        benchutil::run_mem_probe(benchutil::mem_probe_n(1'000'000));
    std::cout << "\n== Memory probe (chunked greedy over the grid stream, n="
              << mem_probe.n << ", t=" << mem_probe.stretch << ", s="
              << mem_probe.separation << ") ==\n";
    Table memtable({"instance", "gen (s)", "build (s)", "|H|", "candidates",
                    "buffer peak (KiB)", "rss delta (KiB)"});
    for (const auto& inst : mem_probe.instances) {
        memtable.add_row({inst.kind, fmt(inst.gen_seconds, 2),
                          fmt(inst.build_seconds, 2), std::to_string(inst.edges),
                          std::to_string(inst.candidates_streamed),
                          std::to_string(inst.candidate_buffer_peak_bytes / 1024),
                          std::to_string(inst.rss_after_kb - inst.rss_before_kb)});
    }
    memtable.print(std::cout);
    std::cout << "rss budget " << mem_probe.rss_budget_kb << " KiB: "
              << (mem_probe.within_budget ? "within budget" : "OVER BUDGET")
              << "\n";

    // The v6 wall-clock probe: the same grid-streamed shape timed with the
    // cell-batched rejection path on (GSP_TIME_PROBE_N overrides; CI's
    // per-PR smoke runs 10^5 through bench_micro, the history job on main
    // runs the full 10^6 and asserts the 15-minute single-core ceiling).
    const auto time_probe =
        benchutil::run_time_probe(benchutil::time_probe_n(1'000'000));
    std::cout << "\n== Time probe (cell-batched greedy over the grid stream, n="
              << time_probe.n << ", t=" << time_probe.stretch << ", s="
              << time_probe.separation << ") ==\n";
    Table ttable({"gen (s)", "grid (s)", "build (s)", "|H|", "candidates",
                  "us/candidate", "cell balls", "cell-ball share"});
    ttable.add_row({fmt(time_probe.gen_seconds, 2), fmt(time_probe.grid_seconds, 2),
                    fmt(time_probe.build_seconds, 2), std::to_string(time_probe.edges),
                    std::to_string(time_probe.candidates),
                    fmt(time_probe.us_per_candidate, 2),
                    std::to_string(time_probe.cell_balls),
                    fmt(time_probe.cell_ball_share, 3)});
    ttable.print(std::cout);

    // The v8 SIMD kernel ablation: scalar vs dispatch-selected vector
    // table on identical inputs, outputs asserted identical before any
    // timing is recorded (the radix row times the LSD sorter against
    // std::stable_sort).
    const auto simd_probe = benchutil::run_simd_probe();
    std::cout << "\n== SIMD kernel ablation: scalar vs dispatched ("
              << simd_probe.backend << ") ==\n";
    Table simdtable({"kernel", "scalar (s)", "simd (s)", "speedup", "outputs"});
    const auto simd_row = [&](const char* name,
                              const benchutil::SimdKernelAblation& a) {
        simdtable.add_row({name, fmt(a.scalar_seconds, 4), fmt(a.simd_seconds, 4),
                           fmt_ratio(a.speedup),
                           a.outputs_identical ? "identical" : "MISMATCHED"});
    };
    simd_row("far_sweep", simd_probe.far_sweep);
    simd_row("distance_batch", simd_probe.distance_batch);
    simd_row("radix_sort (vs stable_sort)", simd_probe.radix_sort);
    simdtable.print(std::cout);

    const std::string path = benchutil::bench_json_path();
    benchutil::write_bench_greedy_json(path, "bench_runtime", "random_nm", n,
                                       g.num_edges(), t, runs, mem_probe, time_probe,
                                       &session_probe, &probe, &accept_probe, &simd_probe);
    std::cout << "wrote " << path << "\n\n";

    // Parallel-stage scaling probe at t = 3: the reject-heavy regime
    // (ROADMAP's ball-gate probe), where most candidates die in stage 2's
    // read-only prefilter and the worker pool has real work to absorb. The
    // t = 2 ablation above is accept-heavy (~89% of candidates inserted),
    // which serializes by nature -- kept separate so the tracked artifact
    // stays comparable across PRs.
    const double t3 = 3.0;
    std::cout << "== Parallel prefilter scaling (same instance, t = " << t3
              << ", reject-heavy) ==\n";
    Table scale({"config", "threads", "seconds", "speedup vs serial", "snap accepts",
                 "same edges"});
    Graph reference(0);
    double serial_s = 0.0;
    SpannerSession scale_session;  // warm across the whole sweep
    GraphCandidateSource scale_source(g);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        BuildOptions options;
        options.stretch = t3;
        options.engine.num_threads = threads;
        BuildReport report;
        const Graph h = scale_session.build(scale_source, options, &report);
        if (threads == 1) {
            reference = h;
            serial_s = report.seconds;
        }
        scale.add_row({threads == 1 ? "full (serial)" : ("full+mt" + std::to_string(threads)),
                       std::to_string(threads), fmt(report.seconds, 3),
                       fmt_ratio(serial_s / report.seconds),
                       std::to_string(report.stats.snapshot_accepts),
                       same_edge_set(h, reference) ? "yes" : "NO"});
    }
    scale.print(std::cout);
    std::cout << "(workers beyond " << std::thread::hardware_concurrency()
              << " hardware thread(s) cannot speed this host up)\n\n";
}

/// Every registry entry built through one warm SpannerSession over shared
/// instances -- the uniform enumeration the unified API exists for.
void registry_section() {
    using namespace gsp;
    const std::size_t n = 256;
    Rng rng(11);
    const Graph g = random_graph_nm(n, 8 * n, {.lo = 1.0, .hi = 2.0}, rng);
    const EuclideanMetric pts =
        uniform_points(n, 2, std::sqrt(static_cast<double>(n)) * 10.0, rng);
    SpannerSession session;
    BuildOptions options;
    options.stretch = 2.0;

    std::cout << "== Algorithm registry (one warm session, n = " << n << ") ==\n";
    Table table({"algorithm", "input", "seconds", "|H|", "weight", "max deg",
                 "stretch target"});
    const AlgorithmRegistry& registry = AlgorithmRegistry::global();
    for (const AlgorithmInfo* info : registry.algorithms()) {
        const BuildInput input = info->input == InputKind::kGraph ? BuildInput::of(g)
                                                                  : BuildInput::of(pts);
        BuildReport report;
        (void)registry.build(info->name, session, input, options, &report);
        table.add_row({std::string(info->name), std::string(to_string(info->input)),
                       fmt(report.seconds, 3), std::to_string(report.edges),
                       fmt(report.weight, 1), std::to_string(report.max_degree),
                       fmt(report.stretch_target, 2)});
    }
    table.print(std::cout);
    std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
    using namespace gsp;
    heap_arity_section();
    graph_kernel_section();
    // CI's history-recording job only needs the kernel artifact.
    if (argc > 1 && std::strcmp(argv[1], "--kernel-only") == 0) return 0;
    registry_section();

    const double eps = 0.5;
    std::cout << "== Runtime scaling: exact greedy vs approximate-greedy (eps = " << eps
              << ") ==\n\n";

    // Each implementation sweeps as far as its asymptotics allow in a few
    // seconds of wall clock: the naive loop is already ~n^3-ish, the cached
    // one ~n^2 log n, the approximate one ~n log n.
    Table table({"n", "naive greedy (s)", "FG-cached greedy (s)", "approx-greedy (s)",
                 "|H| cached", "|H| approx"});
    std::vector<double> n_naive, naive_s, n_cached, cached_s, n_approx, approx_s;
    for (std::size_t n : {256u, 512u, 1024u, 2048u, 4096u}) {
        Rng rng(3 * n);
        const double extent = std::sqrt(static_cast<double>(n)) * 10.0;
        const EuclideanMetric pts = uniform_points(n, 2, extent, rng);

        SpannerSession session;  // one session per instance: all three share arenas
        MetricCandidateSource pair_source(pts);

        std::string naive_cell = "-";
        if (n <= 512) {
            BuildOptions naive_options;
            naive_options.stretch = 1.0 + eps;
            naive_options.engine = EngineTuning::naive();
            BuildReport naive_report;
            (void)session.build(pair_source, naive_options, &naive_report);
            n_naive.push_back(static_cast<double>(n));
            naive_s.push_back(naive_report.seconds);
            naive_cell = fmt(naive_report.seconds, 3);
        }

        std::string cached_cell = "-";
        std::string cached_size = "-";
        if (n <= 2048) {
            BuildOptions cached_options;
            cached_options.stretch = 1.0 + eps;
            BuildReport cached_report;
            const Graph cached = session.build(pair_source, cached_options, &cached_report);
            n_cached.push_back(static_cast<double>(n));
            cached_s.push_back(cached_report.seconds);
            cached_cell = fmt(cached_report.seconds, 3);
            cached_size = std::to_string(cached.num_edges());
        }

        BuildOptions approx_options;
        approx_options.approx.epsilon = eps;
        approx_options.approx.theta_cones_override = 16;
        const ApproxGreedyResult approx =
            approx_greedy_build(session, pts, approx_options);
        n_approx.push_back(static_cast<double>(n));
        approx_s.push_back(approx.seconds_total);

        table.add_row({std::to_string(n), naive_cell, cached_cell,
                       fmt(approx.seconds_total, 3), cached_size,
                       std::to_string(approx.spanner.num_edges())});
    }
    table.print(std::cout);

    std::cout << "\nfitted exponents: naive ~ n^"
              << fmt(fit_power_law(n_naive, naive_s).exponent, 2) << ", FG-cached ~ n^"
              << fmt(fit_power_law(n_cached, cached_s).exponent, 2) << ", approx ~ n^"
              << fmt(fit_power_law(n_approx, approx_s).exponent, 2)
              << "\npaper expectation: the naive pair loop is super-quadratic; the "
                 "FG-cached variant is the\n~O(n^2 log n) state of the art the paper cites "
                 "as [BCF+10]; approximate-greedy is\nnear-linear (O(n log n), "
                 "[GLN02]/Theorem 6). Cached |H| equals the naive |H| by construction\n"
                 "(identical algorithm; equality is asserted in the test suite).\n";
    return 0;
}
