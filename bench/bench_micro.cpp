// Micro-benchmarks (google-benchmark) for the inner loops everything else
// is built from: limited Dijkstra (one- and two-sided), CSR snapshots, MST,
// net hierarchy, quadtree, WSPD, theta graph, greedy engine configurations.
//
// main() additionally runs a small greedy-kernel sweep and writes the
// BENCH_greedy.json artifact before the registered benchmarks execute, so
// CI can smoke-validate the schema cheaply:
//   ./bench_micro --benchmark_filter='^$'   # JSON only, no benchmarks
#include <benchmark/benchmark.h>

#include <iostream>

#include "greedy_kernel_bench.hpp"

#include "api/candidate_source.hpp"
#include "api/session.hpp"
#include "core/greedy.hpp"
#include "core/greedy_engine.hpp"
#include "core/greedy_metric.hpp"
#include "gen/graphs.hpp"
#include "gen/points.hpp"
#include "graph/incremental_csr.hpp"
#include "graph/dijkstra.hpp"
#include "graph/mst.hpp"
#include "nets/net_hierarchy.hpp"
#include "spanners/theta_graph.hpp"
#include "util/bucket_queue.hpp"
#include "util/dary_heap.hpp"
#include "util/random.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "wspd/quadtree.hpp"
#include "wspd/wspd.hpp"

namespace {

using namespace gsp;

Graph make_graph(std::size_t n) {
    Rng rng(42);
    return random_graph_nm(n, 8 * n, {.lo = 1.0, .hi = 2.0}, rng);
}

EuclideanMetric make_points(std::size_t n) {
    Rng rng(42);
    return uniform_points(n, 2, std::sqrt(static_cast<double>(n)) * 10.0, rng);
}

void BM_DijkstraFull(benchmark::State& state) {
    const Graph g = make_graph(static_cast<std::size_t>(state.range(0)));
    DijkstraWorkspace ws(g.num_vertices());
    VertexId s = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ws.all_distances(g, s, kInfiniteWeight));
        s = (s + 1) % g.num_vertices();
    }
}
BENCHMARK(BM_DijkstraFull)->Arg(1024)->Arg(4096);

void BM_DijkstraLimited(benchmark::State& state) {
    const Graph g = make_graph(static_cast<std::size_t>(state.range(0)));
    DijkstraWorkspace ws(g.num_vertices());
    VertexId s = 0;
    for (auto _ : state) {
        // A tight radius: the greedy's typical query shape.
        benchmark::DoNotOptimize(ws.distance(g, s, (s + 7) % g.num_vertices(), 3.0));
        s = (s + 1) % g.num_vertices();
    }
}
BENCHMARK(BM_DijkstraLimited)->Arg(1024)->Arg(4096);

void BM_DijkstraBidirectional(benchmark::State& state) {
    const Graph g = make_graph(static_cast<std::size_t>(state.range(0)));
    DijkstraWorkspace ws(g.num_vertices());
    VertexId s = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ws.distance_bidirectional(g, s, (s + 7) % g.num_vertices(), 3.0));
        s = (s + 1) % g.num_vertices();
    }
}
BENCHMARK(BM_DijkstraBidirectional)->Arg(1024)->Arg(4096);

void BM_IncrementalCsrMirrorInsert(benchmark::State& state) {
    // The engine's adjacency cost model: mirroring one accepted edge into
    // the gap-buffered incremental view (amortized O(1)).
    Graph g = make_graph(static_cast<std::size_t>(state.range(0)));
    IncrementalCsrView view;
    view.refresh(g);
    VertexId u = 0;
    for (auto _ : state) {
        const EdgeId id = g.add_edge(u, u + 1, 1.0);
        view.add_edge(u, u + 1, 1.0, id);
        u = (u + 2) % static_cast<VertexId>(g.num_vertices() - 1);
        benchmark::DoNotOptimize(view.num_half_edges());
    }
}
BENCHMARK(BM_IncrementalCsrMirrorInsert)->Arg(1024)->Arg(4096);

void BM_KruskalMst(benchmark::State& state) {
    const Graph g = make_graph(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) benchmark::DoNotOptimize(kruskal_mst(g));
}
BENCHMARK(BM_KruskalMst)->Arg(1024)->Arg(4096);

void BM_NetHierarchy(benchmark::State& state) {
    const EuclideanMetric pts = make_points(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) benchmark::DoNotOptimize(NetHierarchy(pts).num_levels());
}
BENCHMARK(BM_NetHierarchy)->Arg(1024)->Arg(4096);

void BM_QuadTree(benchmark::State& state) {
    const EuclideanMetric pts = make_points(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) benchmark::DoNotOptimize(QuadTree(pts).num_nodes());
}
BENCHMARK(BM_QuadTree)->Arg(1024)->Arg(4096);

void BM_Wspd(benchmark::State& state) {
    const EuclideanMetric pts = make_points(static_cast<std::size_t>(state.range(0)));
    const QuadTree tree(pts);
    for (auto _ : state) benchmark::DoNotOptimize(well_separated_pairs(tree, 4.0).size());
}
BENCHMARK(BM_Wspd)->Arg(1024)->Arg(4096);

void BM_ThetaGraph(benchmark::State& state) {
    const EuclideanMetric pts = make_points(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) benchmark::DoNotOptimize(theta_graph(pts, 12).num_edges());
}
BENCHMARK(BM_ThetaGraph)->Arg(512)->Arg(2048);

void BM_GreedyGraph(benchmark::State& state) {
    const Graph g = make_graph(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) benchmark::DoNotOptimize(greedy_spanner(g, 3.0).num_edges());
}
BENCHMARK(BM_GreedyGraph)->Arg(512)->Arg(1024);

void BM_GreedyGraphNaive(benchmark::State& state) {
    const Graph g = make_graph(static_cast<std::size_t>(state.range(0)));
    BuildOptions options;
    options.stretch = 3.0;
    options.engine = EngineTuning::naive();
    SpannerSession session;
    GraphCandidateSource source(g);
    for (auto _ : state) {
        benchmark::DoNotOptimize(session.build(source, options).num_edges());
    }
}
BENCHMARK(BM_GreedyGraphNaive)->Arg(512)->Arg(1024);

void BM_SessionWarmBuild(benchmark::State& state) {
    // The request-serving shape: repeated parallel builds on one warm
    // session (zero pool / workspace construction per iteration).
    const Graph g = make_graph(static_cast<std::size_t>(state.range(0)));
    BuildOptions options;
    options.stretch = 3.0;
    options.engine.num_threads = 2;
    SpannerSession session;
    GraphCandidateSource source(g);
    benchmark::DoNotOptimize(session.build(source, options).num_edges());  // prime
    for (auto _ : state) {
        benchmark::DoNotOptimize(session.build(source, options).num_edges());
    }
}
BENCHMARK(BM_SessionWarmBuild)->Arg(512)->Arg(1024);

void BM_GreedyMetricCached(benchmark::State& state) {
    const EuclideanMetric pts = make_points(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(greedy_spanner_metric(pts, 1.5).num_edges());
    }
}
BENCHMARK(BM_GreedyMetricCached)->Arg(256)->Arg(512);

/// Priority-queue policies for the bounded-probe ablation below: the same
/// radius-limited Dijkstra loop parameterized only by the queue, so the
/// measured delta is purely the queue swap.
struct BucketQueuePolicy {
    static constexpr const char* kName = "bucket queue (BatchedProbe)";
    BucketQueue q;
    void start(Weight limit) { q.reset(limit, 256); }
    void push(Weight key, VertexId v) { q.push(key, v); }
    [[nodiscard]] bool empty() const { return q.empty(); }
    std::pair<Weight, VertexId> pop() {
        const BucketQueue::Item item = q.pop_min();
        return {item.key, item.vertex};
    }
};

template <std::size_t Arity>
struct DaryHeapPolicy {
    static constexpr const char* kName = Arity == 2   ? "2-ary heap"
                                         : Arity == 4 ? "4-ary heap (DijkstraWorkspace)"
                                                      : "8-ary heap";
    struct Item {
        Weight key;
        VertexId v;
        friend bool operator>(const Item& a, const Item& b) { return a.key > b.key; }
    };
    DaryHeap<Item, Arity> q;
    void start(Weight) { q.clear(); }
    void push(Weight key, VertexId v) { q.push({key, v}); }
    [[nodiscard]] bool empty() const { return q.empty(); }
    std::pair<Weight, VertexId> pop() {
        const Item item = q.pop_min();
        return {item.key, item.v};
    }
};

struct QueueProbeRun {
    double seconds = 0.0;
    std::size_t settled = 0;  ///< non-stale pops: identical across queues
};

/// One bounded Dijkstra probe per source over the whole graph -- the
/// group probe's traversal shape (nonnegative keys capped by the radius,
/// monotone pops, no decrease-key).
template <class QueuePolicy>
QueueProbeRun run_bounded_probes(const Graph& g, Weight radius) {
    const std::size_t n = g.num_vertices();
    std::vector<Weight> dist(n, 0.0);
    std::vector<std::uint64_t> stamp(n, 0);
    std::uint64_t epoch = 0;
    QueuePolicy queue;
    QueueProbeRun out;
    const Timer timer;
    for (VertexId s = 0; s < n; ++s) {
        ++epoch;
        queue.start(radius);
        dist[s] = 0.0;
        stamp[s] = epoch;
        queue.push(0.0, s);
        while (!queue.empty()) {
            const auto [d, v] = queue.pop();
            if (d > dist[v]) continue;  // stale entry
            ++out.settled;
            for (const auto& h : g.neighbors(v)) {
                const Weight nd = d + h.weight;
                if (nd > radius) continue;
                if (stamp[h.to] != epoch || nd < dist[h.to]) {
                    stamp[h.to] = epoch;
                    dist[h.to] = nd;
                    queue.push(nd, h.to);
                }
            }
        }
    }
    out.seconds = timer.seconds();
    return out;
}

/// The BatchedProbe queue ablation: the kernel asserts that bounded,
/// monotone, decrease-key-free probes want a calendar queue rather than
/// the D-ary heap DijkstraWorkspace runs; this section measures the swap
/// instead of asserting it. Two radii bracket the kernel's workload: the
/// tight point-query shape and the wider group-probe shape (a group's
/// largest undecided radius bounds its traversal).
void queue_ablation_section() {
    const std::size_t n = 4096;
    const Graph g = make_graph(n);
    const Weight kTight = 3.0;
    const Weight kWide = 6.0;
    std::cout << "== Priority-queue ablation: bounded probes, one per source (n=" << n
              << ") ==\n";
    gsp::Table table({"queue", "r=3 (s)", "speedup", "r=6 (s)", "speedup", "settled"});
    double base_tight = 0.0;
    double base_wide = 0.0;
    std::size_t settled_reference = 0;
    bool settled_agree = true;
    bool first_row = true;
    const auto row = [&](auto policy_tag) {
        using Policy = decltype(policy_tag);
        const QueueProbeRun tight = run_bounded_probes<Policy>(g, kTight);
        const QueueProbeRun wide = run_bounded_probes<Policy>(g, kWide);
        if (first_row) {
            first_row = false;
            base_tight = tight.seconds;
            base_wide = wide.seconds;
            settled_reference = tight.settled + wide.settled;
        }
        settled_agree =
            settled_agree && tight.settled + wide.settled == settled_reference;
        table.add_row({Policy::kName, gsp::fmt(tight.seconds, 3),
                       gsp::fmt_ratio(base_tight / tight.seconds),
                       gsp::fmt(wide.seconds, 3),
                       gsp::fmt_ratio(base_wide / wide.seconds),
                       std::to_string(tight.settled + wide.settled)});
    };
    row(DaryHeapPolicy<2>{});
    row(DaryHeapPolicy<4>{});
    row(DaryHeapPolicy<8>{});
    row(BucketQueuePolicy{});
    table.print(std::cout);
    std::cout << (settled_agree ? "(settled counts identical across queues)"
                                : "(SETTLED COUNT MISMATCH -- queue bug!)")
              << "\n\n";
}

/// The v8 SIMD kernel ablation: each vector kernel (and the radix chunk
/// sort) against its scalar arm on identical inputs, outputs asserted
/// identical before any timing is quoted. Printed as a table here and
/// recorded as the "simd_probe" object of BENCH_greedy.json, where the
/// validator enforces the 1.3x floor on at least two kernels whenever
/// dispatch selected a vector backend.
benchutil::SimdProbeResult simd_ablation_section() {
    const auto probe = benchutil::run_simd_probe();
    std::cout << "== SIMD kernel ablation: scalar vs dispatched (" << probe.backend
              << ") ==\n";
    gsp::Table table({"kernel", "scalar (s)", "simd (s)", "speedup", "outputs"});
    const auto row = [&](const char* name, const benchutil::SimdKernelAblation& a) {
        table.add_row({name, gsp::fmt(a.scalar_seconds, 4), gsp::fmt(a.simd_seconds, 4),
                       gsp::fmt_ratio(a.speedup),
                       a.outputs_identical ? "identical" : "MISMATCHED"});
    };
    row("far_sweep", probe.far_sweep);
    row("distance_batch", probe.distance_batch);
    row("radix_sort (vs stable_sort)", probe.radix_sort);
    table.print(std::cout);
    std::cout << "\n";
    return probe;
}

/// Quick kernel sweep + session-reuse probe + the reduced linear-space
/// memory probe + BENCH_greedy.json, sized for a CI smoke run. Including
/// the session probe here means every PR's smoke job counter-verifies the
/// warm-start contract (the validator fails on any warm pool / workspace
/// construction); including the n = 10^5 memory probe (GSP_MEM_PROBE_N
/// overrides) means every PR certifies the chunked pipeline's linear RSS
/// budget before the full 10^6 history run on main.
void write_smoke_json() {
    Rng rng(42);
    const std::size_t n = 512;
    const Graph g = random_graph_nm(n, 8 * n, {.lo = 1.0, .hi = 2.0}, rng);
    const double t = 2.0;
    const auto runs = benchutil::run_kernel_sweep(g, t);
    const auto session_probe = benchutil::run_session_probe(n, t, 2, 4);
    const auto mem_probe = benchutil::run_mem_probe(benchutil::mem_probe_n(100'000));
    const auto time_probe = benchutil::run_time_probe(benchutil::time_probe_n(100'000));
    const auto simd_probe = simd_ablation_section();
    const std::string path = benchutil::bench_json_path();
    benchutil::write_bench_greedy_json(path, "bench_micro", "random_nm", n,
                                       g.num_edges(), t, runs, mem_probe, time_probe,
                                       &session_probe, nullptr, nullptr, &simd_probe);
    bool all_match = true;
    for (const auto& r : runs) all_match = all_match && r.matches_naive;
    std::size_t mem_high_kb = 0;
    for (const auto& inst : mem_probe.instances) {
        mem_high_kb = std::max(mem_high_kb,
                               inst.rss_after_kb - mem_probe.rss_before_kb);
    }
    std::cout << "wrote " << path << " (smoke sweep, n=" << n
              << ", edge sets " << (all_match ? "identical" : "MISMATCHED")
              << ", warm session constructions "
              << session_probe.warm_pool_constructions << "/"
              << session_probe.warm_workspace_constructions
              << "; mem probe n=" << mem_probe.n << " rss +" << mem_high_kb
              << " KiB of " << mem_probe.rss_budget_kb << " KiB budget, "
              << (mem_probe.within_budget ? "within budget" : "OVER BUDGET")
              << "; time probe n=" << time_probe.n << " "
              << time_probe.us_per_candidate << " us/candidate, cell-ball share "
              << time_probe.cell_ball_share << "; simd probe " << simd_probe.backend << " far-sweep "
              << simd_probe.far_sweep.speedup << "x / dist "
              << simd_probe.distance_batch.speedup << "x / radix "
              << simd_probe.radix_sort.speedup << "x, outputs "
              << (simd_probe.far_sweep.outputs_identical &&
                          simd_probe.distance_batch.outputs_identical &&
                          simd_probe.radix_sort.outputs_identical
                      ? "identical"
                      : "MISMATCHED")
              << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
    write_smoke_json();
    queue_ablation_section();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
