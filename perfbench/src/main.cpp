// perfbench: the repository benchmark program.
//
//   perfbench --workload <grid-2d|metric-allpairs|parallel-mt4|registry-mix>
//             --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//   perfbench --self-test      checker self-test (corrupted spanners must fail)
//   perfbench --identity       print the default-seed fingerprint table
//
// One run: identity guard -> set-up (repeated kSetupReps times; the last
// set-up's session is the warm one) -> measured rounds for --seconds ->
// check phase (audits, repeat-build identity, mt-vs-serial edge sets) ->
// with --trace 1, a layer phase that times each layer in isolation. The
// last stdout line is the result object; the host context, every metric
// computed and (traced) the spans go to files under --out.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "api/build_options.hpp"
#include "api/build_report.hpp"
#include "api/candidate_source.hpp"
#include "api/grid_source.hpp"
#include "api/registry.hpp"
#include "api/session.hpp"
#include "checker.hpp"
#include "graph/dijkstra.hpp"
#include "instances.hpp"
#include "simd/dispatch.hpp"
#include "simd/radix_sort.hpp"
#include "simd/simd.hpp"
#include "trace.hpp"
#include "util/random.hpp"
#include "util/rss.hpp"
#include "util/timer.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

int run_self_test();  // selftest.cpp

namespace {

constexpr int kSetupReps = 3;
constexpr std::size_t kMinRounds = 3;
constexpr std::size_t kMinRequests = 1000;
constexpr std::size_t kQuerySamples = 1000;
constexpr std::size_t kRadixSampleMax = 1 << 20;
constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
    WorkloadId workload = WorkloadId::kGrid2d;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir = ".bench_out";
};

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t k = v.size() / 2;
    return v.size() % 2 == 1 ? v[k] : 0.5 * (v[k - 1] + v[k]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Metrics {
    std::vector<Metric> items;
    void add(std::string name, double value, std::string unit) {
        items.push_back(Metric{std::move(name), value, std::move(unit)});
    }
};

std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& items) {
    std::string out = "{";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out += ", ";
        out += quoted(items[i].name) + ": {\"value\": " + number(items[i].value) +
               ", \"unit\": " + quoted(items[i].unit) + "}";
    }
    return out + "}";
}

/// Builds attempted / failed, with one note per failure kind.
struct Tally {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> notes;

    void note(const std::string& what) {
        if (notes.size() < 32) notes.push_back(what);
    }
};

/// Everything a repeat build is checked against: the cold build's output.
struct Reference {
    gsp::Graph h;
    gsp::BuildReport report;
    std::uint64_t hash = 0;
    bool ok = false;            ///< the cold build returned
    std::size_t attempts = 0;   ///< cold + measured builds of this request kind
    std::size_t bad = 0;        ///< measured builds that threw or diverged
    bool invalid = false;       ///< the check phase rejected the output itself
    std::size_t warm_constructions = 0;
};

/// Run one build, time it, and check it against `ref` (cold when !ref.ok).
template <class BuildFn>
double timed_build(Reference& ref, const std::string& label, long request, bool cold,
                   Tally& tally, BuildFn&& build) {
    ++ref.attempts;
    gsp::BuildReport report;
    gsp::Graph h;
    double seconds = 0.0;
    try {
        const ScopedSpan span(label, request);
        const gsp::Timer timer;
        h = build(report);
        seconds = timer.seconds();
    } catch (const std::exception& e) {
        ++ref.bad;
        tally.note(label + " threw: " + e.what());
        return 0.0;
    }
    if (cold) {
        ref.h = std::move(h);
        ref.report = report;
        ref.hash = edge_set_hash(ref.h);
        ref.ok = true;
        return seconds;
    }
    const std::size_t constructions = report.pools_constructed + report.workspaces_constructed;
    ref.warm_constructions += constructions;
    if (!ref.ok || edge_set_hash(h) != ref.hash || constructions != 0) {
        ++ref.bad;
        tally.note(label + ": warm build diverged from its cold build");
    }
    return seconds;
}

/// The paper's size and weight parameters over a workload's distinct
/// outputs: geometric means, so every output weighs the same in relative
/// terms (registry-mix mixes outputs whose lightness differs by orders of
/// magnitude), and the largest degree.
struct Quality {
    double edges_per_vertex = 0.0;
    double lightness = 0.0;
    double max_degree = 0.0;
    std::size_t outputs = 0;

    void add(const OutputAudit& a) {
        edges_per_vertex += std::log(a.edges_per_vertex);
        lightness += std::log(a.lightness);
        max_degree = std::max(max_degree, static_cast<double>(a.max_degree));
        ++outputs;
    }
    void finish() {
        if (outputs == 0) return;
        edges_per_vertex = std::exp(edges_per_vertex / static_cast<double>(outputs));
        lightness = std::exp(lightness / static_cast<double>(outputs));
    }
};

/// Audit one reference output; an invalid output fails every build of it.
void audit_reference(Reference& ref, const Instance& inst, double mst, std::uint64_t seed,
                     gsp::DijkstraWorkspace& ws, Quality& quality, Tally& tally,
                     const std::string& label) {
    if (!ref.ok) return;
    const OutputAudit a =
        audit_output(inst.input(), ref.h, ref.report.stretch_target, mst, seed, ws);
    quality.add(a);
    if (!a.stretch_ok) {
        ref.invalid = true;
        tally.note(label + ": audited stretch " + number(a.max_stretch) + " exceeds target " +
                   number(ref.report.stretch_target));
    }
}

void settle(const Reference& ref, Tally& tally) {
    tally.attempted += ref.attempts;
    tally.failed += ref.invalid ? ref.attempts : ref.bad;
}

std::size_t nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

std::size_t engine_threads(WorkloadId w) {
    return w == WorkloadId::kParallelMt4 ? std::min(kMtMaxThreads, nproc()) : 1;
}

// ------------------------------------------------------------ layer probes --

/// Keeps a timed loop's result observable so the loop is not optimized away.
void consume(double v) {
    static volatile double sink = 0.0;
    sink = sink + v;
}

/// Seconds to drain a source's candidates without the engine; appends up
/// to `sample_cap` of them to `sample` (the radix-sort input).
double drain_source(gsp::CandidateSource& source, std::size_t soft_cap,
                    std::vector<gsp::GreedyCandidate>& sample, std::size_t sample_cap,
                    std::size_t& drained) {
    const ScopedSpan span("source.drain");
    std::vector<gsp::GreedyCandidate> buf;
    drained = 0;
    const gsp::Timer timer;
    if (source.chunk_support() == gsp::ChunkSupport::kStreaming) {
        auto chunks = source.chunks();
        while (chunks->next_chunk(soft_cap, buf)) {
            drained += buf.size();
            for (std::size_t i = 0; i < buf.size() && sample.size() < sample_cap; ++i) {
                sample.push_back(buf[i]);
            }
            buf.clear();
        }
    } else {
        source.materialize(buf);
        drained = buf.size();
        const std::size_t take = std::min(buf.size(), sample_cap - sample.size());
        sample.insert(sample.end(), buf.begin(), buf.begin() + static_cast<long>(take));
    }
    return timer.seconds();
}

/// ns per pair of the dispatch-resolved distances2d kernel, one source
/// broadcast against every point of `pts` (median of 5 timed sweeps).
double distances2d_ns_per_pair(const gsp::EuclideanMetric& pts) {
    const ScopedSpan span("simd.distances2d");
    const std::size_t n = pts.size();
    std::vector<double> x(n), y(n), ax(n), ay(n), out(n);
    for (gsp::VertexId i = 0; i < n; ++i) {
        x[i] = pts.point(i)[0];
        y[i] = pts.point(i)[1];
    }
    const gsp::simd::Kernels& k = gsp::simd::auto_kernels();
    const std::size_t sources = std::max<std::size_t>(1, (1u << 23) / n);
    std::vector<double> samples;
    double sink = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
        const gsp::Timer timer;
        for (std::size_t s = 0; s < sources; ++s) {
            std::fill(ax.begin(), ax.end(), x[s % n]);
            std::fill(ay.begin(), ay.end(), y[s % n]);
            k.distances2d(ax.data(), ay.data(), x.data(), y.data(), n, out.data());
            sink += out[s % n];
        }
        samples.push_back(timer.seconds() * 1e9 / static_cast<double>(sources * n));
    }
    consume(sink);
    return median(samples);
}

/// ns per candidate of the LSD radix sorter on a seeded shuffle of
/// `sample` (median of 3).
double radix_sort_ns_per_cand(std::vector<gsp::GreedyCandidate> sample, std::uint64_t seed) {
    const ScopedSpan span("simd.radix_sort");
    if (sample.empty()) return 0.0;
    gsp::Rng rng(seed);
    rng.shuffle(sample);
    gsp::simd::CandidateRadixSorter sorter;
    std::vector<double> samples;
    for (int rep = 0; rep < 3; ++rep) {
        std::vector<gsp::GreedyCandidate> v = sample;
        const gsp::Timer timer;
        sorter.sort(v);
        samples.push_back(timer.seconds() * 1e9 / static_cast<double>(v.size()));
    }
    return median(samples);
}

/// Mean microseconds of bounded bidirectional queries on h: random point
/// pairs at limit t * d(u, v), or random input edges at t * w.
double query_us(const Instance& inst, const gsp::Graph& h, double t, std::uint64_t seed,
                gsp::DijkstraWorkspace& ws, std::size_t& queries) {
    const ScopedSpan span("dijkstra.query");
    gsp::Rng rng(seed);
    struct Pair {
        gsp::VertexId u, v;
        double limit;
    };
    std::vector<Pair> pairs;
    const std::size_t n = inst.vertices();
    for (std::size_t i = 0; i < kQuerySamples; ++i) {
        if (inst.graph != nullptr) {
            const gsp::Edge& e = inst.graph->edges()[rng.index(inst.graph->num_edges())];
            pairs.push_back({e.u, e.v, t * e.weight});
        } else {
            const auto u = static_cast<gsp::VertexId>(rng.index(n));
            auto v = static_cast<gsp::VertexId>(rng.index(n));
            if (v == u) v = static_cast<gsp::VertexId>((u + 1) % n);
            pairs.push_back({u, v, t * inst.points->distance(u, v)});
        }
    }
    ws.resize(n);
    double sink = 0.0;
    const gsp::Timer timer;
    for (const Pair& p : pairs) sink += ws.distance_bidirectional(h, p.u, p.v, p.limit);
    const double seconds = timer.seconds();
    consume(sink);
    queries += pairs.size();
    return seconds * 1e6;
}

// ---------------------------------------------------------- batch workloads --

struct Job {
    const Instance* inst = nullptr;
    gsp::BuildOptions options;
    std::unique_ptr<gsp::CandidateSource> source;
    bool grid = false;
    bool allpairs = false;
    Reference ref;
    std::vector<double> build_s;  ///< warm builds (traced rounds only, in a traced run)
    gsp::BuildReport warm;        ///< the last warm build's report
};

struct BatchState {
    std::vector<Instance> instances;
    std::vector<Job> jobs;
    std::unique_ptr<gsp::SpannerSession> session;
};

struct SetupTimes {
    std::vector<double> total, gen, construct, cold;
};

BatchState batch_setup(WorkloadId w, std::uint64_t seed, Tally& tally, SetupTimes& times) {
    const ScopedSpan setup_span("setup");
    BatchState st;
    const gsp::Timer total;
    {
        const ScopedSpan span("gen.instance");
        const gsp::Timer timer;
        st.instances = generate_instances(w, seed);
        check_descriptors(w, st.instances);
        times.gen.push_back(timer.seconds());
    }
    const std::size_t threads = engine_threads(w);
    double construct = 0.0;
    for (const Instance& inst : st.instances) {
        Job job;
        job.inst = &inst;
        job.options.engine.num_threads = threads;
        const gsp::Timer timer;
        if (w == WorkloadId::kGrid2d) {
            const ScopedSpan span("grid.construct");
            job.options.stretch = kGridStretch;
            job.options.geometric.wspd_separation = kGridSeparation;
            job.source = std::make_unique<gsp::GridCandidateSource>(*inst.points, kGridSeparation);
            job.grid = true;
            construct += timer.seconds();
        } else if (inst.graph != nullptr) {
            const ScopedSpan span("source.construct");
            job.options.stretch = kMtGraphStretch;
            job.source = std::make_unique<gsp::GraphCandidateSource>(*inst.graph);
        } else {
            const ScopedSpan span("source.construct");
            job.options.stretch =
                w == WorkloadId::kParallelMt4 ? kMtMetricStretch : kAllpairsStretch;
            job.source = std::make_unique<gsp::MetricCandidateSource>(*inst.points);
            job.allpairs = true;
        }
        st.jobs.push_back(std::move(job));
    }
    times.construct.push_back(construct);
    st.session = std::make_unique<gsp::SpannerSession>();
    double cold = 0.0;
    for (Job& job : st.jobs) {
        cold += timed_build(job.ref, "session.cold_build", -1, true, tally,
                            [&](gsp::BuildReport& r) {
                                return st.session->build(*job.source, job.options, &r);
                            });
    }
    times.cold.push_back(cold);
    times.total.push_back(total.seconds());
    return st;
}

struct RunResult {
    Metrics e2e;
    Metrics layers;
    Tally tally;
    std::string simd_backend;
    std::size_t rounds = 0;    ///< round_s samples
    std::size_t requests = 0;  ///< request_ms samples
};

void add_common_e2e(Metrics& m, const std::vector<double>& rounds,
                    const std::vector<double>& request_s, const SetupTimes& times,
                    double rss_mb, const Quality& q, const Tally& tally) {
    std::vector<double> request_ms;
    for (const double s : request_s) request_ms.push_back(s * 1e3);
    const double busy = std::accumulate(request_s.begin(), request_s.end(), 0.0);
    m.add("round_s", median(rounds), "s");
    m.add("request_ms_p50", median(request_ms), "ms");
    m.add("request_ms_p99", percentile(request_ms, 0.99), "ms");
    m.add("requests_per_s", ratio(static_cast<double>(request_s.size()), busy), "1/s");
    m.add("setup_s", median(times.total), "s");
    m.add("peak_rss_mb", rss_mb, "MB");
    m.add("edges_per_vertex", q.edges_per_vertex, "edges/vertex");
    m.add("lightness", q.lightness, "ratio");
    m.add("max_degree", q.max_degree, "count");
    m.add("ok_frac",
          tally.attempted == 0
              ? 0.0
              : 1.0 - static_cast<double>(tally.failed) / static_cast<double>(tally.attempted),
          "frac");
}

RunResult run_batch(const Args& args) {
    RunResult res;
    Tally& tally = res.tally;
    Tracer& tr = tracer();
    SetupTimes times;
    BatchState st;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        st = BatchState{};  // free the previous set-up before building the next
        Tally scratch;      // only the kept set-up's cold builds are counted
        st = batch_setup(args.workload, args.seed, rep + 1 == kSetupReps ? tally : scratch,
                         times);
    }

    // Measured rounds. A traced run alternates traced and untraced rounds
    // (the untraced ones only feed trace.overhead_frac).
    std::vector<double> rounds, untraced_rounds, request_s;
    const gsp::Timer clock;
    for (std::size_t r = 0;; ++r) {
        const bool traced = args.trace && r % 2 == 0;
        tr.set_enabled(traced);
        double round = 0.0;
        {
            const ScopedSpan span("round");
            for (Job& job : st.jobs) {
                const double s = timed_build(job.ref, "session.build:" + job.inst->name, -1,
                                             false, tally, [&](gsp::BuildReport& rep) {
                                                 gsp::Graph h = st.session->build(
                                                     *job.source, job.options, &rep);
                                                 job.warm = rep;
                                                 return h;
                                             });
                round += s;
                if (!args.trace || traced) {
                    job.build_s.push_back(s);
                    request_s.push_back(s);
                }
            }
        }
        (traced || !args.trace ? rounds : untraced_rounds).push_back(round);
        if (clock.seconds() >= args.seconds && rounds.size() >= kMinRounds &&
            (!args.trace || !untraced_rounds.empty())) {
            break;
        }
    }
    tr.set_enabled(args.trace);
    const double rss_mb = static_cast<double>(gsp::process_peak_rss_kb()) / 1024.0;

    // Check phase.
    Quality quality;
    gsp::DijkstraWorkspace ws;
    std::vector<double> serial_s(st.jobs.size(), 0.0);
    std::vector<std::size_t> serial_runs(st.jobs.size(), 0);
    const gsp::Timer audit_timer;
    {
        const ScopedSpan span("audit");
        for (std::size_t i = 0; i < st.jobs.size(); ++i) {
            Job& job = st.jobs[i];
            const Instance& inst = *job.inst;
            audit_reference(job.ref, inst, input_mst_weight(inst.input()), args.seed, ws,
                            quality, tally, inst.name);
            if (!job.ref.ok) continue;
            if (job.allpairs) {
                const std::size_t n = inst.vertices();
                if (job.ref.report.candidates != n * (n - 1) / 2) {
                    throw std::runtime_error(inst.name + ": all-pairs candidate count " +
                                             std::to_string(job.ref.report.candidates) +
                                             " is not n(n-1)/2");
                }
            }
            if (job.options.engine.num_threads > 1) {
                // The mt edge set must equal the serial one. A second serial
                // build on the warm serial session times it for mt.speedup.
                const ScopedSpan serial_span("audit.serial_reference");
                gsp::SpannerSession serial;
                gsp::BuildOptions options = job.options;
                options.engine.num_threads = 1;
                gsp::BuildReport rep;
                const gsp::Graph h = serial.build(*job.source, options, &rep);
                if (!gsp::same_edge_set(h, job.ref.h)) {
                    job.ref.invalid = true;
                    tally.note(inst.name + ": mt edge set differs from the serial edge set");
                }
                if (args.trace) (void)serial.build(*job.source, options, &rep);
                serial_s[i] = rep.seconds;
                serial_runs[i] = rep.stats.dijkstra_runs;
            }
        }
    }
    const double audit_s = audit_timer.seconds();
    quality.finish();
    std::size_t warm_constructions = 0;
    for (Job& job : st.jobs) {
        settle(job.ref, tally);
        warm_constructions += job.ref.warm_constructions;
        if (res.simd_backend.empty()) res.simd_backend = job.ref.report.simd_backend;
    }
    if (warm_constructions != 0) tally.note("warm builds constructed pools or workspaces");

    res.rounds = rounds.size();
    res.requests = request_s.size();
    add_common_e2e(res.e2e, rounds, request_s, times, rss_mb, quality, tally);
    if (!args.trace) return res;

    // Layer phase: each layer timed on its own.
    Metrics& m = res.layers;
    const ScopedSpan layers_span("layers");
    double grid_stream = 0.0, materialize = 0.0, self = 0.0, candidates = 0.0,
           grid_candidates = 0.0, grid_vertices = 0.0, build_total = 0.0;
    std::vector<gsp::GreedyCandidate> sample;
    gsp::GreedyStats sum;
    std::size_t cand_peak = 0, handoff_peak = 0, queries = 0;
    double query_total_us = 0.0;
    double mt_serial = 0.0, mt_par = 0.0, mt_runs_serial = 0.0, mt_runs_par = 0.0,
           mt_candidates = 0.0, mt_rejects = 0.0, mt_snapshot = 0.0;
    std::map<std::string, double> mt_speedup, mt_dijkstra;
    for (std::size_t i = 0; i < st.jobs.size(); ++i) {
        Job& job = st.jobs[i];
        std::size_t drained = 0;
        const double drain = drain_source(*job.source, job.options.engine.chunk_soft_cap,
                                          sample, kRadixSampleMax, drained);
        const double build = median(job.build_s);
        build_total += build;
        self += build - drain;
        const gsp::GreedyStats& s = job.warm.stats;
        candidates += static_cast<double>(job.warm.candidates);
        if (job.grid) {
            grid_stream += drain;
            grid_candidates += static_cast<double>(drained);
            grid_vertices += static_cast<double>(job.inst->vertices());
        }
        if (job.allpairs) materialize += drain;
        sum.dijkstra_runs += s.dijkstra_runs;
        sum.edges_added += s.edges_added;
        sum.edges_examined += s.edges_examined;
        sum.cell_balls += s.cell_balls;
        sum.cell_ball_decisions += s.cell_ball_decisions;
        sum.coarse_rejects += s.coarse_rejects;
        sum.group_probes += s.group_probes;
        sum.group_probe_decisions += s.group_probe_decisions;
        sum.group_probe_early_exits += s.group_probe_early_exits;
        sum.sketch_hits += s.sketch_hits;
        sum.prefilter_gated_off += s.prefilter_gated_off;
        sum.repairs += s.repairs;
        sum.repair_fallbacks += s.repair_fallbacks;
        sum.csr_compactions += s.csr_compactions;
        cand_peak = std::max(cand_peak, s.candidate_buffer_peak_bytes);
        handoff_peak = std::max(handoff_peak, s.handoff_peak_bytes);
        query_total_us += query_us(*job.inst, job.ref.h, job.options.stretch, args.seed + i, ws,
                                   queries);
        if (serial_s[i] > 0.0) {
            mt_serial += serial_s[i];
            mt_par += build;
            mt_runs_serial += static_cast<double>(serial_runs[i]);
            mt_runs_par += static_cast<double>(s.dijkstra_runs);
            // Stage-2 outcomes: rejects the insertion loop took from a
            // prefilter verdict or a stage-2 bound, and certified accepts.
            mt_candidates += static_cast<double>(job.warm.candidates);
            mt_rejects += static_cast<double>(s.prefilter_rejects + s.cache_hits);
            mt_snapshot += static_cast<double>(s.snapshot_accepts);
            mt_speedup[job.inst->name] = ratio(serial_s[i], build);
            mt_dijkstra[job.inst->name] =
                ratio(static_cast<double>(s.dijkstra_runs), static_cast<double>(serial_runs[i]));
        }
    }
    const Instance* points = nullptr;
    for (const Job& job : st.jobs) {
        if (points == nullptr && job.inst->points != nullptr) points = job.inst;
    }

    m.add("gen.instance_s", median(times.gen), "s");
    m.add("session.cold_build_s", median(times.cold), "s");
    m.add("grid.construct_s", args.workload == WorkloadId::kGrid2d ? median(times.construct) : 0.0,
          "s");
    m.add("session.warm_constructions", static_cast<double>(warm_constructions), "count");
    m.add("grid.stream_s", grid_stream, "s");
    m.add("grid.candidates_per_vertex", ratio(grid_candidates, grid_vertices), "cand/vertex");
    m.add("engine.cell_ball_yield",
          ratio(static_cast<double>(sum.cell_ball_decisions), static_cast<double>(sum.cell_balls)),
          "cand/ball");
    m.add("engine.coarse_reject_share", ratio(static_cast<double>(sum.coarse_rejects), candidates),
          "frac");
    m.add("metric.materialize_s", materialize, "s");
    m.add("simd.distances2d_ns_per_pair",
          points != nullptr ? distances2d_ns_per_pair(*points->points) : 0.0, "ns");
    m.add("simd.radix_sort_ns_per_cand", radix_sort_ns_per_cand(sample, args.seed), "ns");
    m.add("engine.group_probe_yield",
          ratio(static_cast<double>(sum.group_probe_decisions),
                static_cast<double>(sum.group_probes)),
          "cand/probe");
    m.add("engine.group_probe_early_exit_share",
          ratio(static_cast<double>(sum.group_probe_early_exits),
                static_cast<double>(sum.group_probes)),
          "frac");
    m.add("engine.sketch_hit_share", ratio(static_cast<double>(sum.sketch_hits), candidates),
          "frac");
    m.add("prefilter.reject_share", ratio(mt_rejects, mt_candidates), "frac");
    m.add("prefilter.snapshot_accept_share", ratio(mt_snapshot, mt_candidates), "frac");
    m.add("prefilter.gated_off", static_cast<double>(sum.prefilter_gated_off), "count");
    m.add("mt.speedup", ratio(mt_serial, mt_par), "x");
    m.add("mt.speedup.gnm", mt_speedup["gnm"], "x");
    m.add("mt.speedup.allpairs", mt_speedup["allpairs"], "x");
    m.add("mt.dijkstra_ratio", ratio(mt_runs_par, mt_runs_serial), "x");
    m.add("mt.dijkstra_ratio.gnm", mt_dijkstra["gnm"], "x");
    m.add("mt.dijkstra_ratio.allpairs", mt_dijkstra["allpairs"], "x");
    m.add("repair.share",
          ratio(static_cast<double>(sum.repairs),
                static_cast<double>(sum.repairs + sum.repair_fallbacks)),
          "frac");
    m.add("repair.fallbacks", static_cast<double>(sum.repair_fallbacks), "count");
    m.add("csr.compactions", static_cast<double>(sum.csr_compactions), "count");
    m.add("engine.self_s", self, "s");
    m.add("engine.us_per_candidate", ratio(build_total * 1e6, candidates), "us");
    m.add("engine.dijkstra_per_kcand",
          ratio(static_cast<double>(sum.dijkstra_runs) * 1e3, candidates), "runs/kcand");
    m.add("engine.accept_rate",
          ratio(static_cast<double>(sum.edges_added), static_cast<double>(sum.edges_examined)),
          "frac");
    m.add("dijkstra.query_us", ratio(query_total_us, static_cast<double>(queries)), "us");
    m.add("engine.candidate_buffer_peak_mb", static_cast<double>(cand_peak) / kMiB, "MB");
    m.add("engine.handoff_peak_mb", static_cast<double>(handoff_peak) / kMiB, "MB");
    m.add("audit.s", audit_s, "s");
    m.add("trace.overhead_frac", ratio(median(rounds), median(untraced_rounds)) - 1.0, "frac");
    return res;
}

// ------------------------------------------------------------ registry-mix --

struct Combo {
    const gsp::AlgorithmInfo* info = nullptr;
    const Instance* inst = nullptr;
    Reference ref;
};

struct RegistryState {
    std::vector<Instance> instances;
    std::vector<Combo> combos;
    std::unique_ptr<gsp::SpannerSession> session;
};

gsp::BuildOptions registry_options() {
    gsp::BuildOptions options;
    // Route greedy-approx through the cluster oracle (cluster/ + its
    // measured-cost gate); every other field stays at its default.
    options.approx.use_cluster_oracle = true;
    return options;
}

gsp::Graph registry_build(gsp::SpannerSession& session, const Combo& c,
                          const gsp::BuildOptions& options, gsp::BuildReport& report) {
    const gsp::BuildInput input = c.inst->graph != nullptr
                                      ? gsp::BuildInput::of(*c.inst->graph)
                                      : gsp::BuildInput::of(*c.inst->points);
    return gsp::AlgorithmRegistry::global().build(c.info->name, session, input, options,
                                                  &report);
}

RegistryState registry_setup(std::uint64_t seed, const gsp::BuildOptions& options,
                             Tally& tally, SetupTimes& times) {
    const ScopedSpan setup_span("setup");
    RegistryState st;
    const gsp::Timer total;
    {
        const ScopedSpan span("gen.instance");
        const gsp::Timer timer;
        st.instances = generate_instances(WorkloadId::kRegistryMix, seed);
        check_descriptors(WorkloadId::kRegistryMix, st.instances);
        times.gen.push_back(timer.seconds());
    }
    for (std::size_t i = 0; i < st.instances.size(); i += 2) {
        const Instance& graph = st.instances[i];
        const Instance& points = st.instances[i + 1];
        for (const gsp::AlgorithmInfo* info : gsp::AlgorithmRegistry::global().algorithms()) {
            st.combos.push_back(
                Combo{info, info->input == gsp::InputKind::kGraph ? &graph : &points, {}});
        }
    }
    times.construct.push_back(0.0);
    st.session = std::make_unique<gsp::SpannerSession>();
    double cold = 0.0;
    for (Combo& c : st.combos) {
        cold += timed_build(c.ref, "session.cold_build", -1, true, tally,
                            [&](gsp::BuildReport& r) {
                                return registry_build(*st.session, c, options, r);
                            });
    }
    times.cold.push_back(cold);
    times.total.push_back(total.seconds());
    return st;
}

RunResult run_registry(const Args& args) {
    RunResult res;
    Tally& tally = res.tally;
    Tracer& tr = tracer();
    const gsp::BuildOptions options = registry_options();
    SetupTimes times;
    RegistryState st;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        st = RegistryState{};
        Tally scratch;
        st = registry_setup(args.seed, options, rep + 1 == kSetupReps ? tally : scratch, times);
    }

    // Closed loop, one client: each deck is a seeded shuffle of every
    // (algorithm, size) request; the next request is sent when the
    // previous one returns.
    std::vector<std::size_t> order(st.combos.size());
    std::iota(order.begin(), order.end(), 0);
    gsp::Rng deck_rng(args.seed ^ 0x9e3779b97f4a7c15ULL);
    std::vector<double> decks, untraced_decks, request_s;
    std::map<std::string, std::vector<double>> per_alg_ms;
    long request = 0;
    const gsp::Timer clock;
    for (std::size_t d = 0;; ++d) {
        const bool traced = args.trace && d % 2 == 0;
        tr.set_enabled(traced);
        deck_rng.shuffle(order);
        double deck = 0.0;
        {
            const ScopedSpan span("deck");
            for (const std::size_t idx : order) {
                Combo& c = st.combos[idx];
                const double s = timed_build(
                    c.ref, "registry." + std::string(c.info->name), request++, false, tally,
                    [&](gsp::BuildReport& r) { return registry_build(*st.session, c, options, r); });
                deck += s;
                if (!args.trace || traced) {
                    request_s.push_back(s);
                    per_alg_ms[std::string(c.info->name)].push_back(s * 1e3);
                }
            }
        }
        (traced || !args.trace ? decks : untraced_decks).push_back(deck);
        if (clock.seconds() >= args.seconds && static_cast<std::size_t>(request) >= kMinRequests &&
            (!args.trace || !untraced_decks.empty())) {
            break;
        }
    }
    tr.set_enabled(args.trace);
    const double rss_mb = static_cast<double>(gsp::process_peak_rss_kb()) / 1024.0;

    Quality quality;
    gsp::DijkstraWorkspace ws;
    std::map<const Instance*, double> mst;
    const gsp::Timer audit_timer;
    {
        const ScopedSpan span("audit");
        for (Combo& c : st.combos) {
            auto it = mst.find(c.inst);
            if (it == mst.end()) it = mst.emplace(c.inst, input_mst_weight(c.inst->input())).first;
            audit_reference(c.ref, *c.inst, it->second, args.seed, ws, quality, tally,
                            std::string(c.info->name) + "/" + c.inst->name);
            if (c.ref.ok && c.info->name == "greedy-metric") {
                const std::size_t n = c.inst->vertices();
                if (c.ref.report.candidates != n * (n - 1) / 2) {
                    throw std::runtime_error(c.inst->name +
                                             ": all-pairs candidate count is not n(n-1)/2");
                }
            }
        }
    }
    const double audit_s = audit_timer.seconds();
    quality.finish();
    std::size_t warm_constructions = 0;
    for (const Combo& c : st.combos) {
        settle(c.ref, tally);
        warm_constructions += c.ref.warm_constructions;
        if (res.simd_backend.empty()) res.simd_backend = c.ref.report.simd_backend;
    }
    if (res.simd_backend.empty()) res.simd_backend = gsp::simd::backend_name(gsp::simd::detect());

    res.rounds = decks.size();
    res.requests = request_s.size();
    add_common_e2e(res.e2e, decks, request_s, times, rss_mb, quality, tally);
    if (!args.trace) return res;

    Metrics& m = res.layers;
    const ScopedSpan layers_span("layers");
    m.add("gen.instance_s", median(times.gen), "s");
    m.add("session.cold_build_s", median(times.cold), "s");
    m.add("session.warm_constructions", static_cast<double>(warm_constructions), "count");
    for (const auto& [alg, ms] : per_alg_ms) m.add("registry." + alg + ".ms_p50", median(ms), "ms");
    const Instance& largest = st.instances.back();  // the largest point set
    std::vector<gsp::GreedyCandidate> sample;
    {
        gsp::MetricCandidateSource source(*largest.points);
        std::size_t drained = 0;
        (void)drain_source(source, 1 << 16, sample, kRadixSampleMax, drained);
    }
    m.add("simd.distances2d_ns_per_pair", distances2d_ns_per_pair(*largest.points), "ns");
    m.add("simd.radix_sort_ns_per_cand", radix_sort_ns_per_cand(sample, args.seed), "ns");
    m.add("audit.s", audit_s, "s");
    m.add("trace.overhead_frac", ratio(median(decks), median(untraced_decks)) - 1.0, "frac");
    return res;
}

// ------------------------------------------------------------------ output --

/// Every per-layer metric, in BENCHMARK.json order; a name missing from
/// `m` (the layer does not run on this workload) is filled with 0.
const std::pair<const char*, const char*> kLayerUnits[] = {
    {"gen.instance_s", "s"},
    {"session.cold_build_s", "s"},
    {"grid.construct_s", "s"},
    {"session.warm_constructions", "count"},
    {"registry.greedy.ms_p50", "ms"},
    {"registry.greedy-metric.ms_p50", "ms"},
    {"registry.greedy-approx.ms_p50", "ms"},
    {"registry.greedy-wspd.ms_p50", "ms"},
    {"registry.greedy-grid.ms_p50", "ms"},
    {"registry.theta.ms_p50", "ms"},
    {"registry.yao.ms_p50", "ms"},
    {"registry.wspd.ms_p50", "ms"},
    {"registry.net.ms_p50", "ms"},
    {"registry.baswana-sen.ms_p50", "ms"},
    {"grid.stream_s", "s"},
    {"grid.candidates_per_vertex", "cand/vertex"},
    {"engine.cell_ball_yield", "cand/ball"},
    {"engine.coarse_reject_share", "frac"},
    {"metric.materialize_s", "s"},
    {"simd.distances2d_ns_per_pair", "ns"},
    {"simd.radix_sort_ns_per_cand", "ns"},
    {"engine.group_probe_yield", "cand/probe"},
    {"engine.group_probe_early_exit_share", "frac"},
    {"engine.sketch_hit_share", "frac"},
    {"prefilter.reject_share", "frac"},
    {"prefilter.snapshot_accept_share", "frac"},
    {"prefilter.gated_off", "count"},
    {"mt.speedup", "x"},
    {"mt.speedup.gnm", "x"},
    {"mt.speedup.allpairs", "x"},
    {"mt.dijkstra_ratio", "x"},
    {"mt.dijkstra_ratio.gnm", "x"},
    {"mt.dijkstra_ratio.allpairs", "x"},
    {"repair.share", "frac"},
    {"repair.fallbacks", "count"},
    {"csr.compactions", "count"},
    {"engine.self_s", "s"},
    {"engine.us_per_candidate", "us"},
    {"engine.dijkstra_per_kcand", "runs/kcand"},
    {"engine.accept_rate", "frac"},
    {"dijkstra.query_us", "us"},
    {"engine.candidate_buffer_peak_mb", "MB"},
    {"engine.handoff_peak_mb", "MB"},
    {"audit.s", "s"},
    {"trace.overhead_frac", "frac"},
};

std::vector<Metric> complete_layers(const Metrics& m) {
    std::vector<Metric> out;
    for (const auto& [name, unit] : kLayerUnits) {
        Metric metric{name, 0.0, unit};
        for (const Metric& have : m.items) {
            if (have.name == name) metric.value = have.value;
        }
        out.push_back(metric);
    }
    return out;
}

std::string host_json(const Args& args, const RunResult& res) {
    return std::string("{\"workload\": ") + quoted(workload_name(args.workload)) +
           ", \"seed\": " + std::to_string(args.seed) + ", \"trace\": " +
           (args.trace ? "1" : "0") + ", \"nproc\": " + std::to_string(nproc()) +
           ", \"engine_threads\": " + std::to_string(engine_threads(args.workload)) +
           ", \"simd_backend\": " + quoted(res.simd_backend) +
           ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) + "}";
}

void write_file(const std::filesystem::path& path, const std::string& text) {
    std::ofstream out(path);
    out << text;
    if (!out) throw std::runtime_error("cannot write " + path.string());
}

std::string spans_json() {
    std::string out = "[";
    const auto& spans = tracer().spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        out += (i > 0 ? ",\n  " : "\n  ");
        out += "{\"id\": " + std::to_string(i) + ", \"name\": " + quoted(s.name) +
               ", \"start_s\": " + number(s.start_s) + ", \"end_s\": " + number(s.end_s) +
               ", \"parent\": " + std::to_string(s.parent) +
               ", \"request\": " + std::to_string(s.request) + "}";
    }
    return out + "\n]";
}

int run(const Args& args) {
    if (const auto bad = identity_mismatches(args.workload); !bad.empty()) {
        for (const std::string& line : bad) std::cerr << "perfbench: identity guard: " << line << "\n";
        std::cerr << "perfbench: the generated inputs changed; re-record with --identity "
                     "and re-measure the baseline\n";
        return 3;
    }
    tracer().set_enabled(args.trace);
    const RunResult res =
        args.workload == WorkloadId::kRegistryMix ? run_registry(args) : run_batch(args);
    tracer().set_enabled(false);

    const std::vector<Metric> layers = complete_layers(res.layers);
    const std::string host = host_json(args, res);
    const std::string tag = std::string(workload_name(args.workload)) + "-seed" +
                            std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0");
    std::filesystem::create_directories(args.out_dir);
    std::string notes = "[";
    for (std::size_t i = 0; i < res.tally.notes.size(); ++i) {
        notes += (i > 0 ? ", " : "") + quoted(res.tally.notes[i]);
    }
    notes += "]";
    write_file(std::filesystem::path(args.out_dir) / ("result-" + tag + ".json"),
               "{\"host\": " + host + ",\n \"samples\": {\"rounds\": " +
                   std::to_string(res.rounds) + ", \"requests\": " + std::to_string(res.requests) +
                   "},\n \"end_to_end\": " + metrics_json(res.e2e.items) +
                   ",\n \"per_layer\": " + (args.trace ? metrics_json(layers) : "{}") +
                   ",\n \"failures\": " + notes + "}\n");
    if (args.trace) {
        write_file(std::filesystem::path(args.out_dir) / ("trace-" + tag + ".json"),
                   "{\"host\": " + host + ",\n \"per_layer\": " + metrics_json(layers) +
                       ",\n \"spans\": " + spans_json() + "}\n");
    }
    for (const std::string& n : res.tally.notes) std::cerr << "perfbench: failed: " << n << "\n";

    const bool correct = res.tally.failed == 0 && res.tally.attempted > 0;
    std::cout << "host " << host << "\n";
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << res.tally.attempted
              << ", \"failed\": " << res.tally.failed
              << ", \"metrics\": " << metrics_json(args.trace ? layers : res.e2e.items) << "}"
              << std::endl;
    return 0;
}

[[noreturn]] void usage(const char* why) {
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <grid-2d|metric-allpairs|parallel-mt4|"
                 "registry-mix> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n"
                 "       perfbench --self-test | --identity\n";
    std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--self-test") return run_self_test();
        if (a == "--identity") {
            std::cout << identity_table();
            return 0;
        }
        if (i + 1 >= argc) usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--workload") {
            const auto w = parse_workload(v);
            if (!w) usage(("unknown workload " + v).c_str());
            args.workload = *w;
            have_workload = true;
        } else if (a == "--seed") {
            args.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            args.seconds = std::strtod(v.c_str(), nullptr);
            if (!(args.seconds > 0.0)) usage("--seconds must be > 0");
        } else if (a == "--trace") {
            if (v != "0" && v != "1") usage("--trace takes 0 or 1");
            args.trace = v == "1";
        } else if (a == "--out") {
            args.out_dir = v;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (!have_workload) usage("--workload is required");
    try {
        return run(args);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 3;
    }
}
