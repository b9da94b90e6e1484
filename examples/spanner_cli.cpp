// spanner_cli: the unified API from the command line.
//
// Enumerates the algorithm registry, generates a matching random instance
// (weighted graph or 2D point set), builds through one reusable
// SpannerSession, and prints each build's BuildReport as JSON -- the same
// serializer the bench artifacts use.
//
//   $ ./examples/spanner_cli --list                 # registry table
//   $ ./examples/spanner_cli greedy --n 512 --t 2   # one algorithm
//   $ ./examples/spanner_cli all --threads 4        # every entry, one session
//
// Flags: --n <vertices> --t <stretch> --eps <epsilon> --cones <k>
//        --sep <separation> (wspd / greedy-wspd / greedy-grid; 0 derives
//        4 + 8/eps) --k <baswana k> --threads <stage-2 workers>
//        --seed <rng seed> --audit (append the exact-stretch audit,
//        reusing the session's workspace pool -- no per-call allocation)
//        --repeat <N> (build N times through the warm session and report
//        min/median build seconds, so single-run timing noise stops
//        polluting manual comparisons; the JSON report is the first run's)
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/audit.hpp"
#include "api/registry.hpp"
#include "api/session.hpp"
#include "gen/graphs.hpp"
#include "gen/points.hpp"
#include "util/random.hpp"
#include "util/table.hpp"

namespace {

struct CliArgs {
    std::string algorithm;
    std::size_t n = 256;
    double stretch = 2.0;
    double epsilon = 0.5;
    double separation = 0.0;  ///< 0 = derive 4 + 8/eps
    std::size_t cones = 12;
    unsigned k = 2;
    std::size_t threads = 1;
    std::uint64_t seed = 7;
    std::size_t repeat = 1;
    bool list = false;
    bool audit = false;
};

int usage() {
    std::cerr << "usage: spanner_cli (--list | <algorithm> | all) [--n N] [--t T]\n"
                 "                   [--eps E] [--sep S] [--cones K] [--k K]\n"
                 "                   [--threads W] [--seed S] [--repeat N] [--audit]\n";
    return 2;
}

bool parse(int argc, char** argv, CliArgs& args) {
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const auto next = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--list") {
            args.list = true;
        } else if (arg == "--audit") {
            args.audit = true;
        } else if (arg == "--n") {
            const char* v = next();
            if (v == nullptr) return false;
            args.n = std::strtoull(v, nullptr, 10);
        } else if (arg == "--t") {
            const char* v = next();
            if (v == nullptr) return false;
            args.stretch = std::strtod(v, nullptr);
        } else if (arg == "--eps") {
            const char* v = next();
            if (v == nullptr) return false;
            args.epsilon = std::strtod(v, nullptr);
        } else if (arg == "--sep") {
            const char* v = next();
            if (v == nullptr) return false;
            args.separation = std::strtod(v, nullptr);
        } else if (arg == "--cones") {
            const char* v = next();
            if (v == nullptr) return false;
            args.cones = std::strtoull(v, nullptr, 10);
        } else if (arg == "--k") {
            const char* v = next();
            if (v == nullptr) return false;
            args.k = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        } else if (arg == "--threads") {
            const char* v = next();
            if (v == nullptr) return false;
            args.threads = std::strtoull(v, nullptr, 10);
        } else if (arg == "--seed") {
            const char* v = next();
            if (v == nullptr) return false;
            args.seed = std::strtoull(v, nullptr, 10);
        } else if (arg == "--repeat") {
            const char* v = next();
            if (v == nullptr) return false;
            args.repeat = std::strtoull(v, nullptr, 10);
            if (args.repeat == 0) return false;
        } else if (!arg.starts_with("--") && args.algorithm.empty()) {
            args.algorithm = std::string(arg);
        } else {
            return false;
        }
    }
    return args.list || !args.algorithm.empty();
}

void print_registry() {
    gsp::Table table({"algorithm", "input", "engine", "randomized", "description"});
    for (const gsp::AlgorithmInfo* info : gsp::AlgorithmRegistry::global().algorithms()) {
        table.add_row({std::string(info->name), std::string(gsp::to_string(info->input)),
                       info->uses_engine ? "yes" : "no",
                       info->randomized ? "yes" : "no", std::string(info->description)});
    }
    table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
    using namespace gsp;
    CliArgs args;
    if (!parse(argc, argv, args)) return usage();
    if (args.list) {
        print_registry();
        return 0;
    }

    const AlgorithmRegistry& registry = AlgorithmRegistry::global();
    std::vector<std::string> names;
    if (args.algorithm == "all") {
        for (const AlgorithmInfo* info : registry.algorithms()) {
            names.emplace_back(info->name);
        }
    } else if (registry.find(args.algorithm) != nullptr) {
        names.push_back(args.algorithm);
    } else {
        std::cerr << "unknown algorithm \"" << args.algorithm << "\"; --list shows all\n";
        return 2;
    }

    // Shared instances: one graph, one 2D point set.
    Rng rng(args.seed);
    const Graph g = random_graph_nm(args.n, 8 * args.n, {.lo = 1.0, .hi = 2.0}, rng);
    const EuclideanMetric pts =
        uniform_points(args.n, 2, std::sqrt(static_cast<double>(args.n)) * 10.0, rng);

    BuildOptions options;
    options.stretch = args.stretch;
    options.engine.num_threads = args.threads;
    options.approx.epsilon = args.epsilon;
    options.geometric.epsilon = args.epsilon;
    options.geometric.wspd_separation = args.separation;
    options.geometric.cones = args.cones;
    options.baswana_sen.k = args.k;
    options.baswana_sen.seed = args.seed;

    // One session for every build: warm pools, warm workspaces. The audit
    // path borrows the same workspace pool (no per-call allocation).
    SpannerSession session;
    // What the probe kernels will actually run as (the dispatch-resolved
    // answer for this machine; the per-build reports repeat it as
    // "simd_backend" so saved JSON stays self-describing).
    std::cout << "simd backend: "
              << simd::backend_label(resolve_simd_kernels(options.engine.simd_backend))
              << "\n";
    int failures = 0;
    for (const std::string& name : names) {
        const AlgorithmInfo* info = registry.find(name);
        const BuildInput input = info->input == InputKind::kGraph ? BuildInput::of(g)
                                                                  : BuildInput::of(pts);
        try {
            BuildReport report;
            const Graph h = registry.build(name, session, input, options, &report);
            std::cout << report.to_json() << "\n";
            // Per-phase timing breakdown: where the wall clock went and
            // what the cell-batched reject path amortized away.
            {
                const double us =
                    report.candidates > 0
                        ? report.seconds * 1e6 / static_cast<double>(report.candidates)
                        : 0.0;
                std::cout << "  timing: setup " << report.setup_seconds << " s, build "
                          << report.seconds << " s (" << us << " us/candidate, "
                          << report.stats.pull_seconds << " s pulling candidates); "
                          << report.stats.cell_balls << " cell balls / "
                          << report.stats.cell_ball_decisions << " batched decisions, "
                          << report.stats.dijkstra_runs << " dijkstra runs\n";
            }
            if (args.repeat > 1) {
                // Warm re-builds through the same session: the first call
                // above primed pools and workspaces, so these isolate the
                // build itself. Min is the least-perturbed run; median is
                // the robust central tendency single runs lack.
                std::vector<double> seconds;
                seconds.reserve(args.repeat);
                seconds.push_back(report.seconds);
                for (std::size_t r = 1; r < args.repeat; ++r) {
                    BuildReport repeat_report;
                    (void)registry.build(name, session, input, options,
                                         &repeat_report);
                    seconds.push_back(repeat_report.seconds);
                }
                std::sort(seconds.begin(), seconds.end());
                const std::size_t mid = seconds.size() / 2;
                const double median =
                    seconds.size() % 2 == 1
                        ? seconds[mid]
                        : 0.5 * (seconds[mid - 1] + seconds[mid]);
                std::cout << "  repeat: " << args.repeat << " warm builds, min "
                          << seconds.front() << " s, median " << median
                          << " s, max " << seconds.back() << " s\n";
            }
            if (args.audit) {
                const double stretch =
                    info->input == InputKind::kGraph
                        ? max_stretch_over_edges(g, h, session.workspace_pool())
                        : max_stretch_metric(pts, h, session.workspace_pool());
                std::cout << "  audit: exact max stretch = " << stretch
                          << " (target " << report.stretch_target << ")\n";
            }
        } catch (const std::invalid_argument& e) {
            // A bad flag combination for *this* algorithm (e.g. --eps 2
            // for greedy-approx) should not abort an `all` sweep.
            std::cerr << name << ": " << e.what() << "\n";
            ++failures;
        }
    }
    return failures == 0 ? 0 : 1;
}
