// The structured result record of one build.
//
// Returned by value (reset every call -- never additive, unlike the old
// raw GreedyStats out-pointers): the engine counters, the cheap audit
// facts every experiment wants (size, weight, max degree), wall-clock
// split into total vs resource setup, and the session warm-start counters
// that certify a warm build paid zero thread-pool / workspace
// construction. One JSON serializer; append_greedy_stats writes the
// counter block on its own for callers that fingerprint a build.
#pragma once

#include <cstddef>
#include <string>

#include "core/greedy.hpp"
#include "graph/graph.hpp"
#include "util/json.hpp"

namespace gsp {

struct BuildReport {
    std::string algorithm;  ///< registry key (or the source kind when built directly)
    std::string source;     ///< candidate-source kind ("graph-edges", "metric-pairs", ...)

    std::size_t vertices = 0;
    std::size_t candidates = 0;    ///< candidate edges streamed into the engine
    double stretch_target = 0.0;   ///< the guarantee the construction aimed for

    // Cheap audit facts (O(n + m); run analysis/audit for exact stretch).
    std::size_t edges = 0;
    double weight = 0.0;
    std::size_t max_degree = 0;

    // Timing and the session warm-start certificate: on a warm
    // SpannerSession both construction counters are zero --
    // SpannerSessionTest and perfbench's checker assert exactly these
    // fields.
    double seconds = 0.0;        ///< whole build() call (candidates + run)
    double setup_seconds = 0.0;  ///< engine construction / pool acquisition
    std::size_t pools_constructed = 0;       ///< thread pools built by this call
    std::size_t workspaces_constructed = 0;  ///< Dijkstra workspaces built by this call

    /// Kept for perfbench only, which records it: always "scalar" on an
    /// engine build (the library has one kernel path), empty otherwise.
    std::string simd_backend;

    /// Process peak RSS (KiB) sampled when the build finished. The OS
    /// counter is a process-lifetime high-water mark, so this is "peak so
    /// far", monotone across builds of one process; the memory probes pair
    /// it with a before-sample to attribute growth to a single build.
    std::size_t peak_rss_kb = 0;

    GreedyStats stats;  ///< engine counters of this run (zero for non-engine baselines)

    /// Serialize the whole report as one JSON object.
    [[nodiscard]] std::string to_json() const;
};

/// Append every GreedyStats counter as members of the currently open JSON
/// object -- the single stats serializer BuildReport::to_json and the
/// bench emitters share.
void append_greedy_stats(JsonWriter& w, const GreedyStats& stats);

/// Fill the audit block (edges / weight / max_degree) from the built
/// spanner. O(n + m).
void fill_audit_fields(BuildReport& report, const Graph& h);

}  // namespace gsp
