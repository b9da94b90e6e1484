#include "core/greedy_metric.hpp"

#include "api/candidate_source.hpp"
#include "api/session.hpp"

namespace gsp {

Graph greedy_spanner_metric(const MetricSpace& m, double t, GreedyStats* stats) {
    // Zero the out-param before any work (never additive, even on throw).
    if (stats != nullptr) *stats = GreedyStats{};
    SpannerSession session;
    BuildOptions options;  // all engine optimisations on by default
    options.stretch = t;
    MetricCandidateSource source(m);
    BuildReport report;
    Graph h = session.build(source, options, &report);
    if (stats != nullptr) {
        *stats = report.stats;
        // As the metric kernel always measured: pair enumeration + sort
        // included.
        stats->seconds = report.seconds;
    }
    return h;
}

}  // namespace gsp
