#include "api/session.hpp"

#include <utility>

#include "api/candidate_source.hpp"
#include "simd/dispatch.hpp"
#include "util/rss.hpp"
#include "util/timer.hpp"

namespace gsp {

GSP_SERIAL_ONLY Graph SpannerSession::build(CandidateSource& source,
                                            const BuildOptions& options,
                                            BuildReport* report) {
    // Reset-before-work: a throw below must never leave a previous
    // build's numbers in the caller's report.
    if (report != nullptr) *report = BuildReport{};
    options.validate();

    const Timer timer;
    const std::size_t n = source.num_vertices();

    GreedyEngineOptions engine_options;
    static_cast<EngineTuning&>(engine_options) = options.engine;
    engine_options.stretch = options.stretch;
    source.configure_engine(engine_options);

    const std::size_t pools_before = resources_.pools_constructed();
    const std::size_t workspaces_before = resources_.workspaces_constructed();
    const Timer setup_timer;
    GreedyEngine engine(n, std::move(engine_options), resources_);
    const double setup_seconds = setup_timer.seconds();

    Graph h(n);
    source.seed(h);

    // The generator is a temporary, so a streaming source's window
    // buffers are released as soon as the run returns.
    GreedyStats stats;
    candidates_.clear();
    h = engine.run(std::move(h), *source.chunks(), candidates_, &stats);
    ++builds_;

    if (report != nullptr) {
        report->algorithm = source.kind();
        report->source = source.kind();
        report->vertices = n;
        report->candidates = stats.candidates_streamed;
        report->stretch_target = source.stretch_target(engine.options().stretch);
        fill_audit_fields(*report, h);
        report->seconds = timer.seconds();
        report->setup_seconds = setup_seconds;
        // Worker workspaces are sized lazily inside run(), so the deltas
        // are read only now: both are zero on every warm call.
        report->pools_constructed = resources_.pools_constructed() - pools_before;
        report->workspaces_constructed =
            resources_.workspaces_constructed() - workspaces_before;
        report->simd_backend = simd::backend_name(simd::detect());
        report->peak_rss_kb = process_peak_rss_kb();
        report->stats = stats;
    }
    return h;
}

}  // namespace gsp
