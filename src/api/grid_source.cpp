#include "api/grid_source.hpp"

#include <stdexcept>

#include "core/greedy_engine.hpp"

namespace gsp {

double GridCandidateSource::resolve_separation(double separation, double epsilon) {
    if (separation <= 0.0) {
        if (!(epsilon > 0.0)) {
            throw std::invalid_argument(
                "GridCandidateSource: epsilon must be > 0 to derive a separation");
        }
        return 4.0 + 8.0 / epsilon;
    }
    return separation;  // UniformGrid2D enforces > 4
}

GridCandidateSource::GridCandidateSource(const EuclideanMetric& m, double separation,
                                         double epsilon)
    : m_(m), grid_(m, resolve_separation(separation, epsilon)) {}

std::unique_ptr<CandidateChunkSource> GridCandidateSource::chunks() {
    return std::make_unique<GridChunkSource>(grid_);
}

void GridCandidateSource::configure_engine(GreedyEngineOptions& options) {
    if (options.cell_batching == EngineTuning::CellBatching::kAuto) {
        options.cell_batching = EngineTuning::CellBatching::kOn;
    }
    // Cell balls amortize across a whole weight class, but the engine's
    // serial batches are clipped to the resident chunk: a window that
    // arrived in soft-cap slices would re-drain each anchor's ball once
    // per slice. Chunks as wide as the source's window budget -- O(n),
    // far below the materialized list the linear-space budget guards
    // against -- deliver every window whole. Only the untouched default
    // is widened: an explicit user cap wins, as with cell_batching above.
    if (options.chunk_soft_cap == EngineTuning{}.chunk_soft_cap) {
        options.chunk_soft_cap = GridChunkSource::default_budget(m_.size());
    }
    // Spanner edge weights are exactly the metric distances of their
    // endpoints, so the metric lower-bounds every graph distance: hand it
    // to the engine as the A* goal oracle and the residual point queries
    // (small groups, members a reject-radius ball left unsettled) explore
    // the pair's ellipse instead of a disc around one endpoint. The
    // source borrows the metric from the caller, who must keep it alive
    // through the build anyway -- the grid holds the same reference.
    // A run with `bidirectional` off asked for the blind one-sided sweep
    // (EngineTuning::naive() does) and keeps it: A*'s f-key prune sums in
    // another order and drops witnesses that tie t * w exactly.
    if (options.goal_bound == nullptr && options.bidirectional) {
        options.goal_bound = &m_;
    }
}

}  // namespace gsp
