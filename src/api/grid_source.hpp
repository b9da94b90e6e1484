// The grid-pruned Euclidean candidate source ("greedy-grid").
//
// Wraps geom/uniform_grid.hpp as a CandidateSource: a hierarchy of sparse
// uniform grids replaces the WSPD quadtree, near pairs are enumerated
// exactly and far pairs only ever appear as one representative candidate
// per ring cell pair -- O(s^2 n) candidates total, generated in
// non-decreasing weight order by a window sweep that never materializes
// more than one bounded window. The natural streaming source
// (ChunkSupport::kStreaming): a build over it holds O(n) grid state plus
// one window of candidates, which is what makes the n = 10^6 memory
// probe fit a fixed RSS budget.
//
// Stretch guarantee: identical premises to the WSPD dumbbell bound
// (covered pairs have both endpoints within 2 r of their representative
// and distance >= s * r), so a build at engine stretch t spans the whole
// metric with stretch wspd_greedy_stretch_bound(t, s); separation must
// exceed 4.
#pragma once

#include <memory>
#include <vector>

#include "api/candidate_source.hpp"
#include "geom/uniform_grid.hpp"
#include "metric/euclidean.hpp"

namespace gsp {

class GridCandidateSource final : public CandidateSource {
public:
    /// `m` must be 2-dimensional. `separation` <= 0 derives the standard
    /// 4 + 8 / epsilon; an explicit separation must be > 4.
    GridCandidateSource(const EuclideanMetric& m, double separation, double epsilon = 0.5);

    [[nodiscard]] const char* kind() const override { return "grid-cells"; }
    [[nodiscard]] std::size_t num_vertices() const override { return m_.size(); }

    [[nodiscard]] ChunkSupport chunk_support() const override {
        return ChunkSupport::kStreaming;
    }
    [[nodiscard]] std::unique_ptr<CandidateChunkSource> chunks() override;

    [[nodiscard]] double stretch_target(double engine_stretch) const override {
        return wspd_greedy_stretch_bound(engine_stretch, grid_.separation());
    }

    /// Expose the grid's cell/window structure to the engine: a kAuto
    /// engine resolves to cell-batched grouping, so one drained ball per
    /// cell representative decides the whole window of rep candidates the
    /// cell emits (the representatives are exactly the hubs the anchored
    /// rebuild elects). An explicit kOn/kOff is left alone.
    void configure_engine(GreedyEngineOptions& options) override;

    [[nodiscard]] double separation() const { return grid_.separation(); }
    [[nodiscard]] const UniformGrid2D& grid() const { return grid_; }

private:
    static double resolve_separation(double separation, double epsilon);

    const EuclideanMetric& m_;
    UniformGrid2D grid_;
};

}  // namespace gsp
