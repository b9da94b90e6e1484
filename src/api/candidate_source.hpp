// The candidate-source seam: where a greedy build's candidates come from.
//
// Every greedy entry point was always "the same loop" over a different
// candidate enumeration -- all edges of a graph, all pairs of a metric,
// the base-spanner edges of the §5 simulation. CandidateSource makes that
// the pluggable axis: a source names the vertex universe, streams the
// weight-sorted candidate sequence through the chunk protocol (with its
// deterministic tie rule -- the engine preserves order, so the source owns
// reproducibility), optionally seeds edges into the spanner before the
// loop (the approximate-greedy E0 set), and optionally adjusts the engine
// options (the simulation stretch, cell batching). SpannerSession::build
// consumes any source through the one shared GreedyEngine.
//
// Shipped sources:
//   GraphCandidateSource        all edges of a weighted graph;
//   MetricCandidateSource       all n(n-1)/2 pairs of a metric space;
//   WspdCandidateSource         one pair per WSPD dumbbell of a Euclidean
//                               point set -- n * s^O(d) candidates instead
//                               of n^2, the Alewijnse et al. ("Computing
//                               the Greedy Spanner in Linear Space")
//                               driving seam;
//   BaseSpannerCandidateSource  the §5 simulation: base spanner G',
//                               E0 seeding, the simulation stretch.
//
// A new scenario (e.g. the Bar-On--Carmi distribution-sensitive stream) is
// a new subclass, not a new front door.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "api/build_options.hpp"
#include "api/build_report.hpp"
#include "core/approx_greedy.hpp"
#include "core/candidate_stream.hpp"
#include "core/greedy_engine.hpp"
#include "graph/graph.hpp"
#include "metric/euclidean.hpp"
#include "metric/metric_space.hpp"

namespace gsp {

class SpannerSession;

/// How a source's chunks() generator produces the candidate sequence.
enum class ChunkSupport {
    kWholeList,  ///< orders the full list, handed over as one chunk
    kStreaming   ///< generates incrementally with sub-full-list peak memory
};

class CandidateSource {
public:
    virtual ~CandidateSource() = default;

    /// Short stable identifier ("graph-edges", "metric-pairs", ...).
    [[nodiscard]] virtual const char* kind() const = 0;

    /// Size of the vertex universe the candidates speak about.
    [[nodiscard]] virtual std::size_t num_vertices() const = 0;

    /// A fresh generator over this build's candidates in non-decreasing
    /// weight order with a deterministic tie rule (the
    /// CandidateChunkSource contract, core/candidate_stream.hpp). Called
    /// once per build; the chunks land in the session's reusable buffer.
    /// The generator is single-use and must not outlive the source.
    [[nodiscard]] virtual std::unique_ptr<CandidateChunkSource> chunks() = 0;

    /// Whether chunks() streams or sorts the whole list (informational:
    /// every build pulls chunks either way).
    [[nodiscard]] virtual ChunkSupport chunk_support() const {
        return ChunkSupport::kWholeList;
    }

    /// Append the full candidate sequence to `out` by draining a fresh
    /// chunks() generator -- for inspection and layer timing; builds
    /// stream instead.
    void materialize(std::vector<GreedyCandidate>& out);

    /// Edges inserted into the spanner before the greedy loop runs (the
    /// approximate-greedy E0 set). Default: none.
    virtual void seed(Graph& h);

    /// Apply per-source overrides (the simulation stretch, cell batching)
    /// to the already-populated options. Called once per build, before the
    /// engine is constructed. Default: nothing.
    virtual void configure_engine(GreedyEngineOptions& options);

    /// The stretch guarantee a build over this source carries, given the
    /// engine stretch actually used -- what BuildReport::stretch_target
    /// records. Default: the engine stretch itself; sources whose
    /// guarantee differs from the loop's threshold (the WSPD dumbbell
    /// bound, the approximate-greedy 1 + eps budget) override it.
    [[nodiscard]] virtual double stretch_target(double engine_stretch) const;
};

/// All edges of a weighted graph, ordered by (weight, min endpoint,
/// max endpoint, edge id) -- the tie rule the graph kernel always used.
class GraphCandidateSource final : public CandidateSource {
public:
    explicit GraphCandidateSource(const Graph& g) : g_(g) {}

    [[nodiscard]] const char* kind() const override { return "graph-edges"; }
    [[nodiscard]] std::size_t num_vertices() const override { return g_.num_vertices(); }
    [[nodiscard]] std::unique_ptr<CandidateChunkSource> chunks() override;

private:
    const Graph& g_;
};

/// All n(n-1)/2 pairs of a metric space, ordered by (weight, u, v) -- the
/// tie rule the metric kernel always used. The list is placed, not
/// comparison-sorted: three passes over the rows (a Euclidean row's
/// weights in one batched kernel call) find the range of the weight key,
/// histogram it into at most 2^16 fine bins (fewer for a short list)
/// packed into slices of a few thousand candidates, and write every pair
/// straight into its slice of the caller's buffer; each slice is then
/// radix-sorted on its own. Beside the list itself, the scratch is the
/// bin table, one row and one slice.
class MetricCandidateSource final : public CandidateSource {
public:
    explicit MetricCandidateSource(const MetricSpace& m) : m_(m) {}

    [[nodiscard]] const char* kind() const override { return "metric-pairs"; }
    [[nodiscard]] std::size_t num_vertices() const override { return m_.size(); }
    [[nodiscard]] std::unique_ptr<CandidateChunkSource> chunks() override;
    void configure_engine(GreedyEngineOptions& options) override;

private:
    void append_sorted_pairs(std::vector<GreedyCandidate>& out) const;

    const MetricSpace& m_;
    /// Kernel table for the batched candidate-weight evaluation (2D
    /// Euclidean rows); configure_engine pins it to the run's resolved
    /// backend so a kScalar build stays scalar end to end. The kernels are
    /// bit-exact, so the weights (and the tie order built on them) are
    /// identical either way.
    const simd::Kernels* simd_ = &simd::auto_kernels();
};

/// Stretch guarantee of greedy-over-WSPD-pairs: a t-path between the
/// representatives of every s-well-separated pair implies stretch
/// t * (s + 4) / (s - 4) over all pairs (infinite when s <= 4).
[[nodiscard]] double wspd_greedy_stretch_bound(double engine_stretch, double separation);

/// One candidate per well-separated pair of a Euclidean point set: the
/// dumbbell's representative pair, at its exact metric distance, ordered
/// by (weight, u, v) -- each weight class placed into slices and sorted
/// slice by slice, as the metric source does with its whole list. Greedy
/// over these n * s^O(d) candidates with engine stretch t yields a
/// spanner of the *whole* metric with stretch at most
/// wspd_greedy_stretch_bound(t, s) -- the standard dumbbell induction,
/// with the single WSPD edge replaced by a t-path between the
/// representatives.
class WspdCandidateSource final : public CandidateSource {
public:
    /// `separation` <= 0 derives the standard 4 + 8/epsilon from
    /// `epsilon`; an explicit separation must be > 4 for a finite bound.
    WspdCandidateSource(const EuclideanMetric& m, double separation, double epsilon = 0.5);

    [[nodiscard]] const char* kind() const override { return "wspd-pairs"; }
    [[nodiscard]] std::size_t num_vertices() const override { return m_.size(); }
    [[nodiscard]] double stretch_target(double engine_stretch) const override {
        return wspd_greedy_stretch_bound(engine_stretch, separation_);
    }

    /// Linear-space chunk generation: the dumbbell representative pairs are
    /// kept as two u32 arrays (12 bytes/pair with the class-order permutation,
    /// vs 24 for materialized candidates), partitioned into geometric weight
    /// classes by a counting pass that recomputes each weight on the fly, and
    /// served class by class -- only one class's candidates are ever resident.
    [[nodiscard]] ChunkSupport chunk_support() const override { return ChunkSupport::kStreaming; }
    [[nodiscard]] std::unique_ptr<CandidateChunkSource> chunks() override;

    [[nodiscard]] double separation() const { return separation_; }

private:
    const EuclideanMetric& m_;
    double separation_;
};

/// The §5 simulation as a candidate source: builds the base spanner G'
/// (theta graph for 2D Euclidean inputs, net-tree spanner otherwise) in
/// the constructor, seeds the light E0 edges, streams the remaining edges
/// of G' ordered by (weight, u, v) (placed into weight slices, as the
/// metric source does), and overrides the engine stretch with t_sim.
class BaseSpannerCandidateSource final : public CandidateSource {
public:
    BaseSpannerCandidateSource(const MetricSpace& m, const BuildOptions& options);

    [[nodiscard]] const char* kind() const override { return "base-spanner-edges"; }
    [[nodiscard]] std::size_t num_vertices() const override { return m_.size(); }
    [[nodiscard]] std::unique_ptr<CandidateChunkSource> chunks() override;
    void seed(Graph& h) override;
    void configure_engine(GreedyEngineOptions& options) override;
    [[nodiscard]] double stretch_target(double) const override {
        return 1.0 + params_.epsilon;  // t_base * t_sim, the overall budget
    }

    [[nodiscard]] const Graph& base() const { return base_; }
    [[nodiscard]] std::size_t light_edges() const { return light_.size(); }
    [[nodiscard]] double t_base() const { return t_base_; }
    [[nodiscard]] double t_sim() const { return t_sim_; }
    [[nodiscard]] double seconds_base() const { return seconds_base_; }

private:
    void append_sorted_heavy_edges(std::vector<GreedyCandidate>& out) const;

    const MetricSpace& m_;
    ApproxParams params_;
    Graph base_{0};
    std::vector<Edge> light_;     ///< E0, seeded before the loop
    Weight light_threshold_ = 0;  ///< D/n; chunks() streams the heavier rest of G'
    double t_base_ = 0.0;
    double t_sim_ = 0.0;
    double seconds_base_ = 0.0;
};

/// Run Algorithm Approximate-Greedy through `session`: the §5 pipeline as
/// a BaseSpannerCandidateSource plus the shared engine. `report`, when
/// given, receives the engine-side BuildReport of the simulation run.
ApproxGreedyResult approx_greedy_build(SpannerSession& session, const MetricSpace& m,
                                       const BuildOptions& options,
                                       BuildReport* report = nullptr);

}  // namespace gsp
