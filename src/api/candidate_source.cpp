#include "api/candidate_source.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <tuple>

#include "api/session.hpp"
#include "simd/radix_sort.hpp"
#include "spanners/net_spanner.hpp"
#include "spanners/theta_graph.hpp"
#include "util/annotations.hpp"
#include "util/timer.hpp"
#include "wspd/quadtree.hpp"
#include "wspd/wspd.hpp"

namespace gsp {

namespace {

/// Most fine bins a placement histograms the weight key into.
constexpr std::size_t kMaxWeightBins = std::size_t{1} << 16;
/// Candidates per fine bin on average: a short list pays for few bins.
constexpr std::size_t kCandidatesPerBin = 16;
/// A slice packs consecutive fine bins up to this many candidates (64 KiB,
/// and as much sorter scratch), so every slice sort runs in cache.
constexpr std::size_t kSliceTarget = 4096;

/// Writes the candidates that `visit` enumerates into `dest` in (weight,
/// u, v) order, with no comparison sort over the list. `visit(fn)` must
/// call fn(u, v, w) once per candidate -- exactly dest.size() of them, the
/// same ones in the same order on each of its three calls:
///
///   1. the range of the order-preserving weight key (simd::weight_key);
///   2. a histogram of the key over at most kMaxWeightBins equal fine
///      bins, which are then packed, in key order, into slices of at most
///      kSliceTarget candidates (a bin over the target is a slice alone);
///   3. every candidate written straight into its bin's slice of `dest`.
///
/// A slice holds whole bins, so every weight of one slice is below every
/// weight of the next and equal weights share a slice: sorting each slice
/// on its own by (weight, u, v) -- the radix sorter, whose scratch is one
/// slice, never the list -- sorts the whole of `dest`. Throws
/// std::invalid_argument on a NaN weight, and std::logic_error when a
/// later pass sees other weights than the first (a caller's metric whose
/// answers change between calls).
template <class Visit>
GSP_DECISION_PURE void place_by_weight(std::span<GreedyCandidate> dest, Visit&& visit) {
    const std::size_t count = dest.size();
    if (count == 0) return;
    std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t hi = 0;
    bool has_nan = false;
    visit([&](VertexId, VertexId, Weight w) {
        const std::uint64_t key = simd::weight_key(w);
        lo = std::min(lo, key);
        hi = std::max(hi, key);
        has_nan |= std::isnan(w);
    });
    if (has_nan) throw std::invalid_argument("candidate source: a candidate weight is NaN");

    const std::size_t max_bins = std::clamp<std::size_t>(count / kCandidatesPerBin, 1,
                                                         kMaxWeightBins);
    unsigned shift = 0;
    while (((hi - lo) >> shift) >= max_bins) ++shift;
    // A key outside the first pass's range would index past the bins.
    const auto bin_of = [&](Weight w) {
        const std::uint64_t key = simd::weight_key(w);
        if (key < lo || key > hi) {
            throw std::logic_error("candidate source: a weight changed between passes");
        }
        return static_cast<std::size_t>((key - lo) >> shift);
    };
    // bin_slice first counts each bin, then names the slice it was packed into.
    std::vector<std::size_t> bin_slice(static_cast<std::size_t>((hi - lo) >> shift) + 1, 0);
    visit([&](VertexId, VertexId, Weight w) { ++bin_slice[bin_of(w)]; });
    std::vector<std::size_t> slice_start{0};
    std::size_t packed = 0;
    for (std::size_t& bin : bin_slice) {
        const std::size_t size = bin;
        if (packed > slice_start.back() && packed - slice_start.back() + size > kSliceTarget) {
            slice_start.push_back(packed);
        }
        bin = slice_start.size() - 1;
        packed += size;
    }
    if (packed != count) {
        throw std::logic_error("candidate source: the count pass disagrees with the list size");
    }
    slice_start.push_back(count);

    std::vector<std::size_t> cursor(slice_start.begin(), slice_start.end() - 1);
    GreedyCandidate* out = dest.data();
    visit([&](VertexId u, VertexId v, Weight w) {
        const std::size_t s = bin_slice[bin_of(w)];
        if (cursor[s] == slice_start[s + 1]) {
            throw std::logic_error("candidate source: the placement pass disagrees with its plan");
        }
        out[cursor[s]++] = GreedyCandidate{u, v, w};
    });
    const auto tie_less = [](const GreedyCandidate& a, const GreedyCandidate& b) {
        return std::tie(a.weight, a.u, a.v) < std::tie(b.weight, b.u, b.v);
    };
    simd::CandidateRadixSorter sorter;
    for (std::size_t s = 0; s + 1 < slice_start.size(); ++s) {
        const std::span<GreedyCandidate> slice =
            dest.subspan(slice_start[s], slice_start[s + 1] - slice_start[s]);
        // A slice of one weight enumerated in (u, v) order is done already.
        if (!std::is_sorted(slice.begin(), slice.end(), tie_less)) sorter.sort(slice);
    }
}

}  // namespace

void CandidateSource::seed(Graph&) {}

void CandidateSource::configure_engine(GreedyEngineOptions&) {}

double CandidateSource::stretch_target(double engine_stretch) const {
    return engine_stretch;
}

void CandidateSource::materialize(std::vector<GreedyCandidate>& out) {
    const auto generator = chunks();
    while (generator->next_chunk(std::numeric_limits<std::size_t>::max(), out)) {
    }
}

std::unique_ptr<CandidateChunkSource> GraphCandidateSource::chunks() {
    return std::make_unique<WholeListChunkSource>(
        [this](std::vector<GreedyCandidate>& out) { append_sorted_graph_candidates(g_, out); });
}

std::unique_ptr<CandidateChunkSource> MetricCandidateSource::chunks() {
    return std::make_unique<WholeListChunkSource>(
        [this](std::vector<GreedyCandidate>& out) { append_sorted_pairs(out); });
}

void MetricCandidateSource::append_sorted_pairs(std::vector<GreedyCandidate>& out) const {
    const std::size_t n = m_.size();
    if (n < 2) return;
    const std::size_t base = out.size();
    out.resize(base + n * (n - 1) / 2);
    // Every pass enumerates the pairs row by row, (u, v) ascending. A
    // Euclidean row's weights d(i, i+1..n-1) come from one batched kernel
    // sweep instead of n - i - 1 virtual calls; the kernel is bit-exact
    // against the scalar path, so the weights are the metric's own.
    const auto* euclidean = dynamic_cast<const EuclideanMetric*>(&m_);
    std::vector<VertexId> ids;
    std::vector<Weight> row;
    if (euclidean != nullptr) {
        ids.resize(n);
        std::iota(ids.begin(), ids.end(), VertexId{0});
        row.resize(n);
    }
    const auto visit = [&](auto&& fn) {
        for (VertexId i = 0; i + 1 < n; ++i) {
            if (euclidean != nullptr) {
                const std::span<const VertexId> tail(ids.data() + i + 1, n - i - 1);
                euclidean->distances_from(i, tail, row.data(), *simd_);
                for (std::size_t k = 0; k < tail.size(); ++k) fn(i, tail[k], row[k]);
            } else {
                for (VertexId j = i + 1; j < n; ++j) fn(i, j, m_.distance(i, j));
            }
        }
    };
    place_by_weight(std::span<GreedyCandidate>(out).subspan(base), visit);
}

void MetricCandidateSource::configure_engine(GreedyEngineOptions& options) {
    // Pin the candidate-weight batches to the run's resolved backend
    // (configure_engine runs before chunks() in a session build).
    simd_ = &resolve_simd_kernels(options.simd_backend);
    // The metric would be a sound goal oracle here (edge weights are
    // metric distances), but it does not pay on all-pairs streams,
    // measured at n = 512..2048: `goal_bound` reroutes the point probes
    // through one-sided A*, forfeiting the bidirectional two-sided
    // harvest (~1.8x slower overall). It stays available as an explicit
    // override.
}

WspdCandidateSource::WspdCandidateSource(const EuclideanMetric& m, double separation,
                                         double epsilon)
    : m_(m), separation_(separation) {
    if (separation_ <= 0.0) {
        if (!(epsilon > 0.0)) {
            throw std::invalid_argument(
                "WspdCandidateSource: epsilon must be > 0 to derive a separation");
        }
        separation_ = 4.0 + 8.0 / epsilon;  // always > 4
    }
    if (!(separation_ > 4.0)) {
        // At s <= 4 the dumbbell bound is infinite: greedy over the pairs
        // would build *something*, but with no stretch guarantee at all
        // (and a stretch_target of infinity downstream). Refuse up front.
        throw std::invalid_argument(
            "WspdCandidateSource: separation must be > 4 for a finite stretch bound");
    }
}

namespace {

/// The linear-space WSPD generator. Construction keeps only the dumbbell
/// representative pairs as two u32 arrays plus a u32 class-order
/// permutation (12 bytes per pair -- half the materialized candidate), and
/// partitions the pairs into geometric weight classes [wpos * 2^(c-1),
/// wpos * 2^c) by recomputing each weight on the fly (two counting
/// passes). Serving places one class at a time into a scratch vector in
/// the source's (weight, u, v) tie order (place_by_weight: the sort
/// scratch is one weight slice of the class, never the class), and hands
/// out soft_cap-sized slices. Because the class of a candidate is a
/// monotone function of its weight and equal weights always share a
/// class, the concatenation of per-class sorts is exactly the global
/// (weight, u, v) sort of all representative pairs.
class WspdChunkSource final : public CandidateChunkSource {
public:
    WspdChunkSource(const EuclideanMetric& m, double separation) : m_(m) {
        if (m_.size() < 2) return;
        {
            const QuadTree tree(m_);
            const auto pairs = well_separated_pairs(tree, separation);
            us_.reserve(pairs.size());
            vs_.reserve(pairs.size());
            for (const WspdPair& p : pairs) {
                const VertexId a = tree.node(p.a).representative;
                const VertexId b = tree.node(p.b).representative;
                us_.push_back(std::min(a, b));
                vs_.push_back(std::max(a, b));
            }
        }  // tree + raw pair list released before any candidate memory exists
        const std::size_t p = us_.size();
        if (p == 0) return;

        // Pass 1: weight range (smallest positive weight anchors class 1;
        // exact zeros -- duplicate points -- form class 0).
        wpos_ = std::numeric_limits<double>::infinity();
        double wmax = 0.0;
        for (std::size_t i = 0; i < p; ++i) {
            const double w = m_.distance(us_[i], vs_[i]);
            if (w > 0.0 && w < wpos_) wpos_ = w;
            if (w > wmax) wmax = w;
        }
        std::size_t num_classes = 1;
        if (std::isfinite(wpos_)) {
            num_classes = 2 + static_cast<std::size_t>(std::max(
                                  0.0, std::floor(std::log2(wmax / wpos_))));
        }

        // Pass 2: histogram, prefix-sum, stable scatter of pair indices.
        std::vector<std::uint32_t> counts(num_classes + 1, 0);
        for (std::size_t i = 0; i < p; ++i) {
            ++counts[class_of(m_.distance(us_[i], vs_[i]), num_classes)];
        }
        class_start_.assign(num_classes + 1, 0);
        std::uint32_t acc = 0;
        for (std::size_t c = 0; c < num_classes; ++c) {
            class_start_[c] = acc;
            acc += counts[c];
        }
        class_start_[num_classes] = acc;
        std::vector<std::uint32_t> cursor(class_start_.begin(), class_start_.end() - 1);
        order_.resize(p);
        for (std::size_t i = 0; i < p; ++i) {
            const std::size_t c = class_of(m_.distance(us_[i], vs_[i]), num_classes);
            order_[cursor[c]++] = static_cast<std::uint32_t>(i);
        }
    }

    bool next_chunk(std::size_t soft_cap, std::vector<GreedyCandidate>& out) override {
        while (served_ >= scratch_.size()) {
            if (class_start_.empty() || next_class_ + 1 >= class_start_.size()) return false;
            served_ = 0;
            const std::uint32_t begin = class_start_[next_class_];
            const std::uint32_t end = class_start_[next_class_ + 1];
            ++next_class_;
            scratch_.resize(end - begin);
            place_by_weight(scratch_, [&](auto&& fn) {
                for (std::uint32_t k = begin; k < end; ++k) {
                    const VertexId u = us_[order_[k]];
                    const VertexId v = vs_[order_[k]];
                    fn(u, v, m_.distance(u, v));
                }
            });
        }
        const std::size_t take =
            std::min(std::max<std::size_t>(soft_cap, 1), scratch_.size() - served_);
        const std::size_t end = served_ + take;
        out.insert(out.end(),
                   scratch_.begin() + static_cast<std::ptrdiff_t>(served_),
                   scratch_.begin() + static_cast<std::ptrdiff_t>(end));
        served_ = end;
        return true;
    }

private:
    /// Geometric class index: 0 for w == 0, else 1 + floor(log2(w / wpos)).
    /// Monotone in w, and a pure function of w (equal weights share a
    /// class) -- the two properties the ordering proof needs.
    [[nodiscard]] std::size_t class_of(double w, std::size_t num_classes) const {
        if (!(w > 0.0) || !std::isfinite(wpos_)) return 0;
        const double c = 1.0 + std::floor(std::log2(w / wpos_));
        if (c <= 1.0) return 1;
        return std::min(num_classes - 1, static_cast<std::size_t>(c));
    }

    const EuclideanMetric& m_;
    std::vector<VertexId> us_, vs_;        ///< representative pairs (u < v)
    std::vector<std::uint32_t> order_;     ///< pair indices in class order
    std::vector<std::uint32_t> class_start_;  ///< prefix offsets into order_
    double wpos_ = std::numeric_limits<double>::infinity();
    std::size_t next_class_ = 0;
    std::vector<GreedyCandidate> scratch_;  ///< the one resident class
    std::size_t served_ = 0;
};

}  // namespace

std::unique_ptr<CandidateChunkSource> WspdCandidateSource::chunks() {
    return std::make_unique<WspdChunkSource>(m_, separation_);
}

double wspd_greedy_stretch_bound(double engine_stretch, double separation) {
    // Dumbbell induction: for a pair (p, q) covered by the s-separated
    // dumbbell (A, B) with representatives (u, v), enclosing radius r per
    // side, d(p, q) >= s * r:
    //   d_H(p, q) <= t' * d(p,u) + t * d(u,v) + t' * d(v,q)
    //             <= 4 t' r + t (d + 4r)
    // and solving 4 t'/s + t + 4t/s <= t' gives t' = t (s + 4) / (s - 4).
    if (!(separation > 4.0)) return std::numeric_limits<double>::infinity();
    return engine_stretch * (separation + 4.0) / (separation - 4.0);
}

namespace {

/// Smallest cone count whose guaranteed theta-graph stretch is <= budget.
std::size_t cones_for_budget(double budget) {
    for (std::size_t k = 8; k <= 4096; ++k) {
        if (theta_graph_stretch_bound(k) <= budget) return k;
    }
    throw std::invalid_argument("approx_greedy: stretch budget too tight for theta base");
}

Graph build_base(const MetricSpace& m, const ApproxParams& params, double t_base) {
    const auto* e = dynamic_cast<const EuclideanMetric*>(&m);
    if (e != nullptr && e->dim() == 2) {
        const std::size_t k = params.theta_cones_override != 0
                                  ? params.theta_cones_override
                                  : cones_for_budget(t_base);
        return theta_graph_sweep(*e, k);
    }
    // Generic doubling metric: net-tree spanner with budget eps' = t_base - 1.
    return net_spanner(m, NetSpannerOptions{.epsilon = t_base - 1.0,
                                            .degree_cap = params.net_degree_cap});
}

}  // namespace

BaseSpannerCandidateSource::BaseSpannerCandidateSource(const MetricSpace& m,
                                                       const BuildOptions& options)
    : m_(m), params_(options.approx), base_(m.size()) {
    const double eps = params_.epsilon;
    if (!(eps > 0.0) || eps > 1.0) {
        throw std::invalid_argument(
            "BaseSpannerCandidateSource: epsilon must be in (0, 1]");
    }
    // Split the stretch budget: (1 + eps/3) for the base, the rest for the
    // simulation; (1 + eps/3) * t_sim = 1 + eps exactly.
    t_base_ = 1.0 + eps / 3.0;
    t_sim_ = (1.0 + eps) / t_base_;
    const std::size_t n = m.size();
    if (n <= 1) return;

    {
        const Timer base_timer;
        base_ = build_base(m, params_, t_base_);
        seconds_base_ = base_timer.seconds();
    }

    // E0: edges of weight <= D/n go straight to the output, lightest
    // first (their spanner edge ids must form the prefix -- the Lemma-11
    // suite relies on it). The heavier rest of G' is streamed by chunks()
    // straight into the session's candidate buffer, so the source never
    // holds a second copy of the candidate list.
    Weight max_w = 0.0;
    for (const Edge& e : base_.edges()) max_w = std::max(max_w, e.weight);
    light_threshold_ = max_w / static_cast<double>(n);
    for (const Edge& e : base_.edges()) {
        if (e.weight <= light_threshold_) light_.push_back(e);
    }
    std::sort(light_.begin(), light_.end(), [](const Edge& a, const Edge& b) {
        return std::tie(a.weight, a.u, a.v) < std::tie(b.weight, b.u, b.v);
    });
}

std::unique_ptr<CandidateChunkSource> BaseSpannerCandidateSource::chunks() {
    return std::make_unique<WholeListChunkSource>(
        [this](std::vector<GreedyCandidate>& out) { append_sorted_heavy_edges(out); });
}

void BaseSpannerCandidateSource::append_sorted_heavy_edges(
    std::vector<GreedyCandidate>& out) const {
    if (m_.size() <= 1) return;
    // The simulated candidates: G' minus E0, in the simulation's
    // historical tie order (weight, u, v) over raw endpoints.
    const std::size_t base = out.size();
    out.resize(base + base_.num_edges() - light_.size());
    place_by_weight(std::span<GreedyCandidate>(out).subspan(base), [&](auto&& fn) {
        for (const Edge& e : base_.edges()) {
            if (e.weight > light_threshold_) fn(e.u, e.v, e.weight);
        }
    });
}

void BaseSpannerCandidateSource::seed(Graph& h) {
    for (const Edge& e : light_) h.add_edge(e.u, e.v, e.weight);
}

void BaseSpannerCandidateSource::configure_engine(GreedyEngineOptions& options) {
    // The simulation runs at its own stretch budget, whatever the caller
    // put in BuildOptions::stretch.
    options.stretch = t_sim_;
}

ApproxGreedyResult approx_greedy_build(SpannerSession& session, const MetricSpace& m,
                                       const BuildOptions& options, BuildReport* report) {
    // Reset-before-work: a throw below (bad options, bad epsilon) must not
    // leave a previous build's numbers in the caller's report.
    if (report != nullptr) *report = BuildReport{};
    const Timer total_timer;
    options.validate();
    const std::size_t n = m.size();

    BaseSpannerCandidateSource source(m, options);
    ApproxGreedyResult result{.spanner = Graph(n), .base = Graph(n)};
    result.t_base = source.t_base();
    result.t_sim = source.t_sim();
    if (n <= 1) {
        if (report != nullptr) *report = BuildReport{};
        result.seconds_total = total_timer.seconds();
        return result;
    }
    result.base = source.base();
    result.seconds_base = source.seconds_base();
    result.light_edges = source.light_edges();

    BuildReport local_report;
    result.spanner = session.build(source, options, &local_report);
    local_report.algorithm = "greedy-approx";
    result.buckets = local_report.stats.buckets;
    result.seconds_total = total_timer.seconds();
    if (report != nullptr) *report = local_report;
    return result;
}

}  // namespace gsp
