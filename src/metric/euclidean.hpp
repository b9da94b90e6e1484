// Euclidean point sets as metric spaces.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "metric/metric_space.hpp"

namespace gsp {

/// A point set in R^d with the Euclidean (L2) metric. Points are stored in a
/// flat row-major array (point i occupies [i*d, (i+1)*d)).
class EuclideanMetric final : public MetricSpace {
public:
    /// Build from flat coordinates; coords.size() must be a multiple of dim,
    /// every coordinate finite (std::invalid_argument naming the first
    /// offending point otherwise), and the squared extent -- the sum over
    /// axes of the squared coordinate span -- finite and, unless every
    /// point coincides, at least DBL_MIN (std::invalid_argument naming the
    /// axis and the two points that span it otherwise).
    EuclideanMetric(std::size_t dim, std::vector<double> coords);

    [[nodiscard]] std::size_t size() const override { return coords_.size() / dim_; }
    [[nodiscard]] Weight distance(VertexId i, VertexId j) const override;

    [[nodiscard]] std::size_t dim() const { return dim_; }

    /// Coordinates of point i (span of length dim()).
    [[nodiscard]] std::span<const double> point(VertexId i) const;

    /// Squared distance (avoids the sqrt where only comparisons matter).
    [[nodiscard]] double squared_distance(VertexId i, VertexId j) const;

    /// Batched distances: out[i] = distance(src, targets[i]), bitwise (the
    /// 2D loop evaluates the same mul/add/sqrt tree as distance(); the
    /// build forbids FMA contraction project-wide). The metric candidate
    /// source's weight evaluation batches through here.
    void distances_from(VertexId src, std::span<const VertexId> targets, Weight* out) const;

private:
    std::size_t dim_;
    std::vector<double> coords_;
};

/// Convenience: 2D points from (x, y) pairs.
EuclideanMetric make_euclidean_2d(std::span<const std::pair<double, double>> pts);

}  // namespace gsp
