#include "metric/euclidean.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <stdexcept>
#include <string>

namespace gsp {

EuclideanMetric::EuclideanMetric(std::size_t dim, std::vector<double> coords)
    : dim_(dim), coords_(std::move(coords)) {
    if (dim_ == 0) throw std::invalid_argument("EuclideanMetric: dim must be >= 1");
    if (coords_.size() % dim_ != 0) {
        throw std::invalid_argument("EuclideanMetric: coords not a multiple of dim");
    }
    // A NaN or infinite coordinate poisons every distance to its point, and
    // the spanner builders downstream hang or return wrong graphs on such
    // distances, so it fails here, once, naming the point.
    for (std::size_t i = 0; i < coords_.size(); ++i) {
        if (!std::isfinite(coords_[i])) {
            throw std::invalid_argument("EuclideanMetric: point " +
                                        std::to_string(i / dim_) +
                                        " has a non-finite coordinate");
        }
    }
    // Every builder sums and compares squared distances. A squared extent
    // that overflows turns far distances into inf, and one that underflows
    // below the smallest normal double collapses distinct points to
    // distance 0; either fails here, naming the axis and the two points
    // that span it.
    const std::size_t n = size();
    if (n == 0) return;
    const auto at = [&](std::size_t i, std::size_t k) { return coords_[i * dim_ + k]; };
    const auto axis_error = [&](const char* what, std::size_t k, std::size_t lo,
                                std::size_t hi) {
        return std::invalid_argument("EuclideanMetric: squared extent " + std::string(what) +
                                     ": axis " + std::to_string(k) + " spans points " +
                                     std::to_string(lo) + " and " + std::to_string(hi));
    };
    double sum = 0.0;
    double widest = 0.0;
    std::size_t widest_axis = 0, widest_lo = 0, widest_hi = 0;
    for (std::size_t k = 0; k < dim_; ++k) {
        std::size_t lo = 0, hi = 0;
        for (std::size_t i = 1; i < n; ++i) {
            if (at(i, k) < at(lo, k)) lo = i;
            if (at(i, k) > at(hi, k)) hi = i;
        }
        const double span = at(hi, k) - at(lo, k);
        sum += span * span;
        if (!std::isfinite(sum)) throw axis_error("overflows", k, lo, hi);
        if (span > widest) {
            widest = span;
            widest_axis = k;
            widest_lo = lo;
            widest_hi = hi;
        }
    }
    if (widest > 0.0 && sum < DBL_MIN) {
        throw axis_error("underflows", widest_axis, widest_lo, widest_hi);
    }
}

double EuclideanMetric::squared_distance(VertexId i, VertexId j) const {
    const double* a = coords_.data() + static_cast<std::size_t>(i) * dim_;
    const double* b = coords_.data() + static_cast<std::size_t>(j) * dim_;
    double sum = 0.0;
    for (std::size_t k = 0; k < dim_; ++k) {
        const double d = a[k] - b[k];
        sum += d * d;
    }
    return sum;
}

Weight EuclideanMetric::distance(VertexId i, VertexId j) const {
    if (i >= size() || j >= size()) {
        throw std::out_of_range("EuclideanMetric::distance: point out of range");
    }
    return std::sqrt(squared_distance(i, j));
}

void EuclideanMetric::distances_from(VertexId src, std::span<const VertexId> targets,
                                     Weight* out, const simd::Kernels& k) const {
    const std::size_t n = targets.size();
    if (dim_ != 2) {
        for (std::size_t i = 0; i < n; ++i) out[i] = distance(src, targets[i]);
        return;
    }
    const double sx = coords_[2 * static_cast<std::size_t>(src)];
    const double sy = coords_[2 * static_cast<std::size_t>(src) + 1];
    constexpr std::size_t kBlock = 16;
    double ax[kBlock], ay[kBlock], bx[kBlock], by[kBlock];
    std::size_t i = 0;
    while (i < n) {
        const std::size_t blk = std::min(n - i, kBlock);
        for (std::size_t j = 0; j < blk; ++j) {
            const std::size_t t = targets[i + j];
            ax[j] = sx;
            ay[j] = sy;
            bx[j] = coords_[2 * t];
            by[j] = coords_[2 * t + 1];
        }
        k.distances2d(ax, ay, bx, by, blk, out + i);
        i += blk;
    }
}

std::span<const double> EuclideanMetric::point(VertexId i) const {
    if (i >= size()) throw std::out_of_range("EuclideanMetric::point: out of range");
    return {coords_.data() + static_cast<std::size_t>(i) * dim_, dim_};
}

EuclideanMetric make_euclidean_2d(std::span<const std::pair<double, double>> pts) {
    std::vector<double> coords;
    coords.reserve(pts.size() * 2);
    for (const auto& [x, y] : pts) {
        coords.push_back(x);
        coords.push_back(y);
    }
    return EuclideanMetric(2, std::move(coords));
}

}  // namespace gsp
