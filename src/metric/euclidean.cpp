#include "metric/euclidean.hpp"

#include <algorithm>
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
