#include "geom/uniform_grid.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace gsp {

namespace {

constexpr double kHalfSqrt2 = 0.7071067811865476;  // sqrt(2) / 2

/// For every occupied cell a of `lv`, visit the cells whose min_boxdist
/// to a can fall in [mb_lo, mb_hi) as ranges of cell indices: per row
/// offset dy >= 0, the one or two dx intervals (dx > 0 when dy == 0)
/// inside the band's ring -- not the square around it -- each widened by
/// a cell against rounding, invoking fn(a, b, e) with the cell range
/// [b, e). Every unordered cell pair with min_boxdist in the band lies in
/// exactly one visited range; a range may also hold cells outside the
/// band. An interval is contiguous in the sorted key array (y-major
/// packing), and its start only moves right while cell a walks along one
/// row, so a cursor per interval replaces a binary search.
template <class Fn>
void scan_cell_ranges(const UniformGrid2D::Level& lv, double mb_lo, double mb_hi, Fn&& fn) {
    if (!(mb_lo < mb_hi)) return;
    const double h = lv.cell_size;
    // Per row offset dy (while the y gap gy = (dy - 1) h stays below
    // mb_hi), the |dx| interval [near, far]: the x gap (|dx| - 1) h must
    // stay inside the band's chord at this row, below sqrt(mb_hi^2 - gy^2)
    // and at least sqrt(mb_lo^2 - gy^2) when that is positive. The chords
    // are taken in cell units, where the band's edges stay within about
    // three grid extents (mb_hi is at most twice the diagonal): at input
    // scale mb_hi^2 can overflow while every distance is finite.
    const double hi_cells = mb_hi / h;
    const double lo_cells = mb_lo / h;
    struct Row {
        std::int64_t near, far;
    };
    std::vector<Row> rows;
    rows.reserve(
        static_cast<std::size_t>(std::min(static_cast<double>(lv.extent), hi_cells + 2.0)));
    for (std::int64_t dy = 0; dy < lv.extent; ++dy) {
        const double gap = dy > 0 ? static_cast<double>(dy - 1) : 0.0;
        if (gap * h >= mb_hi) break;
        const double outer2 = hi_cells * hi_cells - gap * gap;
        const double inner2 = lo_cells * lo_cells - gap * gap;
        Row r{};
        r.far = static_cast<std::int64_t>(outer2 > 0.0 ? std::sqrt(outer2) : 0.0) + 2;
        r.near = static_cast<std::int64_t>(inner2 > 0.0 ? std::sqrt(inner2) : 0.0);
        if (dy == 0) r.near = std::max<std::int64_t>(r.near, 1);
        rows.push_back(r);
    }

    const std::uint64_t* keys = lv.keys.data();
    const std::size_t cells = lv.keys.size();
    const auto row_begin = [&](std::int64_t y) {
        const auto iy = static_cast<std::size_t>(y);
        return keys + (iy < lv.row_start.size() ? lv.row_start[iy] : cells);
    };
    // Per row offset: the row's end and two cursors (left and right
    // interval), reset whenever cell a enters a new row.
    std::vector<const std::uint64_t*> cursor(2 * rows.size());
    std::vector<const std::uint64_t*> row_end(rows.size());
    std::int64_t row_of_a = -1;
    for (std::size_t a = 0; a < cells; ++a) {
        const std::uint64_t key = keys[a];
        const auto ax = static_cast<std::int64_t>(key & 0xffffffffULL);
        const auto ay = static_cast<std::int64_t>(key >> 32);
        if (ay != row_of_a) {
            row_of_a = ay;
            for (std::size_t dy = 0; dy < rows.size(); ++dy) {
                const auto y = ay + static_cast<std::int64_t>(dy);
                cursor[2 * dy] = cursor[2 * dy + 1] = row_begin(y);
                row_end[dy] = row_begin(y + 1);
            }
        }
        for (std::size_t dy = 0; dy < rows.size(); ++dy) {
            const Row& r = rows[dy];
            const std::uint64_t row = static_cast<std::uint64_t>(ay + static_cast<std::int64_t>(dy))
                                      << 32;
            const std::uint64_t* const stop = row_end[dy];
            const auto visit = [&](const std::uint64_t*& cur, std::int64_t x_lo,
                                   std::int64_t x_hi) {
                x_lo = std::max<std::int64_t>(x_lo, 0);
                x_hi = std::min<std::int64_t>(x_hi, 0xffffffffLL);
                if (x_lo > x_hi) return;
                const std::uint64_t k_lo = row | static_cast<std::uint64_t>(x_lo);
                const std::uint64_t k_hi = row | static_cast<std::uint64_t>(x_hi);
                while (cur != stop && *cur < k_lo) ++cur;
                const std::uint64_t* e = cur;
                while (e != stop && *e <= k_hi) ++e;
                if (e != cur) {
                    fn(a, static_cast<std::size_t>(cur - keys), static_cast<std::size_t>(e - keys));
                }
            };
            if (dy > 0 && r.near <= 0) {
                visit(cursor[2 * dy], ax - r.far, ax + r.far);
            } else {
                if (dy > 0) visit(cursor[2 * dy], ax - r.far, ax - r.near);
                visit(cursor[2 * dy + 1], ax + r.near, ax + r.far);
            }
        }
    }
}

/// Every unordered pair of occupied cells of `lv` whose min_boxdist falls
/// in [mb_lo, mb_hi), each exactly once (row-major: dy >= 0, and dx > 0
/// when dy == 0), invoking fn(a, b) with the two cell indices: the ranges
/// above, decided by the exact per-pair test.
template <class Fn>
void scan_cell_pairs(const UniformGrid2D::Level& lv, double mb_lo, double mb_hi, Fn&& fn) {
    if (!(mb_lo < mb_hi)) return;
    const double h = lv.cell_size;
    // The exact min_boxdist, tabulated: mb(i, j) = hypot(i h, j h) for the
    // gap counts i = max(|dx| - 1, 0) and j = max(dy - 1, 0), over every
    // gap the ranges can reach -- within the band, and within the grid.
    const auto reach = static_cast<std::size_t>(
        std::min(mb_hi / h + 3.0, static_cast<double>(lv.extent) + 1.0));
    std::vector<double> mb(reach * reach);
    for (std::size_t j = 0; j < reach; ++j) {
        for (std::size_t i = 0; i < reach; ++i) {
            mb[j * reach + i] = std::hypot(static_cast<double>(i) * h, static_cast<double>(j) * h);
        }
    }
    const std::uint64_t* keys = lv.keys.data();
    scan_cell_ranges(lv, mb_lo, mb_hi, [&](std::size_t a, std::size_t b, std::size_t e) {
        const auto ax = static_cast<std::int64_t>(keys[a] & 0xffffffffULL);
        const auto dy = static_cast<std::int64_t>(keys[b] >> 32) -
                        static_cast<std::int64_t>(keys[a] >> 32);
        const double* mb_row = mb.data() + static_cast<std::size_t>(dy > 0 ? dy - 1 : 0) * reach;
        for (std::size_t c = b; c < e; ++c) {
            const auto bx = static_cast<std::int64_t>(keys[c] & 0xffffffffULL);
            const std::int64_t adx = bx >= ax ? bx - ax : ax - bx;
            const double m = mb_row[adx > 0 ? adx - 1 : 0];
            if (m >= mb_lo && m < mb_hi) fn(a, c);
        }
    });
}

}  // namespace

std::uint64_t UniformGrid2D::cell_key(double x, double y, double h) const {
    const auto ix = static_cast<std::uint64_t>(std::max(0.0, std::floor((x - minx_) / h)));
    const auto iy = static_cast<std::uint64_t>(std::max(0.0, std::floor((y - miny_) / h)));
    return (iy << 32) | (ix & 0xffffffffULL);
}

std::size_t UniformGrid2D::find_cell(const Level& level, std::uint64_t key) const {
    const auto it = std::lower_bound(level.keys.begin(), level.keys.end(), key);
    if (it == level.keys.end() || *it != key) {
        throw std::logic_error("UniformGrid2D: point mapped to an unoccupied cell");
    }
    return static_cast<std::size_t>(it - level.keys.begin());
}

UniformGrid2D::UniformGrid2D(const EuclideanMetric& m, double separation)
    : m_(m), separation_(separation) {
    if (m_.dim() != 2) {
        throw std::invalid_argument("UniformGrid2D: metric must be 2-dimensional");
    }
    if (!(separation_ > 4.0)) {
        throw std::invalid_argument(
            "UniformGrid2D: separation must be > 4 for a finite stretch bound");
    }
    const std::size_t n = m_.size();
    if (n == 0) return;

    minx_ = m_.point(0)[0];
    miny_ = m_.point(0)[1];
    double maxx = minx_, maxy = miny_;
    for (std::size_t i = 1; i < n; ++i) {
        const auto p = m_.point(i);
        minx_ = std::min(minx_, p[0]);
        maxx = std::max(maxx, p[0]);
        miny_ = std::min(miny_, p[1]);
        maxy = std::max(maxy, p[1]);
    }
    const double span = std::max(maxx - minx_, maxy - miny_);
    dmax_ = std::hypot(maxx - minx_, maxy - miny_);

    // Level-0 granularity: ~1-2 points per occupied cell on uniform data
    // (power-of-two cells per axis nearest sqrt(n)).
    double axis = std::exp2(std::round(std::log2(std::sqrt(static_cast<double>(n)))));
    if (axis < 1.0) axis = 1.0;
    double h0 = span > 0.0 ? span / axis : 1.0;
    if (!(h0 > 0.0)) h0 = 1.0;
    near_cutoff_ = separation_ * h0 * kHalfSqrt2;

    const auto build_level = [&](double h, bool keep_points) {
        Level lv;
        lv.cell_size = h;
        lv.radius = h * kHalfSqrt2;
        std::vector<std::pair<std::uint64_t, VertexId>> order(n);
        for (std::size_t i = 0; i < n; ++i) {
            const auto p = m_.point(i);
            order[i] = {cell_key(p[0], p[1], h), static_cast<VertexId>(i)};
        }
        std::sort(order.begin(), order.end());  // (key, id): ids ascending per cell
        if (keep_points) {
            near_ids_.reserve(n);
            near_x_.reserve(n);
            near_y_.reserve(n);
        }
        for (std::size_t i = 0; i < n; ++i) {
            const auto p = m_.point(order[i].second);
            if (i == 0 || order[i].first != order[i - 1].first) {
                lv.keys.push_back(order[i].first);
                lv.rep.push_back(order[i].second);
                lv.rep_x.push_back(p[0]);
                lv.rep_y.push_back(p[1]);
                if (keep_points) cell_start_.push_back(static_cast<std::uint32_t>(i));
            }
            if (keep_points) {
                near_ids_.push_back(order[i].second);
                near_x_.push_back(p[0]);
                near_y_.push_back(p[1]);
            }
        }
        if (keep_points) cell_start_.push_back(static_cast<std::uint32_t>(n));
        for (const std::uint64_t key : lv.keys) {
            lv.extent = std::max({lv.extent, static_cast<std::int64_t>(key & 0xffffffffULL) + 1,
                                  static_cast<std::int64_t>(key >> 32) + 1});
        }
        const std::size_t rows = static_cast<std::size_t>(lv.keys.back() >> 32) + 2;
        lv.row_start.resize(rows);
        std::size_t c = 0;
        for (std::size_t y = 0; y < rows; ++y) {
            while (c < lv.keys.size() && (lv.keys[c] >> 32) < y) ++c;
            lv.row_start[y] = static_cast<std::uint32_t>(c);
        }
        return lv;
    };

    levels_.push_back(build_level(h0, true));
    double h = h0;
    while (levels_.back().keys.size() > 1) {
        h *= 2.0;
        // Level l only serves pairs with d >= s * r_l; none exist past
        // the diagonal. And once a level holds a single occupied cell,
        // every pair it could see is within 2 r < s r of itself -- no
        // assignment there or coarser.
        if (separation_ * h * kHalfSqrt2 > dmax_) break;
        levels_.push_back(build_level(h, false));
    }
}

template <class Fn>
void UniformGrid2D::visit_window(double lo, double hi, Fn&& fn) const {
    if (levels_.empty() || !(lo < hi)) return;

    // Candidate weights are computed in batches: pairs queue their
    // endpoint coordinates, one distances2d kernel call evaluates up to
    // kPairBatch of them, and the consumer filter runs over the results in
    // queue order. The kernel is bitwise equal to m_.distance, so the
    // visited candidates are identical to the per-pair evaluation at any
    // backend.
    constexpr std::size_t kPairBatch = 8;
    struct {
        double ax[kPairBatch], ay[kPairBatch], bx[kPairBatch], by[kPairBatch];
        VertexId u[kPairBatch], v[kPairBatch];
        std::size_t n = 0;
    } pend;
    double dist[kPairBatch];
    const auto flush = [&](auto&& consume) {
        if (pend.n == 0) return;
        simd_->distances2d(pend.ax, pend.ay, pend.bx, pend.by, pend.n, dist);
        for (std::size_t i = 0; i < pend.n; ++i) consume(pend.u[i], pend.v[i], dist[i]);
        pend.n = 0;
    };
    // A pair whose squared distance is clearly outside the window -- by a
    // relative margin far wider than any rounding -- cannot pass the exact
    // filter below, so it skips the batch. The window's narrow pieces
    // scan a band of cell pairs much wider than themselves; this keeps
    // them from paying the kernel for the rest of the band.
    const double keep_lo2 = lo * (lo * (1.0 - 1e-12));  // finite for any lo <= a distance
    const auto push_pair = [&](VertexId a, double ax, double ay, VertexId b, double bx,
                               double by, double keep_hi2, auto&& consume) {
        const double dx = ax - bx;
        const double dy = ay - by;
        const double d2 = dx * dx + dy * dy;
        if (d2 < keep_lo2 || d2 > keep_hi2) return;
        // Canonical (u < v). The coordinates may stay in either order:
        // a - b is exactly -(b - a), so the distance is the same double.
        pend.ax[pend.n] = ax;
        pend.ay[pend.n] = ay;
        pend.bx[pend.n] = bx;
        pend.by[pend.n] = by;
        pend.u[pend.n] = std::min(a, b);
        pend.v[pend.n] = std::max(a, b);
        if (++pend.n == kPairBatch) flush(consume);
    };

    // Near pairs: exact point-pair enumeration at level 0. A pair at
    // distance d lies in cells with min_boxdist <= d <= min_boxdist +
    // 4 r_0, so only cell pairs with min_boxdist in the clamped band can
    // contribute to this window -- and none at all once the window starts
    // at the cutoff.
    if (lo < near_cutoff_) {
        const Level& l0 = levels_.front();
        const double band_lo = std::max(0.0, lo - 4.0 * l0.radius);
        const double band_hi = std::min(near_cutoff_, hi);
        const auto consume_near = [&](VertexId u, VertexId v, double d) {
            if (d < near_cutoff_ && d >= lo && d < hi) fn(u, v, d);
        };
        const double keep_hi2 = band_hi * band_hi * (1.0 + 1e-12);
        // Points [p_begin, p_end) against points [q_begin, q_end), each
        // unordered pair once (q > p: a later cell's points come later).
        const auto point_pairs = [&](std::uint32_t p_begin, std::uint32_t p_end,
                                     std::uint32_t q_begin, std::uint32_t q_end) {
            for (std::uint32_t p = p_begin; p < p_end; ++p) {
                for (std::uint32_t q = std::max(q_begin, p + 1); q < q_end; ++q) {
                    push_pair(near_ids_[p], near_x_[p], near_y_[p], near_ids_[q], near_x_[q],
                              near_y_[q], keep_hi2, consume_near);
                }
            }
        };
        // Same-cell pairs are at most a cell diagonal (2 r_0) apart, up to
        // rounding in the cell assignment.
        if (lo <= 2.0 * l0.radius * (1.0 + 1e-9)) {
            for (std::size_t c = 0; c + 1 < cell_start_.size(); ++c) {
                point_pairs(cell_start_[c], cell_start_[c + 1], cell_start_[c], cell_start_[c + 1]);
            }
        }
        // Cell pairs outside the band hold no pair of the window, so the
        // exact filter alone decides each point pair of a whole range.
        scan_cell_ranges(l0, band_lo, band_hi, [&](std::size_t a, std::size_t b, std::size_t e) {
            point_pairs(cell_start_[a], cell_start_[a + 1], cell_start_[b], cell_start_[e]);
        });
        flush(consume_near);  // the filter changes below: drain first
    }

    // Far pairs: one representative candidate per ring cell pair, every
    // level. The ring [(s - 4) r, 2 s r) is where a level's assigned
    // pairs can live; the window narrows it further through the same
    // weight-vs-boxdist slack (w <= mb + 4 r).
    const auto consume_far = [&](VertexId u, VertexId v, double w) {
        if (w >= lo && w < hi) fn(u, v, w);
    };
    const double keep_hi2 = hi * hi * (1.0 + 1e-12);
    for (const Level& lv : levels_) {
        const double rl = lv.radius;
        const double band_lo = std::max((separation_ - 4.0) * rl, lo - 4.0 * rl);
        const double band_hi = std::min(2.0 * separation_ * rl, hi);
        if (!(band_lo < band_hi)) continue;
        scan_cell_pairs(lv, band_lo, band_hi, [&](std::size_t a, std::size_t b) {
            push_pair(lv.rep[a], lv.rep_x[a], lv.rep_y[a], lv.rep[b], lv.rep_x[b], lv.rep_y[b],
                      keep_hi2, consume_far);
        });
    }
    flush(consume_far);  // one filter across levels: drain once at the end
}

GreedyCandidate UniformGrid2D::covering_candidate(VertexId i, VertexId j) const {
    const VertexId u = std::min(i, j);
    const VertexId v = std::max(i, j);
    const double d = m_.distance(u, v);
    if (d < near_cutoff_) return GreedyCandidate{u, v, d};
    const auto level = static_cast<std::size_t>(std::floor(std::log2(d / near_cutoff_)));
    const Level& lv = levels_.at(level);  // construction guarantees existence
    const auto pu = m_.point(u);
    const auto pv = m_.point(v);
    const std::size_t cu = find_cell(lv, cell_key(pu[0], pu[1], lv.cell_size));
    const std::size_t cv = find_cell(lv, cell_key(pv[0], pv[1], lv.cell_size));
    if (cu == cv) {
        throw std::logic_error("UniformGrid2D: assigned pair landed in one cell");
    }
    const VertexId ru = std::min(lv.rep[cu], lv.rep[cv]);
    const VertexId rv = std::max(lv.rep[cu], lv.rep[cv]);
    return GreedyCandidate{ru, rv, m_.distance(ru, rv)};
}

std::size_t GridChunkSource::default_budget(std::size_t points) {
    return std::max<std::size_t>(std::size_t{1} << 18, 3 * points);
}

GridChunkSource::GridChunkSource(const UniformGrid2D& grid, std::size_t budget)
    : grid_(&grid), budget_(budget) {
    if (budget_ == 0) throw std::invalid_argument("GridChunkSource: budget must be >= 1");
}

void GridChunkSource::plan() {
    // The weight classes: [0, f), then octaves by repeated doubling while
    // the lower edge is within the diagonal, each cut into kSubBins equal
    // sub-bins. These doubles are both the bin edges and the window
    // edges, so a candidate is counted in the bin whose window collects
    // it.
    const double cutoff = grid_->near_cutoff();
    const double f = cutoff > 0.0 ? cutoff * 0x1p-20 : 1.0;
    const auto add_class = [&](double lo, double hi) {
        edges_.reserve(edges_.size() + kSubBins + 1);
        edges_.push_back(lo);
        for (std::size_t j = 1; j < kSubBins; ++j) {
            edges_.push_back(lo + (hi - lo) * (static_cast<double>(j) / kSubBins));
        }
    };
    add_class(0.0, f);
    double lo = f;
    for (; lo <= grid_->max_distance_bound(); lo *= 2.0) add_class(lo, 2.0 * lo);
    edges_.push_back(lo);
    inv_f_ = 1.0 / f;
    counts_.assign(edges_.size() - 1, 0);
    grid_->visit_window(0.0, edges_.back(),
                        [&](VertexId, VertexId, double w) { ++counts_[bin_of(w)]; });
    ++passes_;
    left_ = counts_[0];
}

std::size_t GridChunkSource::bin_of(double w) const {
    // Estimate the bin from q = w / f: class k >= 1 holds q in
    // [2^(k-1), 2^k), which is q's binary exponent, and q's leading
    // mantissa bits pick the sub-bin. Then settle the estimate against the
    // edge doubles themselves.
    static_assert(std::has_single_bit(kSubBins), "sub-bins index mantissa bits");
    constexpr int kSubBinBits = std::countr_zero(kSubBins);
    const double q = w * inv_f_;
    std::size_t i = 0;
    if (q < 1.0) {
        i = static_cast<std::size_t>(q * kSubBins);
    } else {
        const auto bits = std::bit_cast<std::uint64_t>(q);
        i = static_cast<std::size_t>((bits >> 52) - 1022) * kSubBins +
            static_cast<std::size_t>((bits >> (52 - kSubBinBits)) & (kSubBins - 1));
    }
    i = std::min(i, counts_.size() - 1);
    while (i > 0 && w < edges_[i]) --i;
    while (i + 1 < counts_.size() && w >= edges_[i + 1]) ++i;
    return i;
}

bool GridChunkSource::next_window(std::size_t soft_cap, std::vector<GreedyCandidate>& out) {
    if (edges_.empty()) plan();
    while (left_ == 0) {
        if (++bin_ >= counts_.size()) return false;
        left_ = counts_[bin_];
        lo_ = edges_[bin_];
    }
    scratch_.clear();
    served_ = 0;
    std::vector<GreedyCandidate>* dest = &scratch_;
    std::size_t base = 0;  // where the window starts in *dest
    if (left_ > budget_) {
        // One sub-bin alone is over the budget: a capped pass serves its
        // lightest candidates and leaves the rest for the next window.
        slice_.clear();
        lo_ = collect_capped(lo_, edges_[bin_ + 1]);
        if (scratch_.empty() || scratch_.size() > left_) {
            throw std::logic_error("GridChunkSource: capped window disagrees with its plan");
        }
        left_ -= scratch_.size();
    } else {
        // The fewest pieces that fit: pack the class's following sub-bins
        // onto this one while the window stays within the budget.
        std::size_t total = left_;
        std::size_t end = bin_ + 1;
        const std::size_t class_end = (bin_ / kSubBins + 1) * kSubBins;
        while (end < class_end && total + counts_[end] <= budget_) total += counts_[end++];
        // A window within the soft cap goes straight into the caller's
        // buffer, so only a window served in slices is held twice. The
        // plan's counts give every sub-bin its own slice, filled in
        // enumeration order -- the stable first pass of the sort, for
        // free -- so each slice is then sorted on its own (one sort of
        // the whole window drained 11-36% slower at n = 5000).
        if (total <= soft_cap) {
            dest = &out;
            base = out.size();
        }
        slice_.assign(1, base + left_);
        slice_.reserve(end - bin_);
        for (std::size_t b = bin_ + 1; b < end; ++b) slice_.push_back(slice_.back() + counts_[b]);
        fill_.assign(1, base);
        fill_.insert(fill_.end(), slice_.begin(), slice_.end() - 1);
        dest->resize(base + total);
        GreedyCandidate* data = dest->data();
        grid_->visit_window(lo_, edges_[end], [&](VertexId u, VertexId v, double w) {
            const std::size_t k = bin_of(w) - bin_;
            if (k >= slice_.size() || fill_[k] == slice_[k]) {
                throw std::logic_error("GridChunkSource: window disagrees with its plan");
            }
            data[fill_[k]++] = GreedyCandidate{u, v, w};
        });
        if (fill_ != slice_) {
            throw std::logic_error("GridChunkSource: window disagrees with its plan");
        }
        bin_ = end - 1;  // fully served; the next window starts past it
        left_ = 0;
    }
    ++passes_;
    // Window finalization: the stable (weight, u, v) sort, per slice --
    // byte-identical ordering to the comparison sort it replaced
    // (simd/radix_sort.hpp carries the argument), at O(window) cost.
    if (slice_.empty()) {
        sorter_.sort(scratch_);
    } else {
        std::size_t start = base;
        for (const std::size_t stop : slice_) {
            sorter_.sort(std::span<GreedyCandidate>(dest->data() + start, stop - start));
            start = stop;
        }
    }
    // Duplicates (a pair covered by several rings, or a near pair
    // doubling as a representative pair) share their weight, hence
    // their sub-bin: adjacent after the sort, removed completely here.
    dest->erase(std::unique(dest->begin() + static_cast<std::ptrdiff_t>(base), dest->end(),
                            [](const GreedyCandidate& a, const GreedyCandidate& b) {
                                return a.weight == b.weight && a.u == b.u && a.v == b.v;
                            }),
                dest->end());
    return true;
}

double GridChunkSource::collect_capped(double lo, double hi) {
    double cut = hi;
    std::size_t limit = 2 * budget_;
    grid_->visit_window(lo, hi, [&](VertexId u, VertexId v, double w) {
        if (w >= cut) return;
        scratch_.push_back(GreedyCandidate{u, v, w});
        if (scratch_.size() >= limit) {
            cut = trim(cut);
            limit = 2 * std::max(budget_, scratch_.size());
        }
    });
    if (scratch_.size() > budget_) cut = trim(cut);
    return cut;
}

double GridChunkSource::trim(double cut) {
    // Keep the candidates lighter than the (budget + 1)-th lightest: at
    // most budget of them. When that weight is the lightest one, keep the
    // whole lightest class instead -- an equal-weight mass is served
    // whole. Returns the window's new exclusive upper edge.
    const auto lighter = [](const GreedyCandidate& a, const GreedyCandidate& b) {
        return a.weight < b.weight;
    };
    const auto nth = scratch_.begin() + static_cast<std::ptrdiff_t>(budget_);
    std::nth_element(scratch_.begin(), nth, scratch_.end(), lighter);
    double next = nth->weight;
    const double lightest = std::min_element(scratch_.begin(), nth + 1, lighter)->weight;
    if (next == lightest) {
        next = cut;
        for (const GreedyCandidate& c : scratch_) {
            if (c.weight > lightest && c.weight < next) next = c.weight;
        }
    }
    std::erase_if(scratch_, [next](const GreedyCandidate& c) { return c.weight >= next; });
    return next;
}

bool GridChunkSource::next_chunk(std::size_t soft_cap, std::vector<GreedyCandidate>& out) {
    soft_cap = std::max<std::size_t>(soft_cap, 1);
    if (served_ >= scratch_.size()) {
        const std::size_t before = out.size();
        if (!next_window(soft_cap, out)) return false;
        if (out.size() > before) return true;  // the whole window, served directly
    }
    const std::size_t take = std::min(soft_cap, scratch_.size() - served_);
    const std::size_t end = served_ + take;
    out.insert(out.end(), scratch_.begin() + static_cast<std::ptrdiff_t>(served_),
               scratch_.begin() + static_cast<std::ptrdiff_t>(end));
    served_ = end;
    return true;
}

}  // namespace gsp
