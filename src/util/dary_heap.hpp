// Implicit d-ary min-heap.
//
// The binary std::push_heap/pop_heap pair was the hot instruction stream of
// every Dijkstra query in the greedy kernel. A 4-ary layout halves the tree
// height (fewer sift levels per pop) and keeps the four children of a node
// in at most two cache lines, trading a slightly wider min-of-children scan
// -- the standard win for decrease-key-free Dijkstra workloads where pushes
// outnumber pops and most sifts terminate early. bench_micro's queue
// ablation measures the 2-, 4- and 8-ary layouts on bounded Dijkstra probes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace gsp {

/// Min-heap over T using `operator>` (the convention of the Dijkstra
/// QueueItem). Arity is a compile-time constant; 4 is the tuned default for
/// the spanner kernel, 2 reproduces the classic binary heap for benches.
template <class T, std::size_t Arity = 4>
class DaryHeap {
    static_assert(Arity >= 2, "DaryHeap: arity must be >= 2");

public:
    [[nodiscard]] bool empty() const { return items_.empty(); }
    [[nodiscard]] std::size_t size() const { return items_.size(); }
    [[nodiscard]] std::size_t capacity() const { return items_.capacity(); }
    void clear() { items_.clear(); }  // keeps capacity, like vector::clear
    void reserve(std::size_t n) { items_.reserve(n); }

    /// The minimum element. Precondition: !empty().
    [[nodiscard]] const T& min() const { return items_.front(); }

    void push(T item) {
        items_.push_back(std::move(item));
        sift_up(items_.size() - 1);
    }

    /// Remove and return the minimum element. Precondition: !empty().
    T pop_min() {
        T out = std::move(items_.front());
        if (items_.size() > 1) {
            items_.front() = std::move(items_.back());
            items_.pop_back();
            sift_down(0);
        } else {
            items_.pop_back();
        }
        return out;
    }

private:
    void sift_up(std::size_t i) {
        T item = std::move(items_[i]);
        while (i > 0) {
            const std::size_t parent = (i - 1) / Arity;
            if (!(items_[parent] > item)) break;
            items_[i] = std::move(items_[parent]);
            i = parent;
        }
        items_[i] = std::move(item);
    }

    void sift_down(std::size_t i) {
        const std::size_t n = items_.size();
        T item = std::move(items_[i]);
        for (;;) {
            const std::size_t first = Arity * i + 1;
            if (first >= n) break;
            const std::size_t last = std::min(first + Arity, n);
            std::size_t best = first;
            for (std::size_t c = first + 1; c < last; ++c) {
                if (items_[best] > items_[c]) best = c;
            }
            if (!(item > items_[best])) break;
            items_[i] = std::move(items_[best]);
            i = best;
        }
        items_[i] = std::move(item);
    }

    std::vector<T> items_;
};

}  // namespace gsp
