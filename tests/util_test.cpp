#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/dary_heap.hpp"
#include "util/fit.hpp"
#include "util/random.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace gsp {
namespace {

TEST(RngTest, Deterministic) {
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
    }
}

TEST(RngTest, UniformIntBounds) {
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const auto x = rng.uniform_int(-3, 5);
        EXPECT_GE(x, -3);
        EXPECT_LE(x, 5);
    }
    EXPECT_THROW(rng.uniform_int(2, 1), std::invalid_argument);
    EXPECT_THROW(rng.index(0), std::invalid_argument);
}

TEST(RngTest, ChanceExtremes) {
    Rng rng(11);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(RngTest, ForkProducesIndependentStreams) {
    Rng a(5);
    Rng fork = a.fork();
    // Forked stream should not replay the parent's draws.
    bool any_diff = false;
    for (int i = 0; i < 20; ++i) {
        if (a.uniform_int(0, 1 << 30) != fork.uniform_int(0, 1 << 30)) any_diff = true;
    }
    EXPECT_TRUE(any_diff);
}

TEST(TableTest, AlignedOutput) {
    Table t({"name", "value"});
    t.add_row({"alpha", "1"});
    t.add_row({"b", "22.5"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("-----"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(TableTest, CsvOutput) {
    Table t({"a", "b"});
    t.add_row({"1", "2"});
    std::ostringstream os;
    t.print_csv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TableTest, RowArityChecked) {
    Table t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
    EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(FmtTest, TrimsTrailingZeros) {
    EXPECT_EQ(fmt(1.5, 3), "1.5");
    EXPECT_EQ(fmt(2.0, 3), "2");
    EXPECT_EQ(fmt(0.125, 3), "0.125");
    EXPECT_EQ(fmt(std::numeric_limits<double>::infinity()), "inf");
    EXPECT_EQ(fmt_ratio(12.339, 2), "12.34x");
}

TEST(FitTest, RecoversExactPowerLaw) {
    std::vector<double> xs;
    std::vector<double> ys;
    for (double x : {10.0, 20.0, 40.0, 80.0, 160.0}) {
        xs.push_back(x);
        ys.push_back(3.0 * std::pow(x, 1.5));
    }
    const PowerFit fit = fit_power_law(xs, ys);
    EXPECT_NEAR(fit.exponent, 1.5, 1e-9);
    EXPECT_NEAR(fit.coefficient, 3.0, 1e-6);
    EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(FitTest, NoisyPowerLawStillClose) {
    Rng rng(3);
    std::vector<double> xs;
    std::vector<double> ys;
    for (int i = 1; i <= 12; ++i) {
        const double x = 100.0 * i;
        xs.push_back(x);
        ys.push_back(2.0 * std::pow(x, 2.0) * rng.uniform(0.9, 1.1));
    }
    const PowerFit fit = fit_power_law(xs, ys);
    EXPECT_NEAR(fit.exponent, 2.0, 0.1);
    EXPECT_GT(fit.r_squared, 0.99);
}

TEST(FitTest, InputValidation) {
    const std::vector<double> one = {1.0};
    EXPECT_THROW((void)fit_power_law(one, one), std::invalid_argument);
    const std::vector<double> xs = {1.0, 2.0};
    const std::vector<double> bad = {1.0, -2.0};
    EXPECT_THROW((void)fit_power_law(xs, bad), std::invalid_argument);
    const std::vector<double> same_x = {2.0, 2.0};
    EXPECT_THROW((void)fit_slope(same_x, xs), std::invalid_argument);
}

TEST(FitTest, SlopeOfLine) {
    const std::vector<double> xs = {0.0, 1.0, 2.0, 3.0};
    const std::vector<double> ys = {1.0, 3.0, 5.0, 7.0};
    EXPECT_NEAR(fit_slope(xs, ys), 2.0, 1e-12);
}

struct HeapItem {
    double key;
    int payload;
    friend bool operator>(const HeapItem& a, const HeapItem& b) { return a.key > b.key; }
};

template <std::size_t Arity>
void heap_sorts_random_input() {
    Rng rng(11);
    DaryHeap<HeapItem, Arity> heap;
    std::vector<double> keys;
    for (int round = 0; round < 3; ++round) {
        // Mixed pushes and pops, like a Dijkstra frontier.
        for (int i = 0; i < 500; ++i) {
            const double k = rng.uniform(0.0, 100.0);
            keys.push_back(k);
            heap.push({k, i});
            if (i % 3 == 0 && !heap.empty()) {
                const HeapItem out = heap.pop_min();
                const auto it = std::min_element(keys.begin(), keys.end());
                EXPECT_EQ(out.key, *it);
                keys.erase(it);
            }
        }
        double prev = -1.0;
        while (!heap.empty()) {
            const HeapItem out = heap.pop_min();
            EXPECT_GE(out.key, prev);
            prev = out.key;
        }
        keys.clear();
        EXPECT_TRUE(heap.empty());
    }
}

TEST(DaryHeapTest, QuaternarySortsRandomInput) { heap_sorts_random_input<4>(); }
TEST(DaryHeapTest, BinarySortsRandomInput) { heap_sorts_random_input<2>(); }

TEST(DaryHeapTest, ClearKeepsCapacity) {
    DaryHeap<HeapItem, 4> heap;
    heap.reserve(64);
    for (int i = 0; i < 50; ++i) heap.push({static_cast<double>(i), i});
    const std::size_t cap = heap.capacity();
    heap.clear();
    EXPECT_TRUE(heap.empty());
    EXPECT_EQ(heap.capacity(), cap);
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
    for (const std::size_t workers : {1u, 2u, 4u}) {
        ThreadPool pool(workers);
        EXPECT_EQ(pool.num_workers(), workers);
        constexpr std::size_t kTasks = 257;
        std::vector<std::atomic<int>> hits(kTasks);
        pool.run(kTasks, [&](std::size_t worker, std::size_t task) {
            EXPECT_LT(worker, workers);
            hits[task].fetch_add(1, std::memory_order_relaxed);
        });
        for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
}

TEST(ThreadPoolTest, SingleTaskRunsOnTheCallingThread) {
    // A one-task job has nothing to share: worker 0 (the caller) runs it
    // inline instead of waking and joining the pool.
    ThreadPool pool(4);
    const std::thread::id caller = std::this_thread::get_id();
    std::size_t calls = 0;
    pool.run(1, [&](std::size_t worker, std::size_t task) {
        ++calls;
        EXPECT_EQ(worker, 0u);
        EXPECT_EQ(task, 0u);
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
    EXPECT_EQ(calls, 1u);
}

TEST(ThreadPoolTest, ReusableAcrossJobs) {
    ThreadPool pool(3);
    std::atomic<std::size_t> total{0};
    for (int round = 0; round < 20; ++round) {
        pool.run(64, [&](std::size_t, std::size_t) {
            total.fetch_add(1, std::memory_order_relaxed);
        });
    }
    EXPECT_EQ(total.load(), 20u * 64u);
}

TEST(ThreadPoolTest, PropagatesTaskExceptions) {
    ThreadPool pool(2);
    EXPECT_THROW(pool.run(32,
                          [&](std::size_t, std::size_t task) {
                              if (task == 7) throw std::runtime_error("boom");
                          }),
                 std::runtime_error);
    // The pool survives a throwing job.
    std::atomic<std::size_t> total{0};
    pool.run(8, [&](std::size_t, std::size_t) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 8u);
}

TEST(ThreadPoolTest, RejectsZeroWorkers) {
    EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPoolTest, WorkStealingDrainsPathologicallySkewedTasks) {
    // Tasks are dealt as contiguous per-worker ranges; the first range is
    // loaded with tasks ~1000x the cost of the rest (the phase-A shape:
    // one source's ball dwarfs its neighbors'). Exhausted workers must
    // steal from the loaded range rather than idle: every task runs
    // exactly once, and the slow block is retired by more than one worker.
    constexpr std::size_t kWorkers = 4;
    constexpr std::size_t kTasks = 256;
    constexpr std::size_t kSlowBlock = kTasks / kWorkers;  // worker 0's deal
    ThreadPool pool(kWorkers);
    const std::size_t steals_before = pool.steal_count();
    std::vector<std::atomic<int>> hits(kTasks);
    std::array<std::atomic<std::size_t>, kWorkers> slow_by_worker{};
    pool.run(kTasks, [&](std::size_t worker, std::size_t task) {
        hits[task].fetch_add(1, std::memory_order_relaxed);
        if (task < kSlowBlock) {
            slow_by_worker[worker].fetch_add(1, std::memory_order_relaxed);
            volatile double sink = 0.0;
            for (int i = 0; i < 200000; ++i) sink = sink + static_cast<double>(i);
        }
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    std::size_t workers_on_slow_block = 0;
    std::size_t slow_total = 0;
    for (const auto& c : slow_by_worker) {
        if (c.load() > 0) ++workers_on_slow_block;
        slow_total += c.load();
    }
    EXPECT_EQ(slow_total, kSlowBlock);
    // The whole point of stealing: the initial owner does not drain the
    // slow block alone while three workers idle.
    EXPECT_GE(workers_on_slow_block, 2u);
    EXPECT_GT(pool.steal_count(), steals_before);
}

TEST(ThreadPoolTest, StealingPreservesTaskIndexedResults) {
    // Results land in task-indexed slots, so the outcome must be
    // independent of which worker ran what -- run the same job twice and
    // compare.
    ThreadPool pool(3);
    auto run_once = [&] {
        std::vector<std::size_t> out(512, 0);
        pool.run(out.size(), [&](std::size_t, std::size_t task) {
            out[task] = 3 * task + 1;  // task-owned slot
        });
        return out;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(ThreadPoolTest, ResolveWorkersHonorsExplicitRequest) {
    EXPECT_EQ(ThreadPool::resolve_workers(3), 3u);
    EXPECT_GE(ThreadPool::resolve_workers(0), 1u);  // hardware concurrency
}

}  // namespace
}  // namespace gsp
