#include "util/thread_pool.hpp"

#include <stdexcept>

namespace gsp {

ThreadPool::ThreadPool(std::size_t workers) {
    if (workers == 0) {
        throw std::invalid_argument("ThreadPool: workers must be >= 1");
    }
    deques_ = std::vector<Deque>(workers);
    threads_.reserve(workers - 1);
    for (std::size_t i = 1; i < workers; ++i) {
        threads_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cv_start_.notify_all();
    for (std::thread& t : threads_) t.join();
}

std::size_t ThreadPool::resolve_workers(std::size_t requested) {
    if (requested != 0) return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void ThreadPool::run(std::size_t num_tasks, const TaskFn& fn) {
    if (num_tasks == 0) return;
    if (threads_.empty() || num_tasks == 1) {
        // Single-worker pool or a single task: worker 0 (the caller) would
        // run every task anyway, so skip waking and joining the others.
        for (std::size_t task = 0; task < num_tasks; ++task) fn(0, task);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        fn_ = &fn;
        first_error_ = nullptr;
        busy_ = threads_.size();
        ++generation_;
        // Deal the tasks as contiguous ranges, one per worker; remainders
        // go to the earliest workers so every range differs by <= 1.
        const std::size_t workers = deques_.size();
        const std::size_t base = num_tasks / workers;
        const std::size_t extra = num_tasks % workers;
        std::size_t next = 0;
        for (std::size_t w = 0; w < workers; ++w) {
            std::lock_guard<std::mutex> dq(deques_[w].mu);
            deques_[w].lo = next;
            next += base + (w < extra ? 1 : 0);
            deques_[w].hi = next;
        }
    }
    cv_start_.notify_all();

    drain(0);  // the caller is worker 0

    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [this] { return busy_ == 0; });
    fn_ = nullptr;
    if (first_error_) std::rethrow_exception(first_error_);
}

void ThreadPool::worker_loop() {
    // Pool thread i is worker i + 1 (worker 0 is the caller).
    std::size_t my_generation = 0;
    std::size_t worker = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        // Assign stable worker ids by spawn order: the id is this thread's
        // index in threads_, which is still being filled; derive it from a
        // running counter instead.
        worker = ++assigned_workers_;
    }
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_start_.wait(lock, [&] { return stop_ || generation_ != my_generation; });
            if (stop_) return;
            my_generation = generation_;
        }
        drain(worker);
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (--busy_ == 0) cv_done_.notify_one();
        }
    }
}

bool ThreadPool::claim(std::size_t worker, std::size_t& task) {
    // LIFO-local: pop the high end of our own range.
    {
        Deque& mine = deques_[worker];
        std::lock_guard<std::mutex> lock(mine.mu);
        if (mine.lo < mine.hi) {
            task = --mine.hi;
            return true;
        }
    }
    // FIFO-steal: take the low end of the fullest victim. The size scan
    // is racy-by-design (sizes move under us); the claim itself re-checks
    // under the victim's lock, and a victim drained in between forces a
    // rescan -- other deques may still hold work. The rescan loop
    // terminates because no job ever refills a deque: sizes only shrink,
    // so a scan that finds every deque empty is final.
    const std::size_t workers = deques_.size();
    for (;;) {
        std::size_t victim = workers;
        std::size_t victim_size = 0;
        for (std::size_t i = 1; i < workers; ++i) {
            const std::size_t w = (worker + i) % workers;
            Deque& d = deques_[w];
            std::lock_guard<std::mutex> lock(d.mu);
            const std::size_t size = d.hi - d.lo;
            if (size > victim_size) {
                victim = w;
                victim_size = size;
            }
        }
        if (victim == workers) return false;
        Deque& d = deques_[victim];
        std::lock_guard<std::mutex> lock(d.mu);
        if (d.lo >= d.hi) continue;  // drained between the scan and the claim
        task = d.lo++;
        // Commutative monotone counter; never a decision input, read only
        // for diagnostics after the join.
        // gsp-lint: allow(gsp-relaxed-atomic) commutative diagnostics counter
        steals_.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
}

void ThreadPool::abandon_all() {
    for (Deque& d : deques_) {
        std::lock_guard<std::mutex> lock(d.mu);
        d.lo = d.hi;
    }
}

void ThreadPool::drain(std::size_t worker) {
    const TaskFn& fn = *fn_;
    std::size_t task = 0;
    while (claim(worker, task)) {
        try {
            fn(worker, task);
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(mu_);
                if (!first_error_) first_error_ = std::current_exception();
            }
            // Abandon the remaining tasks: empty every deque.
            abandon_all();
            return;
        }
    }
}

}  // namespace gsp
