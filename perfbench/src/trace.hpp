// In-memory span recorder of the traced run.
//
// A span is one call from the benchmark into a library layer: its name,
// start and end (seconds since the recorder was created), the span that
// was open when it began (its parent), and the request it served (the
// registry-mix request id; -1 elsewhere). Spans are appended to a vector
// and written out once, when the run ends -- recording costs two clock
// reads and one push_back, and nothing is recorded while the recorder is
// disabled (the untraced run, and the untraced rounds the traced run
// interleaves to measure its own overhead).
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;    ///< index of the enclosing span, -1 at top level
    long request = -1;  ///< registry-mix request id, -1 when not a request
};

class Tracer {
public:
    void set_enabled(bool on) { enabled_ = on; }
    [[nodiscard]] bool enabled() const { return enabled_; }

    /// Open a span; returns its index, or -1 when disabled.
    int begin(std::string name, long request = -1) {
        if (!enabled_) return -1;
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back(Span{std::move(name), now(), 0.0, parent, request});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void end(int id) {
        if (id < 0) return;
        spans_[static_cast<std::size_t>(id)].end_s = now();
        if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
    }

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

    [[nodiscard]] double now() const {
        return std::chrono::duration<double>(clock::now() - origin_).count();
    }

private:
    using clock = std::chrono::steady_clock;
    clock::time_point origin_ = clock::now();
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/// The process-wide recorder.
inline Tracer& tracer() {
    static Tracer t;
    return t;
}

/// RAII span around one layer call.
class ScopedSpan {
public:
    explicit ScopedSpan(std::string name, long request = -1)
        : id_(tracer().begin(std::move(name), request)) {}
    ~ScopedSpan() { tracer().end(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    int id_;
};

}  // namespace perfbench
