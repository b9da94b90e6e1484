// Golden fixture for gsp-decision-pure: a GSP_DECISION_PURE body that
// iterates an unordered container, whose order is run-dependent, and
// starts the project's Timer stopwatch, which reads a clock.
// Lint-only input; never compiled or linked into any target.
#include <unordered_set>

#include "util/annotations.hpp"
#include "util/timer.hpp"

GSP_DECISION_PURE int fixture_decide(int n) {
    const gsp::Timer timer;
    std::unordered_set<int> seen;
    int acc = 0;
    for (int i = 0; i < n; ++i) seen.insert(i % 7);
    for (int v : seen) acc += v;
    return acc;
}
