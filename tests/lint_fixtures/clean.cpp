// Golden fixture asserted SILENT: annotated functions that obey every
// contract, plus benign look-alikes (resize/assign are the
// sanctioned warm-capacity idiom, std::sort allocates nothing, an ordered
// map iterates deterministically).
// Lint-only input; never compiled or linked into any target.
#include <algorithm>
#include <map>
#include <vector>

#include "util/annotations.hpp"

namespace gsp_fixture {

GSP_DECISION_PURE GSP_HOT_PATH double fixture_clean_distance2(double ax,
                                                              double ay,
                                                              double bx,
                                                              double by) {
    const double dx = ax - bx;
    const double dy = ay - by;
    return dx * dx + dy * dy;
}

GSP_HOT_PATH inline void fixture_clean_warm(std::vector<int>& buf,
                                            std::size_t n) {
    buf.resize(n);
    buf.assign(n, 0);
    std::sort(buf.begin(), buf.end());
}

GSP_SERIAL_ONLY void fixture_clean_record(int value);

GSP_DECISION_PURE inline int fixture_clean_ordered(const std::map<int, int>& m) {
    int acc = 0;
    for (const auto& kv : m) acc += kv.second;
    return acc;
}

}  // namespace gsp_fixture
