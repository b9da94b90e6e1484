// Process peak-RSS probe.
//
// One tiny wrapper over getrusage(RUSAGE_SELF).ru_maxrss, normalized to
// KiB (Linux reports KiB already; macOS reports bytes). The value is the
// process-lifetime high-water mark -- monotone non-decreasing -- so
// per-phase attribution is done by sampling before and after a phase and
// reporting both the running peak and the delta (a zero delta means the
// phase fit inside memory some earlier phase already touched).
//
// Shared by BuildReport (peak RSS per build), bench_linear_space (the
// RSS delta of each probe instance) and perfbench (peak_rss_mb).
#pragma once

#include <cstddef>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace gsp {

/// The process peak resident set size in KiB so far; 0 where unsupported.
inline std::size_t process_peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
    return static_cast<std::size_t>(usage.ru_maxrss) / 1024;  // bytes -> KiB
#else
    return static_cast<std::size_t>(usage.ru_maxrss);  // already KiB
#endif
#else
    return 0;
#endif
}

}  // namespace gsp
