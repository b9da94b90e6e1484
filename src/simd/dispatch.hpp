// Kept for perfbench only, which records the backend of every run: the
// library has one scalar kernel path and no CPU dispatch, so the answer
// is always "scalar".
#pragma once

namespace gsp::simd {

enum class Backend {
    kScalar,  ///< the one kernel path
};

/// Always kScalar.
[[nodiscard]] inline Backend detect() { return Backend::kScalar; }

/// "scalar": the string BuildReport::simd_backend records.
[[nodiscard]] inline const char* backend_name(Backend) { return "scalar"; }

}  // namespace gsp::simd
