// The benchmark's workloads and the inputs each one builds.
//
// Every input is a pure function of (workload, workload seed): the seed is
// mixed per instance, and the generators are the library's own (gen/).
// Two guards keep a baseline from moving silently:
//  * descriptors -- n and m of each instance must match the workload's
//    shape (check_descriptors); the n(n-1)/2 candidate count of all-pairs
//    builds is checked after the cold build;
//  * identity -- the default seed's instances are regenerated in every run
//    and their fingerprints compared with kIdentity below, so a change to
//    gen/ or to the seed mapping fails every run loudly. After a deliberate
//    change, print the new table with `perfbench --identity` and re-measure
//    the baseline.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "checker.hpp"
#include "graph/graph.hpp"
#include "metric/euclidean.hpp"

namespace perfbench {

enum class WorkloadId { kGrid2d, kMetricAllpairs, kParallelMt4, kRegistryMix };

inline constexpr std::array<WorkloadId, 4> kWorkloads = {
    WorkloadId::kGrid2d, WorkloadId::kMetricAllpairs, WorkloadId::kParallelMt4,
    WorkloadId::kRegistryMix};

[[nodiscard]] const char* workload_name(WorkloadId w);
[[nodiscard]] std::optional<WorkloadId> parse_workload(std::string_view name);

/// The seed baselines are recorded at, and the one held out for verifying
/// a claimed gain (never used while the change is written).
inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 20261016;

// grid-2d: greedy-grid, t = 2, s = 5, one uniform + one clustered set (the
// mem_probe shapes: extent sqrt(n) * 10, n / 100 blobs of spread extent / 40).
inline constexpr std::size_t kGridN = 5000;
inline constexpr double kGridStretch = 2.0;
inline constexpr double kGridSeparation = 5.0;

// metric-allpairs: greedy-metric, t = 1.5, one 2D uniform set.
inline constexpr std::size_t kAllpairsN = 2048;
inline constexpr double kAllpairsStretch = 1.5;

// parallel-mt4: G(n, m) with m = 8n extra edges over a spanning tree,
// w in [1, 2], t = 3 (write-heavy), plus 2D uniform all-pairs, t = 1.5
// (read-heavy).
inline constexpr std::size_t kMtGraphN = 5000;
inline constexpr std::size_t kMtGraphDegree = 8;
inline constexpr double kMtGraphStretch = 3.0;
inline constexpr std::size_t kMtMetricN = 1024;
inline constexpr double kMtMetricStretch = 1.5;
inline constexpr std::size_t kMtMaxThreads = 4;

// registry-mix: G(n, 8n) for the graph algorithms, 2D uniform points for
// the rest, at each size.
inline constexpr std::array<std::size_t, 3> kRegistrySizes = {128, 256, 512};
inline constexpr std::size_t kRegistryDegree = 8;

struct Instance {
    std::string name;
    std::unique_ptr<gsp::EuclideanMetric> points;
    std::unique_ptr<gsp::Graph> graph;
    std::uint64_t fingerprint = 0;

    [[nodiscard]] InputRef input() const { return InputRef{graph.get(), points.get()}; }
    [[nodiscard]] std::size_t vertices() const { return input().vertices(); }
};

/// The workload's inputs for `seed`, in a fixed order.
std::vector<Instance> generate_instances(WorkloadId w, std::uint64_t seed);

/// Throws std::runtime_error when an instance's n or m is not the shape
/// the workload defines.
void check_descriptors(WorkloadId w, const std::vector<Instance>& instances);

/// Regenerate the default-seed instances and compare their fingerprints
/// with the recorded table; one message per mismatch (empty when intact).
std::vector<std::string> identity_mismatches(WorkloadId w);

/// The recorded-table lines for the current generators, every workload.
std::string identity_table();

}  // namespace perfbench
