#include "instances.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "gen/graphs.hpp"
#include "gen/points.hpp"
#include "util/random.hpp"

namespace perfbench {

namespace {

struct IdentityEntry {
    std::string_view workload;
    std::string_view instance;
    std::uint64_t fingerprint;
};

// Fingerprints of the kDefaultSeed instances (perfbench --identity).
constexpr IdentityEntry kIdentity[] = {
    {"grid-2d", "uniform", 0xbc63a13d8b988a16ULL},
    {"grid-2d", "clustered", 0x64ab989d1a336b42ULL},
    {"metric-allpairs", "allpairs", 0xf85cead4f60039e6ULL},
    {"parallel-mt4", "gnm", 0x15ddefa3975fea48ULL},
    {"parallel-mt4", "allpairs", 0xfab22b687eb0a2feULL},
    {"registry-mix", "gnm-128", 0x2066f81c0e25d70cULL},
    {"registry-mix", "points-128", 0xf3a93f81be4ee440ULL},
    {"registry-mix", "gnm-256", 0xbea0ee0974160f85ULL},
    {"registry-mix", "points-256", 0xae66bdeec4794bdfULL},
    {"registry-mix", "gnm-512", 0x4a3d9e2a83b0db13ULL},
    {"registry-mix", "points-512", 0xda149cb09d366331ULL},
};

/// The per-instance generator seed: splitmix64 over (seed, workload, index).
std::uint64_t instance_seed(std::uint64_t seed, WorkloadId w, std::size_t index) {
    std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL +
                      (static_cast<std::uint64_t>(w) + 1) * 0x100000001b3ULL + index;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

double extent_for(std::size_t n) { return std::sqrt(static_cast<double>(n)) * 10.0; }

Instance uniform_instance(std::string name, std::size_t n, std::uint64_t seed) {
    gsp::Rng rng(seed);
    Instance inst;
    inst.name = std::move(name);
    inst.points = std::make_unique<gsp::EuclideanMetric>(
        gsp::uniform_points(n, 2, extent_for(n), rng));
    inst.fingerprint = fingerprint(*inst.points);
    return inst;
}

Instance clustered_instance(std::string name, std::size_t n, std::uint64_t seed) {
    gsp::Rng rng(seed);
    const double extent = extent_for(n);
    Instance inst;
    inst.name = std::move(name);
    inst.points = std::make_unique<gsp::EuclideanMetric>(gsp::clustered_points(
        n, 2, std::max<std::size_t>(n / 100, 1), extent, extent / 40.0, rng));
    inst.fingerprint = fingerprint(*inst.points);
    return inst;
}

Instance gnm_instance(std::string name, std::size_t n, std::size_t degree,
                      std::uint64_t seed) {
    gsp::Rng rng(seed);
    Instance inst;
    inst.name = std::move(name);
    inst.graph = std::make_unique<gsp::Graph>(
        gsp::random_graph_nm(n, degree * n, gsp::WeightRange{1.0, 2.0}, rng));
    inst.fingerprint = fingerprint(*inst.graph);
    return inst;
}

/// n of a named instance, and m (0 for point sets): the workload's shape.
struct Shape {
    std::size_t n = 0;
    std::size_t m = 0;
};

Shape gnm_shape(std::size_t n, std::size_t degree) {
    return Shape{n, degree * n + (n - 1)};  // extra edges + connecting tree
}

std::vector<Shape> expected_shapes(WorkloadId w) {
    switch (w) {
        case WorkloadId::kGrid2d: return {{kGridN, 0}, {kGridN, 0}};
        case WorkloadId::kMetricAllpairs: return {{kAllpairsN, 0}};
        case WorkloadId::kParallelMt4:
            return {gnm_shape(kMtGraphN, kMtGraphDegree), {kMtMetricN, 0}};
        case WorkloadId::kRegistryMix: {
            std::vector<Shape> out;
            for (const std::size_t n : kRegistrySizes) {
                out.push_back(gnm_shape(n, kRegistryDegree));
                out.push_back({n, 0});
            }
            return out;
        }
    }
    return {};
}

}  // namespace

const char* workload_name(WorkloadId w) {
    switch (w) {
        case WorkloadId::kGrid2d: return "grid-2d";
        case WorkloadId::kMetricAllpairs: return "metric-allpairs";
        case WorkloadId::kParallelMt4: return "parallel-mt4";
        case WorkloadId::kRegistryMix: return "registry-mix";
    }
    return "?";
}

std::optional<WorkloadId> parse_workload(std::string_view name) {
    for (const WorkloadId w : kWorkloads) {
        if (name == workload_name(w)) return w;
    }
    return std::nullopt;
}

std::vector<Instance> generate_instances(WorkloadId w, std::uint64_t seed) {
    std::vector<Instance> out;
    switch (w) {
        case WorkloadId::kGrid2d:
            out.push_back(uniform_instance("uniform", kGridN, instance_seed(seed, w, 0)));
            out.push_back(clustered_instance("clustered", kGridN, instance_seed(seed, w, 1)));
            break;
        case WorkloadId::kMetricAllpairs:
            out.push_back(uniform_instance("allpairs", kAllpairsN, instance_seed(seed, w, 0)));
            break;
        case WorkloadId::kParallelMt4:
            out.push_back(
                gnm_instance("gnm", kMtGraphN, kMtGraphDegree, instance_seed(seed, w, 0)));
            out.push_back(uniform_instance("allpairs", kMtMetricN, instance_seed(seed, w, 1)));
            break;
        case WorkloadId::kRegistryMix: {
            std::size_t index = 0;
            for (const std::size_t n : kRegistrySizes) {
                out.push_back(gnm_instance("gnm-" + std::to_string(n), n, kRegistryDegree,
                                           instance_seed(seed, w, index++)));
                out.push_back(uniform_instance("points-" + std::to_string(n), n,
                                               instance_seed(seed, w, index++)));
            }
            break;
        }
    }
    return out;
}

void check_descriptors(WorkloadId w, const std::vector<Instance>& instances) {
    const std::vector<Shape> shapes = expected_shapes(w);
    if (shapes.size() != instances.size()) {
        throw std::runtime_error(std::string(workload_name(w)) + ": instance count changed");
    }
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        const Instance& inst = instances[i];
        const std::size_t m = inst.graph != nullptr ? inst.graph->num_edges() : 0;
        if (inst.vertices() != shapes[i].n || m != shapes[i].m) {
            throw std::runtime_error(std::string(workload_name(w)) + "/" + inst.name +
                                     ": n=" + std::to_string(inst.vertices()) +
                                     " m=" + std::to_string(m) + ", expected n=" +
                                     std::to_string(shapes[i].n) +
                                     " m=" + std::to_string(shapes[i].m));
        }
    }
}

std::vector<std::string> identity_mismatches(WorkloadId w) {
    std::vector<std::string> out;
    for (const Instance& inst : generate_instances(w, kDefaultSeed)) {
        const IdentityEntry* entry = nullptr;
        for (const IdentityEntry& e : kIdentity) {
            if (e.workload == workload_name(w) && e.instance == inst.name) entry = &e;
        }
        if (entry == nullptr || entry->fingerprint != inst.fingerprint) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "%s/%s: default-seed fingerprint 0x%016llx is not the recorded one",
                          workload_name(w), inst.name.c_str(),
                          static_cast<unsigned long long>(inst.fingerprint));
            out.emplace_back(buf);
        }
    }
    return out;
}

std::string identity_table() {
    std::string out;
    for (const WorkloadId w : kWorkloads) {
        for (const Instance& inst : generate_instances(w, kDefaultSeed)) {
            char buf[160];
            std::snprintf(buf, sizeof(buf), "    {\"%s\", \"%s\", 0x%016llxULL},\n",
                          workload_name(w), inst.name.c_str(),
                          static_cast<unsigned long long>(inst.fingerprint));
            out += buf;
        }
    }
    return out;
}

}  // namespace perfbench
