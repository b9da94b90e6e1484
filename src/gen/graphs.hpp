// Random-graph generators for the general-graph experiments.
#pragma once

#include <cstddef>

#include "graph/graph.hpp"
#include "util/random.hpp"

namespace gsp {

struct WeightRange {
    double lo = 1.0;
    double hi = 2.0;
};

/// Erdos-Renyi G(n, p) with uniform weights; when `ensure_connected`, a
/// random spanning tree is added first so the result is always connected.
Graph erdos_renyi(std::size_t n, double p, WeightRange w, Rng& rng,
                  bool ensure_connected = true);

/// G(n, m): exactly m distinct random edges (plus a connecting tree when
/// requested). m counts the extra edges beyond the tree.
Graph random_graph_nm(std::size_t n, std::size_t m, WeightRange w, Rng& rng,
                      bool ensure_connected = true);

/// Preferential-attachment graph: each new vertex attaches to `attach`
/// existing vertices with probability proportional to degree.
Graph preferential_attachment(std::size_t n, std::size_t attach, WeightRange w, Rng& rng);

/// rows x cols grid graph with uniform weights.
Graph grid_graph(std::size_t rows, std::size_t cols, WeightRange w, Rng& rng);

/// d-dimensional hypercube graph (2^d vertices) with uniform weights.
Graph hypercube_graph(std::size_t d, WeightRange w, Rng& rng);

/// Random geometric graph: n uniform points in [0,1]^2, edges between
/// pairs within `radius`, weighted by Euclidean distance. Optionally force
/// connectivity by linking consecutive points of a random tour.
Graph random_geometric(std::size_t n, double radius, Rng& rng,
                       bool ensure_connected = true);

/// Clustered-euclidean geometric graph: n points in `clusters` Gaussian
/// blobs (centers uniform in [0, extent]^2, standard deviation `spread`),
/// one edge per pair within `radius`, weighted by Euclidean distance.
/// With radius a few multiples of spread, the candidate set is dominated
/// by dense intra-cluster edges whose endpoints have many near-parallel
/// alternatives of almost equal length -- the accept-heavy regime of the
/// greedy at moderate stretch.
Graph clustered_geometric(std::size_t n, std::size_t clusters, double extent,
                          double spread, double radius, Rng& rng,
                          bool ensure_connected = true);

}  // namespace gsp
