#pragma once

/// \file features.hpp
/// Feature construction for the particle GNS (§3): the physics-inspired
/// inductive biases live here.
///
/// Node features per particle: the last C finite-difference velocities
/// (normalized — an inertial-frame bias: the network sees motion, not
/// absolute position), clipped distances to the domain boundaries (local
/// wall awareness within the connectivity radius), and optionally the
/// normalized material parameter (tan φ) that conditions the model and is
/// the handle the §5 inverse problem differentiates with respect to.
///
/// Edge features per directed edge: relative displacement scaled by the
/// connectivity radius and its norm (translation invariance — interactions
/// depend on relative geometry only).
///
/// Everything except graph topology is built from ad::Tensors, so gradients
/// flow from a rollout loss back to positions and the material parameter.

#include <vector>

#include "ad/ops.hpp"
#include "core/graph_index.hpp"
#include "core/normalization.hpp"
#include "graph/neighbor_search.hpp"

namespace gns::core {

struct FeatureConfig {
  int dim = 2;                    ///< spatial dimension (2 granular, 1 n-body)
  int history = 5;                ///< velocity history length C
  double connectivity_radius = 0.045;
  std::vector<double> domain_lo{0.0, 0.0};
  std::vector<double> domain_hi{1.0, 0.5};
  bool material_feature = false;  ///< append material param column
  int static_node_attrs = 0;      ///< per-particle static columns (r, m, ...)

  [[nodiscard]] int node_feature_count() const {
    return dim * history + 2 * dim + (material_feature ? 1 : 0) +
           static_node_attrs;
  }
  [[nodiscard]] int edge_feature_count() const { return dim + 1; }
  /// Number of position frames a prediction window needs (C velocities
  /// require C+1 positions).
  [[nodiscard]] int window_size() const { return history + 1; }
};

/// Per-scene conditioning that is constant over a rollout: the material
/// parameter (the differentiable handle of the inverse problem) and static
/// per-particle attributes.
struct SceneContext {
  ad::Tensor material;    ///< [1,1]; required iff material_feature
  ad::Tensor node_attrs;  ///< [N, static_node_attrs]; required iff > 0

  /// Builds the context from a trajectory's metadata.
  [[nodiscard]] static SceneContext from_trajectory(
      const FeatureConfig& config, const io::Trajectory& traj);
};

/// Converts a flat frame (io::Trajectory layout) into an [N, dim] tensor.
[[nodiscard]] ad::Tensor frame_to_tensor(const std::vector<double>& flat,
                                         int dim);
/// Inverse of frame_to_tensor.
[[nodiscard]] std::vector<double> tensor_to_frame(const ad::Tensor& t);

/// Builds the connectivity-radius graph from a (detached) position tensor.
/// Works for dim 1 and 2 (1-D positions get a zero y coordinate).
[[nodiscard]] graph::Graph build_graph(const FeatureConfig& config,
                                       const ad::Tensor& positions);

/// A CellList sized for rollouts under `config`: domain from the feature
/// config padded by one cell so slightly escaping particles keep indexing
/// cheaply, `skin` in absolute units (0 = rebuild every step). Pass the
/// result to build_graph_cached across consecutive steps.
[[nodiscard]] graph::CellList make_rollout_cells(const FeatureConfig& config,
                                                 double skin);

/// Like build_graph but reuses `cells` across calls via maybe_rebuild:
/// identical edges, amortized build cost. The CellList must come from
/// make_rollout_cells (or otherwise have radius == connectivity_radius).
[[nodiscard]] graph::Graph build_graph_cached(const FeatureConfig& config,
                                              const ad::Tensor& positions,
                                              graph::CellList& cells);

/// Node feature matrix [N, node_feature_count()] from a window of
/// `window_size()` position tensors (oldest first) plus the scene context:
/// the one-member call of build_batched_node_features.
[[nodiscard]] ad::Tensor build_node_features(
    const FeatureConfig& config, const Normalizer& norm,
    const std::vector<ad::Tensor>& position_window,
    const SceneContext& context);

/// Edge feature matrix [E, dim+1] from the newest positions and the graph.
[[nodiscard]] ad::Tensor build_edge_features(const FeatureConfig& config,
                                             const ad::Tensor& positions,
                                             const graph::Graph& graph);

/// Same, with a prebuilt GraphIndex for `graph` (rollout/training paths
/// build one per step and share it with GnsModel::forward).
[[nodiscard]] ad::Tensor build_edge_features(const FeatureConfig& config,
                                             const ad::Tensor& positions,
                                             const graph::Graph& graph,
                                             const GraphIndex& index);

// ---- Batched (block-diagonal) variant --------------------------------------
//
// The batched builder takes B per-member windows/contexts and emits the
// node features of the merged graph (graph/batch.hpp): member g's rows
// occupy [batch.node_offset[g], batch.node_offset[g+1]). All motion and
// boundary features are elementwise/row-local, so every row is bit-identical
// to a one-member call; the only genuinely segmented features are the
// per-member material column and static node attributes, which broadcast
// within their member's node range. Edge features need no batched form:
// the merged graph's indices already point into the concatenated position
// rows, so build_edge_features on the merged graph is exact.

/// Node features [sum_g N_g, node_feature_count()] for B windows (each a
/// window_size()-frame vector, oldest first) and their scene contexts.
[[nodiscard]] ad::Tensor build_batched_node_features(
    const FeatureConfig& config, const Normalizer& norm,
    const std::vector<std::vector<ad::Tensor>>& windows,
    const std::vector<SceneContext>& contexts);

}  // namespace gns::core
