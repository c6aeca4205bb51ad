#include "core/batched_simulator.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace gns::core {

BatchedSimulator::BatchedSimulator(
    std::shared_ptr<const LearnedSimulator> simulator)
    : sim_(std::move(simulator)) {
  GNS_CHECK_MSG(sim_ != nullptr, "BatchedSimulator needs a simulator");
}

std::vector<ad::Tensor> BatchedSimulator::step(
    const std::vector<Window>& windows,
    const std::vector<SceneContext>& contexts, graph::GraphBatch* out_batch,
    const std::vector<graph::CellList*>& neighbor_caches) const {
  GNS_TRACE_SCOPE("core.batched.step");
  static auto& step_ms =
      obs::MetricsRegistry::global().histogram("core.batched.step_ms");
  static auto& steps_total =
      obs::MetricsRegistry::global().counter("core.batched.member_steps");
  const obs::ScopedHistogramTimer step_timer(step_ms);

  const int b = static_cast<int>(windows.size());
  GNS_CHECK_MSG(b > 0, "batched step needs at least one member");
  GNS_CHECK_MSG(static_cast<int>(contexts.size()) == b,
                "need one scene context per member");
  steps_total.add(static_cast<std::uint64_t>(b));
  GNS_CHECK_MSG(neighbor_caches.empty() ||
                    static_cast<int>(neighbor_caches.size()) == b,
                "need one neighbor cache entry per member (or none)");
  const FeatureConfig& fc = sim_->features();
  const Normalizer& norm = sim_->normalizer();

  // Per-member neighbor lists on local indices, then the block-diagonal
  // merge. Mirrors the single-graph contract: every member must have edges.
  std::vector<graph::Graph> graphs;
  graphs.reserve(windows.size());
  for (int g = 0; g < b; ++g) {
    GNS_CHECK_MSG(static_cast<int>(windows[g].size()) == fc.window_size(),
                  "batch member " << g << " window needs "
                                  << fc.window_size() << " frames");
    graph::CellList* cache =
        neighbor_caches.empty() ? nullptr : neighbor_caches[g];
    graphs.push_back(cache != nullptr
                         ? build_graph_cached(fc, windows[g].back(), *cache)
                         : build_graph(fc, windows[g].back()));
    GNS_CHECK_MSG(graphs.back().num_edges() > 0,
                  "batch member " << g
                                  << " has no edges — connectivity radius "
                                     "too small?");
  }
  graph::GraphBatch batch = graph::batch_graphs(graphs);
  // One validated CSR index per merged graph, shared by the edge-feature
  // builder and every message round.
  const GraphIndex index(batch.merged);

  ad::Tensor node_feats, edge_feats, merged_newest;
  {
    GNS_TRACE_SCOPE("core.batched.features");
    node_feats = build_batched_node_features(fc, norm, windows, contexts);
    if (b == 1) {
      merged_newest = windows[0].back();
    } else {
      std::vector<ad::Tensor> newest;
      newest.reserve(windows.size());
      for (const Window& w : windows) newest.push_back(w.back());
      merged_newest = ad::concat_rows(newest);
    }
    edge_feats = build_batched_edge_features(fc, merged_newest, batch, index);
  }

  GnsOutput out =
      sim_->model().forward(node_feats, edge_feats, batch.merged, index);
  ad::Tensor accel = norm.denormalize_acceleration(out.acceleration);

  // Scatter back per member and integrate (same op order as
  // LearnedSimulator::step: v' = v + a; x' = x + v').
  std::vector<ad::Tensor> next(windows.size());
  for (int g = 0; g < b; ++g) {
    ad::Tensor a_g =
        b == 1 ? accel
               : ad::slice_rows(accel, batch.node_offset[g], batch.nodes_of(g));
    const ad::Tensor& xt = windows[g].back();
    const ad::Tensor& xprev = windows[g][windows[g].size() - 2];
    next[g] = ad::add(xt, ad::add(ad::sub(xt, xprev), a_g));
  }
  if (out_batch != nullptr) *out_batch = std::move(batch);
  return next;
}

std::vector<std::vector<std::vector<double>>> BatchedSimulator::rollout(
    const std::vector<Window>& initial_windows, const std::vector<int>& steps,
    const std::vector<SceneContext>& contexts, const StepGate& gate) const {
  GNS_TRACE_SCOPE("core.batched.rollout");
  BatchedRollout rollout(sim_, initial_windows, steps, contexts);
  while (rollout.step_once(gate)) {
  }
  return rollout.take_frames();
}

BatchedRollout::BatchedRollout(
    std::shared_ptr<const LearnedSimulator> simulator,
    const std::vector<Window>& initial_windows, const std::vector<int>& steps,
    const std::vector<SceneContext>& contexts)
    : batched_(std::move(simulator)), steps_(steps), contexts_(contexts) {
  const int b = static_cast<int>(initial_windows.size());
  GNS_CHECK_MSG(b > 0, "batched rollout needs at least one member");
  GNS_CHECK_MSG(static_cast<int>(steps.size()) == b &&
                    static_cast<int>(contexts.size()) == b,
                "batched rollout needs one step count and context per member");
  for (int s : steps) GNS_CHECK_MSG(s > 0, "steps must be positive");

  ad::NoGradGuard no_grad;
  windows_.resize(initial_windows.size());
  for (int g = 0; g < b; ++g) {
    windows_[g].reserve(initial_windows[g].size());
    for (const auto& t : initial_windows[g])
      windows_[g].push_back(t.detach());
  }

  // One Verlet skin list per member, persisting across steps (members are
  // compacted out of the batch but their caches stay put).
  const FeatureConfig& fc = batched_.simulator().features();
  const double skin =
      graph::default_skin_fraction() * fc.connectivity_radius;
  caches_.reserve(initial_windows.size());
  for (int g = 0; g < b; ++g)
    caches_.push_back(
        std::make_unique<graph::CellList>(make_rollout_cells(fc, skin)));

  frames_.resize(initial_windows.size());
  for (int g = 0; g < b; ++g)
    frames_[g].reserve(static_cast<std::size_t>(steps[g]));

  active_.resize(initial_windows.size());
  for (int g = 0; g < b; ++g) active_[g] = g;
}

bool BatchedRollout::step_once(const BatchedSimulator::StepGate& gate) {
  if (active_.empty()) return false;
  ad::NoGradGuard no_grad;
  if (gate) {
    active_.erase(std::remove_if(active_.begin(), active_.end(),
                                 [&gate](int g) { return !gate(g); }),
                  active_.end());
    if (active_.empty()) return false;
  }

  step_windows_.clear();
  step_contexts_.clear();
  step_caches_.clear();
  for (int g : active_) {
    step_windows_.push_back(windows_[g]);
    step_contexts_.push_back(contexts_[g]);
    step_caches_.push_back(caches_[g].get());
  }
  std::vector<ad::Tensor> next =
      batched_.step(step_windows_, step_contexts_, nullptr, step_caches_);

  std::vector<int> still_active;
  still_active.reserve(active_.size());
  for (std::size_t k = 0; k < active_.size(); ++k) {
    const int g = active_[k];
    frames_[g].push_back(tensor_to_frame(next[k]));
    windows_[g].erase(windows_[g].begin());
    windows_[g].push_back(next[k]);
    if (static_cast<int>(frames_[g].size()) < steps_[g])
      still_active.push_back(g);
  }
  active_.swap(still_active);
  return !active_.empty();
}

}  // namespace gns::core
