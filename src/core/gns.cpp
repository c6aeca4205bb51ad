#include "core/gns.hpp"

#include "obs/obs.hpp"

namespace gns::core {

namespace {
ad::Mlp make_mlp(int in, int out, const GnsConfig& cfg, Rng& rng,
                 bool layer_norm) {
  return ad::Mlp(in, cfg.mlp_hidden, cfg.mlp_layers, out, rng, layer_norm);
}
}  // namespace

GnsModel::GnsModel(GnsConfig config, Rng& rng)
    : config_(config),
      node_encoder_(make_mlp(config.node_in, config.latent, config, rng,
                             /*layer_norm=*/true)),
      edge_encoder_(make_mlp(config.edge_in, config.latent, config, rng,
                             /*layer_norm=*/true)),
      decoder_(make_mlp(config.latent, config.out_dim, config, rng,
                        /*layer_norm=*/false)) {
  GNS_CHECK_MSG(config.node_in > 0 && config.edge_in > 0,
                "GnsConfig feature widths must be set");
  GNS_CHECK(config.message_passing_steps > 0);
  layers_.reserve(config.message_passing_steps);
  for (int m = 0; m < config.message_passing_steps; ++m) {
    ProcessorLayer layer{
        make_mlp(3 * config.latent, config.latent, config, rng,
                 /*layer_norm=*/true),
        make_mlp(2 * config.latent, config.latent, config, rng,
                 /*layer_norm=*/true),
        nullptr};
    if (config.attention) {
      layer.attention_mlp = std::make_unique<ad::Mlp>(
          3 * config.latent, config.mlp_hidden, 1, 1, rng,
          /*output_layer_norm=*/false);
    }
    layers_.push_back(std::move(layer));
  }
}

GnsOutput GnsModel::forward(const ad::Tensor& node_features,
                            const ad::Tensor& edge_features,
                            const graph::Graph& graph) const {
  return forward(node_features, edge_features, graph, GraphIndex(graph));
}

GnsOutput GnsModel::forward(const ad::Tensor& node_features,
                            const ad::Tensor& edge_features,
                            const graph::Graph& graph,
                            const GraphIndex& index) const {
  GNS_CHECK_MSG(node_features.cols() == config_.node_in,
                "node feature width mismatch: " << node_features.cols()
                                                << " vs " << config_.node_in);
  GNS_CHECK_MSG(edge_features.cols() == config_.edge_in,
                "edge feature width mismatch");
  GNS_CHECK_MSG(node_features.rows() == graph.num_nodes,
                "graph/node count mismatch");
  GNS_CHECK_MSG(edge_features.rows() == graph.num_edges(),
                "graph/edge count mismatch");
  GNS_CHECK_MSG(index.defined(), "GnsModel::forward with undefined index");
  GNS_CHECK_MSG(index.senders.size() == graph.num_edges() &&
                    index.senders.num_buckets() == graph.num_nodes,
                "GraphIndex does not match graph");

  GNS_TRACE_SCOPE("core.gns.forward");
  static auto& encode_ms =
      obs::MetricsRegistry::global().histogram("core.gns.encode_ms");
  static auto& process_ms =
      obs::MetricsRegistry::global().histogram("core.gns.process_ms");
  static auto& decode_ms =
      obs::MetricsRegistry::global().histogram("core.gns.decode_ms");

  ad::Tensor v, e;
  {
    GNS_TRACE_SCOPE("core.gns.encode");
    const obs::ScopedHistogramTimer phase_timer(encode_ms);
    v = node_encoder_.forward(node_features);
    e = edge_encoder_.forward(edge_features);
  }

  {
    const obs::ScopedHistogramTimer phase_timer(process_ms);
    int round = 0;
    for (const auto& layer : layers_) {
      GNS_TRACE_SCOPE_I("core.gns.round", round++);
      // Edge update: φ^e(e_k, v_sender, v_receiver) + residual. The MLP
      // reads the gathered endpoint rows in place (ad::MlpInput).
      const ad::MlpInput e_in{e, {v, index.senders}, {v, index.receivers}};
      ad::Tensor e_new = layer.edge_mlp.forward_rows(e_in, &e);

      // Optional attention: per-receiver softmax over incoming messages.
      ad::Tensor weighted = e_new;
      if (layer.attention_mlp) {
        ad::Tensor score = layer.attention_mlp->forward_rows(e_in);
        ad::Tensor alpha = ad::segment_softmax(score, index.receivers);
        weighted = ad::mul(e_new, alpha);  // [E,L] * [E,1] broadcast
      }

      // Node update: φ^v(v_i, Σ incoming messages) + residual.
      ad::Tensor agg = ad::scatter_add_rows(weighted, index.receivers);
      v = layer.node_mlp.forward_rows({v, agg}, &v);
      e = e_new;
    }
  }

  GnsOutput out;
  {
    GNS_TRACE_SCOPE("core.gns.decode");
    const obs::ScopedHistogramTimer phase_timer(decode_ms);
    out.acceleration = decoder_.forward(v);
  }
  out.messages = e;
  return out;
}

std::vector<ad::Tensor> GnsModel::parameters() const {
  std::vector<ad::Tensor> params;
  auto append = [&params](const ad::Module& module) {
    auto p = module.parameters();
    params.insert(params.end(), p.begin(), p.end());
  };
  append(node_encoder_);
  append(edge_encoder_);
  for (const auto& layer : layers_) {
    append(layer.edge_mlp);
    append(layer.node_mlp);
    if (layer.attention_mlp) append(*layer.attention_mlp);
  }
  append(decoder_);
  return params;
}

}  // namespace gns::core
