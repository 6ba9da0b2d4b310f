#pragma once

#include <vector>

#include "nn/linear.h"
#include "nn/module.h"

/// \file gfn.h
/// \brief Graph Feature Network (Chen et al. [69]) — the paper's chosen
/// graph-representation model (§III-B).
///
/// GFN's insight, which this reproduction preserves: move the graph
/// structure out of the network. Node features are *pre-augmented* with
/// structural information (degree + centralities) and propagated
/// features Ã¹X … ÃᵏX (Eq. 13) by the data pipeline; the network itself
/// is then a pure MLP over nodes followed by a SUM readout (Eq. 14-15),
/// which is why it trains markedly faster than GCN per epoch (Fig 5).

namespace ba::nn {

/// \brief GFN graph encoder: node MLP → SUM readout → MLP head.
class GfnEncoder : public Module {
 public:
  struct Options {
    /// Width of the augmented node features X^G (set by the pipeline:
    /// structural features + (k+1) copies of the base features).
    int64_t input_dim = 0;
    int64_t hidden_dim = 64;
    /// Graph-embedding width fed to the address classifier.
    int64_t embed_dim = 32;
    int64_t num_classes = 4;
    float dropout = 0.0f;
  };

  GfnEncoder(const Options& options, Rng* rng)
      : node_mlp_({options.input_dim, options.hidden_dim, options.embed_dim},
                  rng, Activation::kRelu, options.dropout),
        head_({options.embed_dim, options.hidden_dim, options.num_classes},
              rng),
        options_(options) {}

  /// Graph embedding rep^G (1, embed_dim): per-node MLP then SUM
  /// readout (Eq. 15).
  Var Embed(const Var& augmented_node_features, Rng* rng = nullptr,
            bool training = false) const {
    Var h = node_mlp_.Forward(augmented_node_features, rng, training);
    return tensor::SumRows(h);
  }

  /// Class logits (1, num_classes) — Eq. 14's classifier.
  Var Forward(const Var& augmented_node_features, Rng* rng = nullptr,
              bool training = false) const {
    return head_.Forward(Embed(augmented_node_features, rng, training), rng,
                         training);
  }

  /// Value-level inference twin of Embed (no tape, no dropout; the
  /// node MLP runs on caller-owned `scratch`), bit-identical to it.
  tensor::Tensor EmbedValue(const tensor::Tensor& augmented_node_features,
                            MlpScratch* scratch) const {
    return tensor::SumRowsValue(
        node_mlp_.ForwardValue(augmented_node_features, scratch));
  }

  /// Value-level inference twin of Forward: class logits
  /// (1, num_classes).
  tensor::Tensor ForwardValue(const tensor::Tensor& augmented_node_features,
                              MlpScratch* scratch) const {
    const tensor::Tensor embedding =
        EmbedValue(augmented_node_features, scratch);
    return head_.ForwardValue(embedding, scratch);
  }

  int64_t embed_dim() const { return options_.embed_dim; }
  int64_t input_dim() const { return options_.input_dim; }

  /// The per-node MLP — the embed path's entire compute, which is what
  /// int8 quantization snapshots (the SUM readout stays fp32).
  const Mlp& node_mlp() const { return node_mlp_; }

  std::vector<Var> Parameters() const override {
    return CollectParameters({&node_mlp_, &head_});
  }

 private:
  Mlp node_mlp_;
  Mlp head_;
  Options options_;
};

}  // namespace ba::nn
