#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/graph_dataset.h"
#include "metrics/classification.h"
#include "nn/diffpool.h"
#include "nn/gcn.h"
#include "nn/gat.h"
#include "nn/gfn.h"
#include "nn/quantized.h"
#include "tensor/optimizer.h"

/// \file graph_model.h
/// \brief Graph Representation Learning (§III-B): a uniform trainer for
/// the three graph-level encoders the paper compares (GFN — ours; GCN;
/// DiffPool, Table II / Fig 5). Each address-graph slice is a training
/// example whose label is its address's behavior class.

namespace ba::core {

/// \brief Which graph encoder backs a GraphModel. kGat is an
/// extension beyond the paper's three evaluated encoders.
enum class GraphEncoderKind { kGfn, kGcn, kDiffPool, kGat };

const char* GraphEncoderName(GraphEncoderKind kind);

/// \brief One point of a learning curve (Fig 5).
struct EpochStat {
  int epoch = 0;
  /// Cumulative training wall-clock seconds up to the end of the epoch.
  double seconds = 0.0;
  double train_loss = 0.0;
  /// Weighted-average F1 on the eval set (graph level); -1 if not
  /// evaluated.
  double eval_f1 = -1.0;
};

/// Ceiling on every layer width and class count a model's options may
/// name (the repo's largest is the 1024-wide int8 bench). Validate()
/// enforces it, so options decoded from a corrupt checkpoint fail
/// before they size any allocation.
inline constexpr int64_t kMaxModelWidth = 4096;
/// Ceiling on k_hops, which sets the GFN input width (largest used: 4).
inline constexpr int kMaxKHops = 64;

/// \brief Training options shared by the three encoders.
struct GraphModelOptions {
  GraphEncoderKind encoder = GraphEncoderKind::kGfn;
  int num_classes = 4;
  int k_hops = 2;  ///< must match the dataset's k_hops (GFN input width)
  int64_t hidden_dim = 64;
  int64_t embed_dim = 32;
  int64_t diffpool_clusters = 8;
  float dropout = 0.1f;
  int epochs = 20;
  int batch_size = 16;
  float learning_rate = 1e-3f;
  float weight_decay = 0.0f;
  uint64_t seed = 1;
  /// When non-empty, Train() writes a crash-safe checkpoint (weights +
  /// Adam state + RNG) into this directory and resumes from it if one
  /// exists — a run killed at epoch k and restarted reproduces the
  /// uninterrupted run's parameters bit-exactly.
  std::string checkpoint_dir;
  /// Checkpoint cadence in epochs (only with checkpoint_dir set); the
  /// final epoch is always checkpointed.
  int checkpoint_every = 1;
  /// Training lanes: 1 = serial (default), 0 = use the shared pool's
  /// size (`util::SharedPoolThreads()`), N = N lanes. Each batch fans
  /// per-example forward/backward across the lanes with a fixed-order
  /// gradient reduction, so any lane count produces bit-identical
  /// parameters — including under checkpoint kill/resume.
  int num_threads = 1;

  /// \brief Returns OK when every field is usable, or a descriptive
  /// InvalidArgument naming the offending field and value.
  Status Validate() const;
};

/// \brief Trains a graph encoder and serves logits / embeddings.
class GraphModel {
 public:
  explicit GraphModel(const GraphModelOptions& options);

  /// \brief Trains on every graph of `train`. When `eval` is non-null,
  /// graph-level weighted F1 is computed after each epoch (recorded in
  /// `history`, also non-null in that case).
  ///
  /// With `options().checkpoint_dir` set, training checkpoints after
  /// every `checkpoint_every` epochs and resumes from an existing
  /// checkpoint (see checkpoint.h). Returns non-OK when a checkpoint
  /// cannot be written, or when an existing one is corrupted or does
  /// not match this architecture; without checkpointing, always OK.
  Status Train(const std::vector<AddressSample>& train,
               const std::vector<AddressSample>* eval = nullptr,
               std::vector<EpochStat>* history = nullptr);

  /// Class logits for one graph on the taped forward (dropout off),
  /// shape (1, classes).
  tensor::Var Logits(const GraphTensors& gt) const;

  /// The inference forward: Logits' values, bit for bit, without a
  /// tape. GFN runs its value-level modules on per-thread scratch; the
  /// other encoders run Logits under a NoGradScope.
  tensor::Tensor LogitsValue(const GraphTensors& gt) const;

  /// Predicted class of one graph: argmax of LogitsValue.
  int PredictGraph(const GraphTensors& gt) const;

  /// Graph embedding rep^G (inference mode), shape (1, embed_dim), on
  /// the same inference forward as LogitsValue.
  tensor::Tensor Embed(const GraphTensors& gt) const;

  /// \brief Post-training int8 quantization of the embed path,
  /// calibrated on the augmented node features of `calibration`
  /// (typically the training set). GFN-only: its embed path is a pure
  /// node MLP; returns Unimplemented for the other encoders and
  /// InvalidArgument when `calibration` holds no graphs. Training and
  /// the fp32 Embed/Logits paths are untouched; idempotent (a second
  /// call recalibrates).
  Status Quantize(const std::vector<AddressSample>& calibration);

  /// True after a successful Quantize().
  bool quantized() const { return quantized_node_mlp_ != nullptr; }

  /// Graph embedding through the int8 node MLP (SUM readout in fp32),
  /// shape (1, embed_dim). Requires quantized().
  tensor::Tensor EmbedQuantized(const GraphTensors& gt) const;

  /// Graph-level confusion over every graph of `samples` — the Table II
  /// evaluation protocol.
  metrics::ConfusionMatrix EvaluateGraphLevel(
      const std::vector<AddressSample>& samples) const;

  int64_t embed_dim() const { return options_.embed_dim; }
  const GraphModelOptions& options() const { return options_; }
  int64_t NumParameters() const;

  /// Trainable parameter nodes of the active encoder (checkpointing).
  std::vector<tensor::Var> Parameters() const;

 private:
  /// Forward pass; `rng` drives dropout when training (per-example
  /// forked RNGs during data-parallel training, null at inference).
  tensor::Var LogitsImpl(const GraphTensors& gt, bool training,
                         Rng* rng) const;

  GraphModelOptions options_;
  mutable Rng rng_;
  std::unique_ptr<nn::GfnEncoder> gfn_;
  /// Int8 twin of gfn_'s node MLP (set by Quantize, GFN only).
  std::unique_ptr<nn::QuantizedMlp> quantized_node_mlp_;
  std::unique_ptr<nn::GcnEncoder> gcn_;
  std::unique_ptr<nn::DiffPoolEncoder> diffpool_;
  std::unique_ptr<nn::GatEncoder> gat_;
  std::unique_ptr<tensor::Adam> optimizer_;
};

}  // namespace ba::core
