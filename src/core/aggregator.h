#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/graph_model.h"
#include "metrics/classification.h"
#include "nn/attention.h"
#include "nn/self_attention.h"
#include "nn/lstm.h"
#include "tensor/optimizer.h"

/// \file aggregator.h
/// \brief Address Classification (§III-C): folds an address's
/// chronological list of graph embeddings into one prediction. The
/// paper selects LSTM+MLP (Eq. 22); BiLSTM, attention pooling and
/// sum/avg/max pooling are the Table III comparators.

namespace ba::core {

/// \brief Sequence-aggregation strategy over the embedding list.
enum class AggregatorKind {
  kLstm,           ///< LSTM+MLP — the paper's choice (Eq. 22)
  kBiLstm,         ///< BiLSTM+MLP
  kAttention,      ///< Attention pooling + MLP
  kSum,            ///< SUM pooling + MLP
  kAvg,            ///< AVG pooling + MLP
  kMax,            ///< MAX pooling + MLP
  kSelfAttention,  ///< Transformer-style self-attention (extension)
};

const char* AggregatorName(AggregatorKind kind);

/// The six Table III aggregators, in table order (the self-attention
/// extension is not included; request it explicitly).
std::vector<AggregatorKind> AllAggregators();

/// \brief One training sequence: an address's stacked graph embeddings
/// (T, embed_dim) and its label.
struct EmbeddingSequence {
  tensor::Tensor embeddings;
  int label = -1;
};

/// \brief Options of the address-classification stage.
struct AggregatorOptions {
  AggregatorKind kind = AggregatorKind::kLstm;
  int64_t embed_dim = 32;   ///< input width (graph embedding size)
  int64_t hidden_dim = 32;  ///< LSTM hidden / attention size
  int64_t mlp_hidden = 32;
  int num_classes = 4;
  int epochs = 30;
  int batch_size = 16;
  float learning_rate = 1e-3f;
  uint64_t seed = 7;
  /// Training lanes: 1 = serial (default), 0 = shared-pool size, N = N
  /// lanes. Like GraphModelOptions::num_threads, any lane count yields
  /// bit-identical parameters (fixed-order gradient reduction).
  int num_threads = 1;

  /// \brief Returns OK when every field is usable, or a descriptive
  /// InvalidArgument naming the offending field and value.
  Status Validate() const;
};

/// \brief Trainable address classifier over embedding sequences.
class AggregatorModel {
 public:
  explicit AggregatorModel(const AggregatorOptions& options);

  /// Class logits for one sequence, shape (1, classes), on the taped
  /// training forward.
  tensor::Var Logits(const tensor::Tensor& embeddings) const;

  /// The inference forward: Logits' values, bit for bit, without a
  /// tape. LSTM, BiLSTM and the SUM/AVG/MAX poolings run value-level
  /// modules on per-thread scratch; the attention kinds run Logits
  /// under a NoGradScope.
  tensor::Tensor LogitsValue(const tensor::Tensor& embeddings) const;

  /// Argmax of LogitsValue.
  int Predict(const tensor::Tensor& embeddings) const;

  /// \brief Trains on sequences; per-epoch stats recorded when
  /// `history` is non-null (eval_f1 needs a non-null `eval`).
  void Train(const std::vector<EmbeddingSequence>& train,
             const std::vector<EmbeddingSequence>* eval = nullptr,
             std::vector<EpochStat>* history = nullptr);

  metrics::ConfusionMatrix Evaluate(
      const std::vector<EmbeddingSequence>& samples) const;

  const AggregatorOptions& options() const { return options_; }

  /// Trainable parameter nodes (checkpointing).
  std::vector<tensor::Var> Parameters() const;

 private:
  AggregatorOptions options_;
  Rng rng_;
  std::unique_ptr<nn::Lstm> lstm_;
  std::unique_ptr<nn::BiLstm> bilstm_;
  std::unique_ptr<nn::AttentionPool> attention_;
  std::unique_ptr<nn::SelfAttentionPool> self_attention_;
  std::unique_ptr<nn::Mlp> head_;
  std::unique_ptr<tensor::Adam> optimizer_;
};

/// Builds the embedding sequences of `samples` under a trained graph
/// model (inference mode).
std::vector<EmbeddingSequence> BuildEmbeddingSequences(
    const GraphModel& model, std::span<const AddressSample> samples);

}  // namespace ba::core
