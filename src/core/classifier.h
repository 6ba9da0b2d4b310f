#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/aggregator.h"
#include "core/graph_dataset.h"
#include "core/graph_model.h"
#include "metrics/classification.h"

/// \file classifier.h
/// \brief BAClassifier — the paper's end-to-end system (Fig 2): address
/// graph construction → graph representation learning (GFN) → address
/// classification (LSTM+MLP). This facade is the library's primary
/// public entry point.
///
/// The facade is Status-first: every fallible operation (prediction on
/// an untrained model, invalid options, corrupt checkpoints) returns a
/// descriptive `Status` instead of aborting, so a serving process can
/// reject a bad request and keep running. (The legacy crash-on-misuse
/// value-returning overloads were deprecated shims and have been
/// removed.)
///
/// Typical use:
/// \code
///   ba::core::BaClassifier::Options opts;
///   BA_ASSIGN_OR_RETURN(auto clf, ba::core::BaClassifier::Create(opts));
///   BA_RETURN_NOT_OK(clf->Train(ledger, train_addresses));
///   metrics::ConfusionMatrix cm;
///   BA_RETURN_NOT_OK(clf->Evaluate(ledger, test_addresses, &cm));
///   BA_RETURN_NOT_OK(clf->Save("model.bacl"));
///   // Later, without reconstructing Options by hand:
///   BA_ASSIGN_OR_RETURN(auto served,
///                       ba::core::BaClassifier::FromCheckpoint("model.bacl"));
/// \endcode

namespace ba::core {

/// \brief Standardization of embedding sequences (fit on train, applied
/// everywhere) — keeps the SUM-readout magnitudes in the range the
/// LSTM gates operate in.
struct EmbeddingScaler {
  std::vector<float> mean;
  std::vector<float> stddev;

  static EmbeddingScaler Fit(const std::vector<EmbeddingSequence>& sequences);
  void Apply(std::vector<EmbeddingSequence>* sequences) const;
};

/// \brief End-to-end bitcoin address behavior classifier.
class BaClassifier {
 public:
  struct Options {
    GraphDatasetOptions dataset;
    GraphModelOptions graph_model;       ///< stage 2 (GFN by default)
    AggregatorOptions aggregator;        ///< stage 3 (LSTM+MLP by default)
    uint64_t seed = 1;

    /// \brief Validates every component and their cross-stage
    /// consistency: `dataset.k_hops` must equal `graph_model.k_hops`
    /// (the GFN input width depends on it). The aggregator's
    /// `embed_dim`/`num_classes` are derived from the graph model by
    /// construction and are not required to match beforehand.
    Status Validate() const;
  };

  /// \brief Validating factory: returns InvalidArgument (with the
  /// offending field named) instead of constructing a misconfigured
  /// classifier. Prefer this over the raw constructor.
  static Result<std::unique_ptr<BaClassifier>> Create(const Options& options);

  /// \brief Reconstructs a trained classifier from a checkpoint written
  /// by Save(): the serialized Options embedded in the artifact are
  /// decoded, validated, and used to rebuild the architecture before
  /// the weights are installed — no hand-maintained Options needed.
  /// Fails on legacy weights-only (BATN) checkpoints, corruption, or
  /// invalid embedded options.
  static Result<std::unique_ptr<BaClassifier>> FromCheckpoint(
      const std::string& path);

  /// Legacy constructor: silently normalizes derived fields (k_hops,
  /// aggregator dims) instead of validating. Prefer Create().
  explicit BaClassifier(const Options& options);

  /// \brief Trains both stages on the labeled train addresses: the
  /// graph encoder on individual graph slices, then the aggregator on
  /// the frozen encoder's embedding sequences.
  Status Train(const chain::Ledger& ledger,
               const std::vector<datagen::LabeledAddress>& train);

  /// Same, on pre-materialized samples (reuses dataset across models).
  Status TrainOnSamples(const std::vector<AddressSample>& train);

  /// \brief Materializes the graph samples of `addresses` (addresses
  /// whose history yields no graphs are dropped). Fails on invalid
  /// dataset options; never aborts.
  Status BuildSamples(const chain::Ledger& ledger,
                      const std::vector<datagen::LabeledAddress>& addresses,
                      std::vector<AddressSample>* out) const;

  /// \brief Post-training int8 quantization of the graph encoder's
  /// embed path, calibrated on `calibration` (typically the training
  /// samples) under a `core.quant.calibrate` trace span. After an OK
  /// return, serving layers may select the int8 path (see
  /// serve::InferenceEngineOptions::precision); the fp32 paths and all
  /// training/checkpointing are untouched. FailedPrecondition when
  /// untrained; Unimplemented for non-GFN encoders.
  Status Quantize(const std::vector<AddressSample>& calibration);

  /// True once Quantize() has succeeded on the trained model.
  bool quantized() const;

  /// \brief Predicted class per address into `*out`, in order, all at
  /// one ledger snapshot (an empty history predicts class 0).
  /// FailedPrecondition when the model is untrained.
  Status Predict(const chain::Ledger& ledger,
                 const std::vector<datagen::LabeledAddress>& addresses,
                 std::vector<int>* out) const;

  /// \brief Predicted class of one pre-materialized sample.
  /// FailedPrecondition when the model is untrained.
  Status PredictSample(const AddressSample& sample, int* out) const;

  /// \brief Address-level confusion matrix on a labeled test set.
  /// FailedPrecondition when the model is untrained.
  Status Evaluate(const chain::Ledger& ledger,
                  const std::vector<datagen::LabeledAddress>& test,
                  metrics::ConfusionMatrix* out) const;

  /// Same, on pre-materialized samples.
  Status EvaluateSamples(const std::vector<AddressSample>& test,
                         metrics::ConfusionMatrix* out) const;

  /// \brief Saves the trained model to a "BACL" checkpoint: the
  /// serialized Options followed by the weights (encoder + aggregator +
  /// embedding scaler), atomically written and CRC32-protected.
  /// FromCheckpoint() restores it without any hand-built Options.
  Status Save(const std::string& path) const;

  /// \brief Loads a checkpoint written by Save into this classifier.
  /// The classifier must have been constructed with the same Options
  /// (architecture shapes are verified). A legacy weights-only BATN
  /// file is rejected as such. Marks the model trained.
  Status Load(const std::string& path);

  /// True once Train/TrainOnSamples/Load has succeeded.
  bool trained() const { return trained_; }

  /// The trained graph encoder (valid after Train).
  const GraphModel& graph_model() const;

  /// The trained aggregator (valid after Train).
  const AggregatorModel& aggregator() const;

  /// The embedding scaler fitted on the training set (valid after
  /// Train) — serving paths need it to normalize fresh embeddings
  /// exactly the way training did.
  const EmbeddingScaler& scaler() const;

  const Options& options() const { return options_; }

 private:
  Status InstallParameters(const std::string& image,
                           const std::string& context);

  Options options_;
  std::unique_ptr<GraphModel> graph_model_;
  std::unique_ptr<AggregatorModel> aggregator_;
  EmbeddingScaler scaler_;
  bool trained_ = false;
};

/// \brief Every field of the BACL options block, declared once as
/// `X(field)` in encoding order. `field` is the member path within
/// `BaClassifier::Options` and, stringized, the field's key; its C++
/// type picks how the value is written and parsed. The encoder and the
/// decoder's field table both expand from this list.
/// `graph_model.checkpoint_dir` is deliberately absent: it is a
/// machine-local path, not part of the architecture.
#define BA_CLASSIFIER_OPTION_FIELDS(X)                  \
  X(dataset.construction.slice_size)                    \
  X(dataset.construction.similarity_threshold)          \
  X(dataset.construction.sigma)                         \
  X(dataset.construction.max_txs_per_address)           \
  X(dataset.construction.enable_single_compression)     \
  X(dataset.construction.enable_multi_compression)      \
  X(dataset.construction.enable_augmentation)           \
  X(dataset.k_hops)                                     \
  X(dataset.num_threads)                                \
  X(graph_model.encoder)                                \
  X(graph_model.num_classes)                            \
  X(graph_model.k_hops)                                 \
  X(graph_model.hidden_dim)                             \
  X(graph_model.embed_dim)                              \
  X(graph_model.diffpool_clusters)                      \
  X(graph_model.dropout)                                \
  X(graph_model.epochs)                                 \
  X(graph_model.batch_size)                             \
  X(graph_model.learning_rate)                          \
  X(graph_model.weight_decay)                           \
  X(graph_model.seed)                                   \
  X(graph_model.checkpoint_every)                       \
  X(aggregator.kind)                                    \
  X(aggregator.embed_dim)                               \
  X(aggregator.hidden_dim)                              \
  X(aggregator.mlp_hidden)                              \
  X(aggregator.num_classes)                             \
  X(aggregator.epochs)                                  \
  X(aggregator.batch_size)                              \
  X(aggregator.learning_rate)                           \
  X(aggregator.seed)                                    \
  X(seed)

/// \brief Renders `options` as the line-oriented `key=value` text block
/// embedded in BACL checkpoints (stable across versions; exposed for
/// tests and tooling).
std::string EncodeClassifierOptions(const BaClassifier::Options& options);

/// \brief Parses a block produced by EncodeClassifierOptions. Unknown
/// keys and malformed values fail with a descriptive InvalidArgument;
/// missing keys keep their defaults. The retired key
/// `dataset.construction.use_sparse_similarity`, written by older
/// builds, is accepted as `0` or `1` and ignored.
Status DecodeClassifierOptions(const std::string& text,
                               BaClassifier::Options* options);

}  // namespace ba::core
