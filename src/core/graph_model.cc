#include "core/graph_model.h"

#include <algorithm>
#include <cmath>

#include "core/checkpoint.h"
#include "core/data_parallel.h"
#include "obs/trace.h"
#include "util/fs.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace ba::core {

const char* GraphEncoderName(GraphEncoderKind kind) {
  switch (kind) {
    case GraphEncoderKind::kGfn:
      return "GFN";
    case GraphEncoderKind::kGcn:
      return "GCN";
    case GraphEncoderKind::kDiffPool:
      return "DiffPool";
    case GraphEncoderKind::kGat:
      return "GAT";
  }
  return "Unknown";
}

Status GraphModelOptions::Validate() const {
  if (num_classes < 2) {
    return Status::InvalidArgument(
        "graph_model.num_classes must be >= 2 (got " +
        std::to_string(num_classes) + ")");
  }
  if (num_classes > kMaxModelWidth) {
    return Status::InvalidArgument(
        "graph_model.num_classes must be <= " +
        std::to_string(kMaxModelWidth) + " (got " +
        std::to_string(num_classes) + ")");
  }
  if (k_hops < 0 || k_hops > kMaxKHops) {
    return Status::InvalidArgument("graph_model.k_hops must be in [0, " +
                                   std::to_string(kMaxKHops) + "] (got " +
                                   std::to_string(k_hops) + ")");
  }
  if (hidden_dim <= 0 || embed_dim <= 0 || hidden_dim > kMaxModelWidth ||
      embed_dim > kMaxModelWidth) {
    return Status::InvalidArgument(
        "graph_model dims must be in [1, " + std::to_string(kMaxModelWidth) +
        "] (hidden_dim " + std::to_string(hidden_dim) + ", embed_dim " +
        std::to_string(embed_dim) + ")");
  }
  if (diffpool_clusters <= 0 || diffpool_clusters > kMaxModelWidth) {
    return Status::InvalidArgument(
        "graph_model.diffpool_clusters must be in [1, " +
        std::to_string(kMaxModelWidth) + "] (got " +
        std::to_string(diffpool_clusters) + ")");
  }
  if (!(dropout >= 0.0f && dropout < 1.0f)) {  // also rejects NaN
    return Status::InvalidArgument(
        "graph_model.dropout must be in [0, 1) (got " +
        std::to_string(dropout) + ")");
  }
  if (epochs < 1 || batch_size < 1) {
    return Status::InvalidArgument(
        "graph_model.epochs and batch_size must be >= 1 (epochs " +
        std::to_string(epochs) + ", batch_size " +
        std::to_string(batch_size) + ")");
  }
  if (!(learning_rate > 0.0f)) {
    return Status::InvalidArgument(
        "graph_model.learning_rate must be positive (got " +
        std::to_string(learning_rate) + ")");
  }
  if (!(weight_decay >= 0.0f)) {  // also rejects NaN
    return Status::InvalidArgument(
        "graph_model.weight_decay must be >= 0 (got " +
        std::to_string(weight_decay) + ")");
  }
  if (checkpoint_every < 1) {
    return Status::InvalidArgument(
        "graph_model.checkpoint_every must be >= 1 (got " +
        std::to_string(checkpoint_every) + ")");
  }
  if (num_threads < 0) {
    return Status::InvalidArgument(
        "graph_model.num_threads must be >= 0 (got " +
        std::to_string(num_threads) + ")");
  }
  return Status::OK();
}

GraphModel::GraphModel(const GraphModelOptions& options)
    : options_(options), rng_(options.seed) {
  switch (options_.encoder) {
    case GraphEncoderKind::kGfn: {
      nn::GfnEncoder::Options o;
      o.input_dim = AugmentedDim(options_.k_hops);
      o.hidden_dim = options_.hidden_dim;
      o.embed_dim = options_.embed_dim;
      o.num_classes = options_.num_classes;
      o.dropout = options_.dropout;
      gfn_ = std::make_unique<nn::GfnEncoder>(o, &rng_);
      break;
    }
    case GraphEncoderKind::kGcn: {
      nn::GcnEncoder::Options o;
      o.input_dim = kNodeFeatureDim;
      o.hidden_dim = options_.hidden_dim;
      o.embed_dim = options_.embed_dim;
      o.num_classes = options_.num_classes;
      gcn_ = std::make_unique<nn::GcnEncoder>(o, &rng_);
      break;
    }
    case GraphEncoderKind::kDiffPool: {
      nn::DiffPoolEncoder::Options o;
      o.input_dim = kNodeFeatureDim;
      o.hidden_dim = options_.hidden_dim;
      o.embed_dim = options_.embed_dim;
      o.num_classes = options_.num_classes;
      o.num_clusters = options_.diffpool_clusters;
      diffpool_ = std::make_unique<nn::DiffPoolEncoder>(o, &rng_);
      break;
    }
    case GraphEncoderKind::kGat: {
      nn::GatEncoder::Options o;
      o.input_dim = kNodeFeatureDim;
      o.hidden_dim = options_.hidden_dim;
      o.embed_dim = options_.embed_dim;
      o.num_classes = options_.num_classes;
      gat_ = std::make_unique<nn::GatEncoder>(o, &rng_);
      break;
    }
  }
  optimizer_ = std::make_unique<tensor::Adam>(
      Parameters(), options_.learning_rate, 0.9f, 0.999f, 1e-8f,
      options_.weight_decay);
}

int64_t GraphModel::NumParameters() const {
  if (gfn_) return gfn_->NumParameters();
  if (gcn_) return gcn_->NumParameters();
  if (gat_) return gat_->NumParameters();
  return diffpool_->NumParameters();
}

std::vector<tensor::Var> GraphModel::Parameters() const {
  if (gfn_) return gfn_->Parameters();
  if (gcn_) return gcn_->Parameters();
  if (gat_) return gat_->Parameters();
  return diffpool_->Parameters();
}

tensor::Var GraphModel::LogitsImpl(const GraphTensors& gt, bool training,
                                   Rng* rng) const {
  switch (options_.encoder) {
    case GraphEncoderKind::kGfn:
      return gfn_->Forward(tensor::Constant(gt.augmented),
                           training ? rng : nullptr, training);
    case GraphEncoderKind::kGcn:
      return gcn_->Forward(gt.norm_adj, tensor::Constant(gt.base_features));
    case GraphEncoderKind::kDiffPool:
      return diffpool_->Forward(gt.norm_adj,
                                tensor::Constant(gt.base_features));
    case GraphEncoderKind::kGat:
      return gat_->Forward(*gt.norm_adj,
                           tensor::Constant(gt.base_features));
  }
  BA_CHECK(false);
  return nullptr;
}

tensor::Var GraphModel::Logits(const GraphTensors& gt) const {
  return LogitsImpl(gt, /*training=*/false, /*rng=*/nullptr);
}

// The inference entry points below run GFN on its value-level forward
// and the other encoders on the training forward under a NoGradScope:
// same values, no tape. The scope and the per-thread scratch cover only
// this thread's own call. GEMMs inside may fan row panels out over the
// pool, but those helpers compute values and never make autograd nodes,
// and ParallelFor's caller claims only its own chunks, so no other
// caller's work runs on this thread while either is in use.

namespace {

/// Node-MLP buffers of this thread's GFN forwards, reused across calls.
nn::MlpScratch& GfnScratch() {
  thread_local nn::MlpScratch scratch;
  return scratch;
}

}  // namespace

tensor::Tensor GraphModel::LogitsValue(const GraphTensors& gt) const {
  if (gfn_) return gfn_->ForwardValue(gt.augmented, &GfnScratch());
  tensor::NoGradScope no_grad;
  return Logits(gt)->value;
}

int GraphModel::PredictGraph(const GraphTensors& gt) const {
  const tensor::Tensor logits = LogitsValue(gt);
  int best = 0;
  for (int c = 1; c < options_.num_classes; ++c) {
    if (logits.at(0, c) > logits.at(0, best)) best = c;
  }
  return best;
}

tensor::Tensor GraphModel::Embed(const GraphTensors& gt) const {
  if (gfn_) return gfn_->EmbedValue(gt.augmented, &GfnScratch());
  tensor::NoGradScope no_grad;
  const tensor::Var x = tensor::Constant(gt.base_features);
  if (gcn_) return gcn_->Embed(gt.norm_adj, x)->value;
  if (gat_) return gat_->Embed(*gt.norm_adj, x)->value;
  return diffpool_->Embed(gt.norm_adj, x)->value;
}

Status GraphModel::Quantize(const std::vector<AddressSample>& calibration) {
  if (options_.encoder != GraphEncoderKind::kGfn) {
    return Status::Unimplemented(
        std::string("int8 quantization supports the GFN encoder only; "
                    "this model uses ") +
        GraphEncoderName(options_.encoder));
  }
  std::vector<const tensor::Tensor*> inputs;
  for (const AddressSample& s : calibration) {
    for (const GraphTensors& gt : s.tensors) inputs.push_back(&gt.augmented);
  }
  if (inputs.empty()) {
    return Status::InvalidArgument(
        "GraphModel::Quantize: calibration set has no graphs");
  }
  quantized_node_mlp_ =
      std::make_unique<nn::QuantizedMlp>(gfn_->node_mlp(), inputs);
  return Status::OK();
}

tensor::Tensor GraphModel::EmbedQuantized(const GraphTensors& gt) const {
  BA_CHECK(quantized_node_mlp_ != nullptr);
  // SUM readout (Eq. 15) in fp32: the fp32 path's own column sum.
  return tensor::SumRowsValue(
      quantized_node_mlp_->Forward(gt.augmented, &GfnScratch()));
}

Status GraphModel::Train(const std::vector<AddressSample>& train,
                         const std::vector<AddressSample>* eval,
                         std::vector<EpochStat>* history) {
  // Flatten to (graph, label) pairs — each slice is one example.
  struct Example {
    const GraphTensors* tensors;
    int label;
  };
  std::vector<Example> examples;
  for (const auto& s : train) {
    BA_CHECK_GE(s.label, 0);
    for (const auto& gt : s.tensors) examples.push_back({&gt, s.label});
  }
  BA_CHECK(!examples.empty());

  // Resume from an existing checkpoint when checkpointing is enabled.
  const bool checkpointing = !options_.checkpoint_dir.empty();
  const std::string ckpt_path = CheckpointPath(options_.checkpoint_dir);
  int start_epoch = 0;
  if (checkpointing && util::FileExists(ckpt_path)) {
    BA_ASSIGN_OR_RETURN(const TrainingCheckpoint ckpt,
                        LoadTrainingCheckpoint(ckpt_path));
    BA_RETURN_NOT_OK(RestoreTrainingCheckpoint(ckpt, Parameters(),
                                               optimizer_.get(), &rng_,
                                               &start_epoch));
  }

  // Lanes 1..T-1 train replicas made for this call only: their own tapes
  // and Param nodes, so concurrent Backward calls share no state.
  std::vector<std::unique_ptr<GraphModel>> replicas;
  DataParallelTrainer trainer(
      optimizer_.get(), options_.num_threads, options_.batch_size,
      [&] {
        replicas.push_back(std::make_unique<GraphModel>(options_));
        return replicas.back()->Parameters();
      },
      {"core.train.batch", "core.train.batch.examples",
       "core.train.batch.update"});
  // Only GFN consumes randomness in its training forward (dropout);
  // drawing seeds only when needed keeps the other encoders' RNG
  // streams — and therefore their existing checkpoints — unchanged.
  const bool uses_dropout_rng = options_.encoder == GraphEncoderKind::kGfn;

  // Each epoch visits examples through a fresh permutation drawn from
  // the RNG, so the visit order is a function of the RNG position at
  // the epoch boundary alone — the property that makes kill/resume
  // reproduce an uninterrupted run bit-exactly. Per-example dropout
  // seeds follow, in visit order, before anything fans out: the RNG
  // stream is independent of the lane count.
  std::vector<size_t> order(examples.size());
  std::vector<uint64_t> seeds(examples.size(), 0);
  obs::ScopedSpan train_span("core.train");
  train_span.AddArg("epochs", static_cast<double>(options_.epochs));
  train_span.AddArg("examples", static_cast<double>(examples.size()));
  train_span.AddArg("lanes", static_cast<double>(trainer.lanes()));
  Stopwatch train_watch;
  for (int epoch = start_epoch; epoch < options_.epochs; ++epoch) {
    obs::ScopedSpan epoch_span("core.train.epoch");
    train_watch.Start();
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng_.Shuffle(&order);
    if (uses_dropout_rng) {
      for (uint64_t& seed : seeds) seed = rng_.Next();
    }
    const double epoch_loss =
        trainer.RunEpoch(examples.size(), [&](size_t lane, size_t k) {
          Rng example_rng(seeds[k]);
          const Example& ex = examples[order[k]];
          return tensor::SoftmaxCrossEntropy(
              (lane == 0 ? this : replicas[lane - 1].get())
                  ->LogitsImpl(*ex.tensors, /*training=*/true,
                               uses_dropout_rng ? &example_rng : nullptr),
              std::vector<int>{ex.label});
        });
    train_watch.Stop();

    const double epoch_seconds = train_watch.ElapsedSeconds();
    const double mean_loss =
        epoch_loss / static_cast<double>(examples.size());
    BA_LOG(Info, "core.train")
        << "epoch " << (epoch + 1) << "/" << options_.epochs << " loss "
        << mean_loss << " (" << examples.size() << " examples, "
        << epoch_seconds << "s)";
    if (epoch_span.active()) {
      epoch_span.AddArg("epoch", static_cast<double>(epoch + 1));
      epoch_span.AddArg("loss", mean_loss);
      if (epoch_seconds > 0.0) {
        epoch_span.AddArg("examples_per_s",
                          static_cast<double>(examples.size()) /
                              epoch_seconds);
      }
      // The post-Step gradient L2 norm — an extra parameter sweep, so
      // computed only when the span is recorded.
      double grad_sq = 0.0;
      for (const tensor::Var& p : Parameters()) {
        if (!p->grad_ready) continue;
        const float* g = p->grad.data();
        for (int64_t j = 0; j < p->grad.numel(); ++j) {
          grad_sq += static_cast<double>(g[j]) * static_cast<double>(g[j]);
        }
      }
      epoch_span.AddArg("grad_norm", std::sqrt(grad_sq));
    }

    if (history != nullptr) {
      history->push_back(
          {epoch + 1, epoch_seconds, mean_loss,
           eval != nullptr ? EvaluateGraphLevel(*eval).WeightedAverage().f1
                           : -1.0});
    }

    if (checkpointing) {
      const int done = epoch + 1;
      const int every = std::max(options_.checkpoint_every, 1);
      if (done % every == 0 || done == options_.epochs) {
        BA_RETURN_NOT_OK(SaveTrainingCheckpoint(
            CaptureTrainingCheckpoint(Parameters(), *optimizer_, rng_, done),
            ckpt_path));
      }
    }
  }
  return Status::OK();
}

metrics::ConfusionMatrix GraphModel::EvaluateGraphLevel(
    const std::vector<AddressSample>& samples) const {
  metrics::ConfusionMatrix cm(options_.num_classes);
  for (const auto& s : samples) {
    for (const auto& gt : s.tensors) {
      cm.Add(s.label, PredictGraph(gt));
    }
  }
  return cm;
}

}  // namespace ba::core
