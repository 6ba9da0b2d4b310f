#include "core/aggregator.h"

#include <algorithm>

#include "core/data_parallel.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace ba::core {

const char* AggregatorName(AggregatorKind kind) {
  switch (kind) {
    case AggregatorKind::kLstm:
      return "LSTM+MLP";
    case AggregatorKind::kBiLstm:
      return "BiLSTM+MLP";
    case AggregatorKind::kAttention:
      return "Attention+MLP";
    case AggregatorKind::kSum:
      return "SUM+MLP";
    case AggregatorKind::kAvg:
      return "AVG+MLP";
    case AggregatorKind::kMax:
      return "MAX+MLP";
    case AggregatorKind::kSelfAttention:
      return "SelfAttn+MLP";
  }
  return "Unknown";
}

std::vector<AggregatorKind> AllAggregators() {
  return {AggregatorKind::kLstm,      AggregatorKind::kBiLstm,
          AggregatorKind::kAttention, AggregatorKind::kSum,
          AggregatorKind::kAvg,       AggregatorKind::kMax};
}

Status AggregatorOptions::Validate() const {
  for (const int64_t dim : {embed_dim, hidden_dim, mlp_hidden}) {
    if (dim <= 0 || dim > kMaxModelWidth) {
      return Status::InvalidArgument(
          "aggregator dims must be in [1, " + std::to_string(kMaxModelWidth) +
          "] (embed_dim " + std::to_string(embed_dim) + ", hidden_dim " +
          std::to_string(hidden_dim) + ", mlp_hidden " +
          std::to_string(mlp_hidden) + ")");
    }
  }
  if (num_classes < 2 || num_classes > kMaxModelWidth) {
    return Status::InvalidArgument(
        "aggregator.num_classes must be in [2, " +
        std::to_string(kMaxModelWidth) + "] (got " +
        std::to_string(num_classes) + ")");
  }
  if (epochs < 1 || batch_size < 1) {
    return Status::InvalidArgument(
        "aggregator.epochs and batch_size must be >= 1 (epochs " +
        std::to_string(epochs) + ", batch_size " +
        std::to_string(batch_size) + ")");
  }
  if (!(learning_rate > 0.0f)) {
    return Status::InvalidArgument(
        "aggregator.learning_rate must be positive (got " +
        std::to_string(learning_rate) + ")");
  }
  if (num_threads < 0) {
    return Status::InvalidArgument(
        "aggregator.num_threads must be >= 0 (got " +
        std::to_string(num_threads) + ")");
  }
  return Status::OK();
}

AggregatorModel::AggregatorModel(const AggregatorOptions& options)
    : options_(options), rng_(options.seed) {
  int64_t pooled_dim = options_.embed_dim;
  switch (options_.kind) {
    case AggregatorKind::kLstm:
      lstm_ = std::make_unique<nn::Lstm>(options_.embed_dim,
                                         options_.hidden_dim, &rng_);
      pooled_dim = options_.hidden_dim;
      break;
    case AggregatorKind::kBiLstm:
      bilstm_ = std::make_unique<nn::BiLstm>(options_.embed_dim,
                                             options_.hidden_dim, &rng_);
      pooled_dim = 2 * options_.hidden_dim;
      break;
    case AggregatorKind::kAttention:
      attention_ = std::make_unique<nn::AttentionPool>(
          options_.embed_dim, options_.hidden_dim, &rng_);
      pooled_dim = options_.embed_dim;
      break;
    case AggregatorKind::kSelfAttention:
      self_attention_ = std::make_unique<nn::SelfAttentionPool>(
          options_.embed_dim, options_.hidden_dim, &rng_);
      pooled_dim = options_.hidden_dim;
      break;
    case AggregatorKind::kSum:
    case AggregatorKind::kAvg:
    case AggregatorKind::kMax:
      break;
  }
  head_ = std::make_unique<nn::Mlp>(
      std::vector<int64_t>{pooled_dim, options_.mlp_hidden,
                           static_cast<int64_t>(options_.num_classes)},
      &rng_);

  optimizer_ = std::make_unique<tensor::Adam>(Parameters(),
                                              options_.learning_rate);
}

std::vector<tensor::Var> AggregatorModel::Parameters() const {
  std::vector<tensor::Var> params = head_->Parameters();
  const nn::Module* encoders[] = {lstm_.get(), bilstm_.get(),
                                  attention_.get(), self_attention_.get()};
  for (const nn::Module* m : encoders) {
    if (m == nullptr) continue;
    for (const tensor::Var& p : m->Parameters()) params.push_back(p);
  }
  return params;
}

tensor::Var AggregatorModel::Logits(
    const tensor::Tensor& embeddings) const {
  BA_CHECK_EQ(embeddings.rank(), 2);
  BA_CHECK_EQ(embeddings.dim(1), options_.embed_dim);
  const tensor::Var seq = tensor::Constant(embeddings);
  tensor::Var pooled;
  switch (options_.kind) {
    case AggregatorKind::kLstm:
      pooled = lstm_->ForwardLast(seq);
      break;
    case AggregatorKind::kBiLstm:
      pooled = bilstm_->ForwardLast(seq);
      break;
    case AggregatorKind::kAttention:
      pooled = attention_->Forward(seq);
      break;
    case AggregatorKind::kSum:
      pooled = tensor::SumRows(seq);
      break;
    case AggregatorKind::kAvg:
      pooled = tensor::MeanRows(seq);
      break;
    case AggregatorKind::kMax:
      pooled = tensor::MaxRows(seq);
      break;
    case AggregatorKind::kSelfAttention:
      pooled = self_attention_->Forward(seq);
      break;
  }
  return head_->Forward(pooled);
}

tensor::Tensor AggregatorModel::LogitsValue(
    const tensor::Tensor& embeddings) const {
  BA_CHECK_EQ(embeddings.rank(), 2);
  BA_CHECK_EQ(embeddings.dim(1), options_.embed_dim);
  // One set of buffers per thread, reused across calls. Nothing below
  // re-enters this function, and GEMMs that fan out over the pool do
  // not run other callers' work on this thread.
  struct Scratch {
    nn::LstmScratch lstm;
    tensor::Tensor pooled;
    nn::MlpScratch head;
  };
  thread_local Scratch scratch;
  const tensor::Tensor* pooled = &scratch.pooled;
  switch (options_.kind) {
    case AggregatorKind::kLstm:
      pooled = &lstm_->ForwardLastValue(embeddings, &scratch.lstm);
      break;
    case AggregatorKind::kBiLstm:
      bilstm_->ForwardLastValue(embeddings, &scratch.lstm, &scratch.pooled);
      break;
    case AggregatorKind::kSum:
      scratch.pooled = tensor::SumRowsValue(embeddings);
      break;
    case AggregatorKind::kAvg:
      scratch.pooled = tensor::SumRowsValue(embeddings);
      scratch.pooled.ScaleInPlace(1.0f /
                                  static_cast<float>(embeddings.dim(0)));
      break;
    case AggregatorKind::kMax:
      scratch.pooled = tensor::MaxRowsValue(embeddings);
      break;
    case AggregatorKind::kAttention:
    case AggregatorKind::kSelfAttention: {
      // No value-level twin: the taped forward without its tape.
      tensor::NoGradScope no_grad;
      return Logits(embeddings)->value;
    }
  }
  return head_->ForwardValue(*pooled, &scratch.head);
}

int AggregatorModel::Predict(const tensor::Tensor& embeddings) const {
  const tensor::Tensor logits = LogitsValue(embeddings);
  int best = 0;
  for (int c = 1; c < options_.num_classes; ++c) {
    if (logits.at(0, c) > logits.at(0, best)) best = c;
  }
  return best;
}

void AggregatorModel::Train(const std::vector<EmbeddingSequence>& train,
                            const std::vector<EmbeddingSequence>* eval,
                            std::vector<EpochStat>* history) {
  BA_CHECK(!train.empty());
  std::vector<size_t> order(train.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  // Lanes as in GraphModel::Train. No aggregator forward consumes
  // randomness, so the RNG stream (shuffles only) is lane-independent.
  std::vector<std::unique_ptr<AggregatorModel>> replicas;
  DataParallelTrainer trainer(
      optimizer_.get(), options_.num_threads, options_.batch_size,
      [&] {
        replicas.push_back(std::make_unique<AggregatorModel>(options_));
        return replicas.back()->Parameters();
      },
      {"core.aggregate.batch", "core.aggregate.batch.examples",
       "core.aggregate.batch.update"});

  obs::ScopedSpan train_span("core.aggregate.train");
  train_span.AddArg("epochs", static_cast<double>(options_.epochs));
  train_span.AddArg("examples", static_cast<double>(train.size()));
  train_span.AddArg("lanes", static_cast<double>(trainer.lanes()));
  Stopwatch watch;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    obs::ScopedSpan epoch_span("core.aggregate.epoch");
    watch.Start();
    rng_.Shuffle(&order);
    const double epoch_loss =
        trainer.RunEpoch(train.size(), [&](size_t lane, size_t k) {
          const EmbeddingSequence& ex = train[order[k]];
          return tensor::SoftmaxCrossEntropy(
              (lane == 0 ? this : replicas[lane - 1].get())
                  ->Logits(ex.embeddings),
              std::vector<int>{ex.label});
        });
    watch.Stop();

    const double mean_loss = epoch_loss / static_cast<double>(train.size());
    BA_LOG(Info, "core.aggregate")
        << "epoch " << (epoch + 1) << "/" << options_.epochs << " loss "
        << mean_loss << " (" << watch.ElapsedSeconds() << "s)";
    if (epoch_span.active()) {
      epoch_span.AddArg("epoch", static_cast<double>(epoch + 1));
      epoch_span.AddArg("loss", mean_loss);
    }

    if (history != nullptr) {
      history->push_back(
          {epoch + 1, watch.ElapsedSeconds(), mean_loss,
           eval != nullptr ? Evaluate(*eval).WeightedAverage().f1 : -1.0});
    }
  }
}

metrics::ConfusionMatrix AggregatorModel::Evaluate(
    const std::vector<EmbeddingSequence>& samples) const {
  metrics::ConfusionMatrix cm(options_.num_classes);
  for (const auto& s : samples) cm.Add(s.label, Predict(s.embeddings));
  return cm;
}

std::vector<EmbeddingSequence> BuildEmbeddingSequences(
    const GraphModel& model, std::span<const AddressSample> samples) {
  std::vector<EmbeddingSequence> out;
  out.reserve(samples.size());
  for (const auto& s : samples) {
    BA_CHECK_GT(s.num_graphs(), 0);
    EmbeddingSequence& seq = out.emplace_back(EmbeddingSequence{
        tensor::Tensor({s.num_graphs(), model.embed_dim()}), s.label});
    for (int g = 0; g < s.num_graphs(); ++g) {
      const tensor::Tensor e = model.Embed(s.tensors[static_cast<size_t>(g)]);
      std::copy_n(e.data(), model.embed_dim(),
                  seq.embeddings.data() + g * model.embed_dim());
    }
  }
  return out;
}

}  // namespace ba::core
