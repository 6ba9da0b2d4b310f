#include "core/classifier.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>

#include "obs/trace.h"
#include "tensor/serialize.h"
#include "util/fs.h"
#include "util/logging.h"

namespace ba::core {

EmbeddingScaler EmbeddingScaler::Fit(
    const std::vector<EmbeddingSequence>& sequences) {
  BA_CHECK(!sequences.empty());
  const int64_t dim = sequences[0].embeddings.dim(1);
  EmbeddingScaler s;
  s.mean.assign(static_cast<size_t>(dim), 0.0f);
  s.stddev.assign(static_cast<size_t>(dim), 1.0f);
  int64_t rows = 0;
  std::vector<double> sum(static_cast<size_t>(dim), 0.0);
  std::vector<double> sq(static_cast<size_t>(dim), 0.0);
  for (const auto& seq : sequences) {
    for (int64_t r = 0; r < seq.embeddings.dim(0); ++r) {
      for (int64_t c = 0; c < dim; ++c) {
        const double v = seq.embeddings.at(r, c);
        sum[static_cast<size_t>(c)] += v;
        sq[static_cast<size_t>(c)] += v * v;
      }
      ++rows;
    }
  }
  for (int64_t c = 0; c < dim; ++c) {
    const double m = sum[static_cast<size_t>(c)] / static_cast<double>(rows);
    const double var =
        sq[static_cast<size_t>(c)] / static_cast<double>(rows) - m * m;
    s.mean[static_cast<size_t>(c)] = static_cast<float>(m);
    s.stddev[static_cast<size_t>(c)] =
        static_cast<float>(std::sqrt(std::max(var, 1e-12)));
  }
  return s;
}

void EmbeddingScaler::Apply(std::vector<EmbeddingSequence>* sequences) const {
  for (auto& seq : *sequences) {
    const int64_t dim = seq.embeddings.dim(1);
    BA_CHECK_EQ(dim, static_cast<int64_t>(mean.size()));
    for (int64_t r = 0; r < seq.embeddings.dim(0); ++r) {
      for (int64_t c = 0; c < dim; ++c) {
        seq.embeddings.at(r, c) =
            (seq.embeddings.at(r, c) - mean[static_cast<size_t>(c)]) /
            stddev[static_cast<size_t>(c)];
      }
    }
  }
}

Status BaClassifier::Options::Validate() const {
  BA_RETURN_NOT_OK(dataset.Validate());
  BA_RETURN_NOT_OK(graph_model.Validate());
  BA_RETURN_NOT_OK(aggregator.Validate());
  if (dataset.k_hops != graph_model.k_hops) {
    return Status::InvalidArgument(
        "dataset.k_hops (" + std::to_string(dataset.k_hops) +
        ") != graph_model.k_hops (" + std::to_string(graph_model.k_hops) +
        "): the GFN input width is fixed by the dataset's propagation "
        "depth");
  }
  return Status::OK();
}

Result<std::unique_ptr<BaClassifier>> BaClassifier::Create(
    const Options& options) {
  BA_RETURN_NOT_OK(options.Validate());
  return std::make_unique<BaClassifier>(options);
}

BaClassifier::BaClassifier(const Options& options) : options_(options) {
  // The two stages must agree on k_hops and embedding width.
  options_.graph_model.k_hops = options_.dataset.k_hops;
  options_.aggregator.embed_dim = options_.graph_model.embed_dim;
  options_.aggregator.num_classes = options_.graph_model.num_classes;
}

Status BaClassifier::BuildSamples(
    const chain::Ledger& ledger,
    const std::vector<datagen::LabeledAddress>& addresses,
    std::vector<AddressSample>* out) const {
  BA_RETURN_NOT_OK(options_.dataset.Validate());
  GraphDatasetBuilder builder(options_.dataset);
  *out = builder.Build(ledger, addresses);
  return Status::OK();
}

Status BaClassifier::Train(
    const chain::Ledger& ledger,
    const std::vector<datagen::LabeledAddress>& train) {
  std::vector<AddressSample> samples;
  BA_RETURN_NOT_OK(BuildSamples(ledger, train, &samples));
  return TrainOnSamples(samples);
}

Status BaClassifier::TrainOnSamples(
    const std::vector<AddressSample>& train) {
  if (train.empty()) {
    return Status::InvalidArgument("no training samples with history");
  }
  BA_TRACE_SPAN("core.classifier.train");
  graph_model_ = std::make_unique<GraphModel>(options_.graph_model);
  BA_RETURN_NOT_OK(graph_model_->Train(train));

  std::vector<EmbeddingSequence> sequences;
  {
    BA_TRACE_SPAN("core.classifier.embed");
    sequences = BuildEmbeddingSequences(*graph_model_, train);
    scaler_ = EmbeddingScaler::Fit(sequences);
    scaler_.Apply(&sequences);
  }

  aggregator_ = std::make_unique<AggregatorModel>(options_.aggregator);
  aggregator_->Train(sequences);
  trained_ = true;
  return Status::OK();
}

Status BaClassifier::Quantize(const std::vector<AddressSample>& calibration) {
  if (!trained_) {
    return Status::FailedPrecondition(
        "cannot quantize an untrained classifier");
  }
  BA_TRACE_SPAN("core.quant.calibrate");
  return graph_model_->Quantize(calibration);
}

bool BaClassifier::quantized() const {
  return trained_ && graph_model_->quantized();
}

Status BaClassifier::PredictSample(const AddressSample& sample,
                                   int* out) const {
  if (!trained_) {
    return Status::FailedPrecondition(
        "cannot predict with an untrained classifier");
  }
  if (sample.tensors.empty()) {
    *out = 0;
    return Status::OK();
  }
  std::vector<EmbeddingSequence> seq =
      BuildEmbeddingSequences(*graph_model_, {sample});
  scaler_.Apply(&seq);
  *out = aggregator_->Predict(seq[0].embeddings);
  return Status::OK();
}

Status BaClassifier::Predict(
    const chain::Ledger& ledger,
    const std::vector<datagen::LabeledAddress>& addresses,
    std::vector<int>* out) const {
  if (!trained_) {
    return Status::FailedPrecondition(
        "cannot predict with an untrained classifier");
  }
  out->clear();
  out->reserve(addresses.size());
  GraphDatasetBuilder builder(options_.dataset);
  for (const auto& a : addresses) {
    const auto samples = builder.Build(ledger, {a});
    int predicted = 0;
    if (!samples.empty()) {
      BA_RETURN_NOT_OK(PredictSample(samples[0], &predicted));
    }
    out->push_back(predicted);
  }
  return Status::OK();
}

Status BaClassifier::Evaluate(const chain::Ledger& ledger,
                              const std::vector<datagen::LabeledAddress>& test,
                              metrics::ConfusionMatrix* out) const {
  std::vector<AddressSample> samples;
  BA_RETURN_NOT_OK(BuildSamples(ledger, test, &samples));
  return EvaluateSamples(samples, out);
}

Status BaClassifier::EvaluateSamples(const std::vector<AddressSample>& test,
                                     metrics::ConfusionMatrix* out) const {
  if (!trained_) {
    return Status::FailedPrecondition(
        "cannot evaluate an untrained classifier");
  }
  metrics::ConfusionMatrix cm(options_.graph_model.num_classes);
  std::vector<EmbeddingSequence> sequences =
      BuildEmbeddingSequences(*graph_model_, test);
  scaler_.Apply(&sequences);
  for (size_t i = 0; i < test.size(); ++i) {
    cm.Add(test[i].label, aggregator_->Predict(sequences[i].embeddings));
  }
  *out = std::move(cm);
  return Status::OK();
}

// -- Options codec ----------------------------------------------------------

namespace {

std::string FormatFloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void AddKv(std::string* s, const char* key, const std::string& value) {
  s->append(key);
  s->push_back('=');
  s->append(value);
  s->push_back('\n');
}

void AddKv(std::string* s, const char* key, int64_t value) {
  AddKv(s, key, std::to_string(value));
}

void AddKv(std::string* s, const char* key, uint64_t value) {
  AddKv(s, key, std::to_string(value));
}

void AddKv(std::string* s, const char* key, bool value) {
  AddKv(s, key, std::string(value ? "1" : "0"));
}

void AddKvF(std::string* s, const char* key, double value) {
  AddKv(s, key, FormatFloat(value));
}

/// One settable field of the options block: parses `value` into its
/// destination, or explains why it cannot.
using FieldParser = std::function<Status(const std::string& value)>;

Status ParseInt(const std::string& key, const std::string& value,
                int64_t* out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (errno != 0 || end == value.c_str() || *end != '\0') {
    return Status::InvalidArgument("options field " + key +
                                   ": not an integer: '" + value + "'");
  }
  *out = v;
  return Status::OK();
}

Status ParseU64(const std::string& key, const std::string& value,
                uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (errno != 0 || end == value.c_str() || *end != '\0') {
    return Status::InvalidArgument("options field " + key +
                                   ": not an unsigned integer: '" + value +
                                   "'");
  }
  *out = v;
  return Status::OK();
}

Status ParseDouble(const std::string& key, const std::string& value,
                   double* out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(value.c_str(), &end);
  if (errno != 0 || end == value.c_str() || *end != '\0') {
    return Status::InvalidArgument("options field " + key +
                                   ": not a number: '" + value + "'");
  }
  *out = v;
  return Status::OK();
}

template <typename T>
FieldParser IntField(const std::string& key, T* dst) {
  return [key, dst](const std::string& value) {
    int64_t v = 0;
    BA_RETURN_NOT_OK(ParseInt(key, value, &v));
    *dst = static_cast<T>(v);
    return Status::OK();
  };
}

FieldParser U64Field(const std::string& key, uint64_t* dst) {
  return [key, dst](const std::string& value) {
    return ParseU64(key, value, dst);
  };
}

FieldParser BoolField(const std::string& key, bool* dst) {
  return [key, dst](const std::string& value) {
    if (value != "0" && value != "1") {
      return Status::InvalidArgument("options field " + key +
                                     ": not a bool (0/1): '" + value + "'");
    }
    *dst = value == "1";
    return Status::OK();
  };
}

template <typename T>
FieldParser FloatField(const std::string& key, T* dst) {
  return [key, dst](const std::string& value) {
    double v = 0.0;
    BA_RETURN_NOT_OK(ParseDouble(key, value, &v));
    *dst = static_cast<T>(v);
    return Status::OK();
  };
}

template <typename E>
FieldParser EnumField(const std::string& key, E* dst, int max_value) {
  return [key, dst, max_value](const std::string& value) {
    int64_t v = 0;
    BA_RETURN_NOT_OK(ParseInt(key, value, &v));
    if (v < 0 || v > max_value) {
      return Status::InvalidArgument("options field " + key +
                                     ": enum value out of range: " +
                                     std::to_string(v));
    }
    *dst = static_cast<E>(v);
    return Status::OK();
  };
}

std::map<std::string, FieldParser> OptionFields(BaClassifier::Options* o) {
  std::map<std::string, FieldParser> f;
  auto& c = o->dataset.construction;
  f["dataset.construction.slice_size"] =
      IntField("dataset.construction.slice_size", &c.slice_size);
  f["dataset.construction.similarity_threshold"] = FloatField(
      "dataset.construction.similarity_threshold", &c.similarity_threshold);
  f["dataset.construction.sigma"] =
      IntField("dataset.construction.sigma", &c.sigma);
  f["dataset.construction.max_txs_per_address"] = IntField(
      "dataset.construction.max_txs_per_address", &c.max_txs_per_address);
  f["dataset.construction.enable_single_compression"] =
      BoolField("dataset.construction.enable_single_compression",
                &c.enable_single_compression);
  f["dataset.construction.enable_multi_compression"] =
      BoolField("dataset.construction.enable_multi_compression",
                &c.enable_multi_compression);
  f["dataset.construction.enable_augmentation"] = BoolField(
      "dataset.construction.enable_augmentation", &c.enable_augmentation);
  f["dataset.construction.use_sparse_similarity"] = BoolField(
      "dataset.construction.use_sparse_similarity", &c.use_sparse_similarity);
  f["dataset.k_hops"] = IntField("dataset.k_hops", &o->dataset.k_hops);
  f["dataset.num_threads"] =
      IntField("dataset.num_threads", &o->dataset.num_threads);

  auto& g = o->graph_model;
  f["graph_model.encoder"] = EnumField(
      "graph_model.encoder", &g.encoder,
      static_cast<int>(GraphEncoderKind::kGat));
  f["graph_model.num_classes"] =
      IntField("graph_model.num_classes", &g.num_classes);
  f["graph_model.k_hops"] = IntField("graph_model.k_hops", &g.k_hops);
  f["graph_model.hidden_dim"] =
      IntField("graph_model.hidden_dim", &g.hidden_dim);
  f["graph_model.embed_dim"] = IntField("graph_model.embed_dim", &g.embed_dim);
  f["graph_model.diffpool_clusters"] =
      IntField("graph_model.diffpool_clusters", &g.diffpool_clusters);
  f["graph_model.dropout"] = FloatField("graph_model.dropout", &g.dropout);
  f["graph_model.epochs"] = IntField("graph_model.epochs", &g.epochs);
  f["graph_model.batch_size"] =
      IntField("graph_model.batch_size", &g.batch_size);
  f["graph_model.learning_rate"] =
      FloatField("graph_model.learning_rate", &g.learning_rate);
  f["graph_model.weight_decay"] =
      FloatField("graph_model.weight_decay", &g.weight_decay);
  f["graph_model.seed"] = U64Field("graph_model.seed", &g.seed);
  f["graph_model.checkpoint_every"] =
      IntField("graph_model.checkpoint_every", &g.checkpoint_every);

  auto& a = o->aggregator;
  f["aggregator.kind"] = EnumField(
      "aggregator.kind", &a.kind,
      static_cast<int>(AggregatorKind::kSelfAttention));
  f["aggregator.embed_dim"] = IntField("aggregator.embed_dim", &a.embed_dim);
  f["aggregator.hidden_dim"] =
      IntField("aggregator.hidden_dim", &a.hidden_dim);
  f["aggregator.mlp_hidden"] =
      IntField("aggregator.mlp_hidden", &a.mlp_hidden);
  f["aggregator.num_classes"] =
      IntField("aggregator.num_classes", &a.num_classes);
  f["aggregator.epochs"] = IntField("aggregator.epochs", &a.epochs);
  f["aggregator.batch_size"] =
      IntField("aggregator.batch_size", &a.batch_size);
  f["aggregator.learning_rate"] =
      FloatField("aggregator.learning_rate", &a.learning_rate);
  f["aggregator.seed"] = U64Field("aggregator.seed", &a.seed);

  f["seed"] = U64Field("seed", &o->seed);
  return f;
}

}  // namespace

std::string EncodeClassifierOptions(const BaClassifier::Options& o) {
  std::string s;
  const auto& c = o.dataset.construction;
  AddKv(&s, "dataset.construction.slice_size",
        static_cast<int64_t>(c.slice_size));
  AddKvF(&s, "dataset.construction.similarity_threshold",
         c.similarity_threshold);
  AddKv(&s, "dataset.construction.sigma", static_cast<int64_t>(c.sigma));
  AddKv(&s, "dataset.construction.max_txs_per_address",
        static_cast<int64_t>(c.max_txs_per_address));
  AddKv(&s, "dataset.construction.enable_single_compression",
        c.enable_single_compression);
  AddKv(&s, "dataset.construction.enable_multi_compression",
        c.enable_multi_compression);
  AddKv(&s, "dataset.construction.enable_augmentation",
        c.enable_augmentation);
  AddKv(&s, "dataset.construction.use_sparse_similarity",
        c.use_sparse_similarity);
  AddKv(&s, "dataset.k_hops", static_cast<int64_t>(o.dataset.k_hops));
  AddKv(&s, "dataset.num_threads",
        static_cast<int64_t>(o.dataset.num_threads));

  const auto& g = o.graph_model;
  AddKv(&s, "graph_model.encoder", static_cast<int64_t>(g.encoder));
  AddKv(&s, "graph_model.num_classes", static_cast<int64_t>(g.num_classes));
  AddKv(&s, "graph_model.k_hops", static_cast<int64_t>(g.k_hops));
  AddKv(&s, "graph_model.hidden_dim", static_cast<int64_t>(g.hidden_dim));
  AddKv(&s, "graph_model.embed_dim", static_cast<int64_t>(g.embed_dim));
  AddKv(&s, "graph_model.diffpool_clusters",
        static_cast<int64_t>(g.diffpool_clusters));
  AddKvF(&s, "graph_model.dropout", g.dropout);
  AddKv(&s, "graph_model.epochs", static_cast<int64_t>(g.epochs));
  AddKv(&s, "graph_model.batch_size", static_cast<int64_t>(g.batch_size));
  AddKvF(&s, "graph_model.learning_rate", g.learning_rate);
  AddKvF(&s, "graph_model.weight_decay", g.weight_decay);
  AddKv(&s, "graph_model.seed", g.seed);
  AddKv(&s, "graph_model.checkpoint_every",
        static_cast<int64_t>(g.checkpoint_every));

  const auto& a = o.aggregator;
  AddKv(&s, "aggregator.kind", static_cast<int64_t>(a.kind));
  AddKv(&s, "aggregator.embed_dim", static_cast<int64_t>(a.embed_dim));
  AddKv(&s, "aggregator.hidden_dim", static_cast<int64_t>(a.hidden_dim));
  AddKv(&s, "aggregator.mlp_hidden", static_cast<int64_t>(a.mlp_hidden));
  AddKv(&s, "aggregator.num_classes", static_cast<int64_t>(a.num_classes));
  AddKv(&s, "aggregator.epochs", static_cast<int64_t>(a.epochs));
  AddKv(&s, "aggregator.batch_size", static_cast<int64_t>(a.batch_size));
  AddKvF(&s, "aggregator.learning_rate", a.learning_rate);
  AddKv(&s, "aggregator.seed", a.seed);

  AddKv(&s, "seed", o.seed);
  return s;
}

Status DecodeClassifierOptions(const std::string& text,
                               BaClassifier::Options* options) {
  // Note `graph_model.checkpoint_dir` is deliberately absent from the
  // codec: it is a machine-local path, not part of the architecture.
  BaClassifier::Options decoded;
  auto fields = OptionFields(&decoded);
  size_t pos = 0;
  int line_no = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("options line " +
                                     std::to_string(line_no) +
                                     ": missing '=': '" + line + "'");
    }
    const std::string key = line.substr(0, eq);
    const auto it = fields.find(key);
    if (it == fields.end()) {
      return Status::InvalidArgument("options line " +
                                     std::to_string(line_no) +
                                     ": unknown field '" + key + "'");
    }
    BA_RETURN_NOT_OK(it->second(line.substr(eq + 1)));
  }
  *options = decoded;
  return Status::OK();
}

// -- BACL checkpoint container ----------------------------------------------

namespace {

constexpr char kContainerMagic[4] = {'B', 'A', 'C', 'L'};
constexpr char kLegacyMagic[4] = {'B', 'A', 'T', 'N'};
constexpr uint32_t kContainerVersion = 1;
/// Plausibility bound on the embedded sections; a corrupted length
/// field must never drive a huge allocation.
constexpr uint64_t kMaxSectionBytes = uint64_t{1} << 34;

/// The checkpointed tensor list: encoder weights, aggregator weights,
/// then the scaler's mean and stddev rows.
std::vector<tensor::Var> CheckpointTensors(const GraphModel& graph_model,
                                           const AggregatorModel& aggregator,
                                           tensor::Var scaler_mean,
                                           tensor::Var scaler_std) {
  std::vector<tensor::Var> all = graph_model.Parameters();
  const auto agg = aggregator.Parameters();
  all.insert(all.end(), agg.begin(), agg.end());
  all.push_back(std::move(scaler_mean));
  all.push_back(std::move(scaler_std));
  return all;
}

tensor::Var RowTensor(const std::vector<float>& values) {
  tensor::Tensor t({1, static_cast<int64_t>(values.size())});
  std::copy(values.begin(), values.end(), t.data());
  return tensor::Param(std::move(t));
}

struct ContainerParts {
  std::string options_text;
  std::string params_image;
};

/// Splits a BACL buffer into its options and parameter sections after
/// verifying magic, version and the outer CRC trailer. A bare BATN
/// weights file (no embedded options) is named as such.
Result<ContainerParts> ParseContainer(const std::string& buf,
                                      const std::string& path) {
  util::BufferReader r(buf);
  char magic[4];
  const bool has_magic = r.ReadBytes(magic, sizeof(magic));
  if (has_magic && std::memcmp(magic, kLegacyMagic, sizeof(magic)) == 0) {
    return Status::InvalidArgument(
        "legacy weights-only BATN checkpoint (no embedded options): " +
        path);
  }
  if (!has_magic || std::memcmp(magic, kContainerMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument("not a BACL classifier checkpoint: " +
                                   path);
  }
  uint32_t version = 0;
  if (!r.ReadPod(&version)) {
    return Status::InvalidArgument("truncated BACL header (no version): " +
                                   path);
  }
  if (version != kContainerVersion) {
    return Status::InvalidArgument("unsupported BACL version " +
                                   std::to_string(version) + ": " + path);
  }
  if (buf.size() < r.position() + sizeof(uint32_t)) {
    return Status::InvalidArgument("truncated BACL checkpoint (no crc32): " +
                                   path);
  }
  uint32_t stored = 0;
  std::memcpy(&stored, buf.data() + buf.size() - sizeof(uint32_t),
              sizeof(uint32_t));
  const uint32_t computed =
      util::Crc32(buf.data(), buf.size() - sizeof(uint32_t));
  if (stored != computed) {
    return Status::InvalidArgument(
        "crc32 mismatch (stored " + std::to_string(stored) + ", computed " +
        std::to_string(computed) + "): corrupted checkpoint " + path);
  }
  r.Truncate(buf.size() - sizeof(uint32_t));

  ContainerParts parts;
  for (auto* section : {&parts.options_text, &parts.params_image}) {
    uint64_t len = 0;
    if (!r.ReadPod(&len)) {
      return Status::InvalidArgument("truncated BACL section header: " +
                                     path);
    }
    if (len > kMaxSectionBytes || len > r.remaining()) {
      return Status::InvalidArgument("implausible BACL section length " +
                                     std::to_string(len) + ": " + path);
    }
    section->resize(static_cast<size_t>(len));
    if (!r.ReadBytes(section->data(), static_cast<size_t>(len))) {
      return Status::InvalidArgument("truncated BACL section: " + path);
    }
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument(
        "trailing garbage (" + std::to_string(r.remaining()) +
        " bytes) after BACL body: " + path);
  }
  return parts;
}

}  // namespace

Status BaClassifier::Save(const std::string& path) const {
  if (!trained_) {
    return Status::FailedPrecondition("cannot save an untrained model");
  }
  const std::string options_text = EncodeClassifierOptions(options_);
  const std::string params_image = tensor::SerializeParameters(
      CheckpointTensors(*graph_model_, *aggregator_, RowTensor(scaler_.mean),
                        RowTensor(scaler_.stddev)));

  util::AtomicFileWriter out(path);
  BA_RETURN_NOT_OK(out.Open());
  BA_RETURN_NOT_OK(out.Write(kContainerMagic, sizeof(kContainerMagic)));
  BA_RETURN_NOT_OK(out.Write(&kContainerVersion, sizeof(kContainerVersion)));
  for (const std::string* section : {&options_text, &params_image}) {
    const uint64_t len = section->size();
    BA_RETURN_NOT_OK(out.Write(&len, sizeof(len)));
    BA_RETURN_NOT_OK(out.Append(*section));
  }
  const uint32_t crc = out.crc();
  BA_RETURN_NOT_OK(out.Write(&crc, sizeof(crc)));
  return out.Commit();
}

Status BaClassifier::InstallParameters(const std::string& image,
                                       const std::string& context) {
  graph_model_ = std::make_unique<GraphModel>(options_.graph_model);
  aggregator_ = std::make_unique<AggregatorModel>(options_.aggregator);
  const int64_t dim = options_.graph_model.embed_dim;
  scaler_.mean.assign(static_cast<size_t>(dim), 0.0f);
  scaler_.stddev.assign(static_cast<size_t>(dim), 1.0f);
  tensor::Var mean = RowTensor(scaler_.mean);
  tensor::Var stddev = RowTensor(scaler_.stddev);
  BA_RETURN_NOT_OK(tensor::DeserializeParameters(
      CheckpointTensors(*graph_model_, *aggregator_, mean, stddev), image,
      context));
  for (int64_t j = 0; j < dim; ++j) {
    scaler_.mean[static_cast<size_t>(j)] = mean->value.at(0, j);
    scaler_.stddev[static_cast<size_t>(j)] = stddev->value.at(0, j);
  }
  trained_ = true;
  return Status::OK();
}

Status BaClassifier::Load(const std::string& path) {
  BA_ASSIGN_OR_RETURN(const std::string buf, util::ReadFileToString(path));
  BA_ASSIGN_OR_RETURN(const ContainerParts parts, ParseContainer(buf, path));
  return InstallParameters(parts.params_image, path);
}

Result<std::unique_ptr<BaClassifier>> BaClassifier::FromCheckpoint(
    const std::string& path) {
  BA_ASSIGN_OR_RETURN(const std::string buf, util::ReadFileToString(path));
  BA_ASSIGN_OR_RETURN(const ContainerParts parts, ParseContainer(buf, path));
  BaClassifier::Options options;
  BA_RETURN_NOT_OK(DecodeClassifierOptions(parts.options_text, &options));
  BA_RETURN_NOT_OK(options.Validate());
  auto clf = std::make_unique<BaClassifier>(options);
  BA_RETURN_NOT_OK(clf->InstallParameters(parts.params_image, path));
  return clf;
}

const GraphModel& BaClassifier::graph_model() const {
  BA_CHECK(trained_);
  return *graph_model_;
}

const AggregatorModel& BaClassifier::aggregator() const {
  BA_CHECK(trained_);
  return *aggregator_;
}

const EmbeddingScaler& BaClassifier::scaler() const {
  BA_CHECK(trained_);
  return scaler_;
}

}  // namespace ba::core
