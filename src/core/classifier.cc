#include "core/classifier.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <type_traits>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "obs/trace.h"
#include "tensor/serialize.h"
#include "util/fs.h"
#include "util/logging.h"

namespace ba::core {

EmbeddingScaler EmbeddingScaler::Fit(
    const std::vector<EmbeddingSequence>& sequences) {
  BA_CHECK(!sequences.empty());
  const int64_t dim = sequences[0].embeddings.dim(1);
  int64_t rows = 0;
  std::vector<double> sum(static_cast<size_t>(dim), 0.0);
  std::vector<double> sq(static_cast<size_t>(dim), 0.0);
  for (const auto& seq : sequences) {
    const float* row = seq.embeddings.data();
    for (int64_t r = 0; r < seq.embeddings.dim(0); ++r, row += dim, ++rows) {
      for (size_t c = 0; c < sum.size(); ++c) {
        sum[c] += row[c];
        sq[c] += static_cast<double>(row[c]) * row[c];
      }
    }
  }
  EmbeddingScaler s;
  for (size_t c = 0; c < sum.size(); ++c) {
    const double m = sum[c] / static_cast<double>(rows);
    const double var = sq[c] / static_cast<double>(rows) - m * m;
    s.mean.push_back(static_cast<float>(m));
    s.stddev.push_back(static_cast<float>(std::sqrt(std::max(var, 1e-12))));
  }
  return s;
}

void EmbeddingScaler::Apply(std::vector<EmbeddingSequence>* sequences) const {
  for (auto& seq : *sequences) {
    BA_CHECK_EQ(seq.embeddings.dim(1), static_cast<int64_t>(mean.size()));
    float* row = seq.embeddings.data();
    for (int64_t r = 0; r < seq.embeddings.dim(0); ++r, row += mean.size()) {
      for (size_t c = 0; c < mean.size(); ++c) {
        row[c] = (row[c] - mean[c]) / stddev[c];
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
  *out = BuildAddressSamples(ledger.Snapshot(), addresses, options_.dataset);
  return Status::OK();
}

Status BaClassifier::Train(
    const chain::Ledger& ledger,
    const std::vector<datagen::LabeledAddress>& train) {
  {
    std::vector<AddressSample> samples;
    BA_RETURN_NOT_OK(BuildSamples(ledger, train, &samples));
    BA_RETURN_NOT_OK(TrainOnSamples(samples));
  }
#if defined(__GLIBC__)
  // The samples, tapes and embedding sequences are freed by now, but the
  // models were allocated above them, so glibc keeps their pages
  // resident: about 12 MiB of free heap on bench_profile's 2000-block
  // economy, which a process that goes on to serve would carry for
  // good. Hand those pages back.
  malloc_trim(0);
#endif
  return Status::OK();
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
      BuildEmbeddingSequences(*graph_model_, std::span(&sample, 1));
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
  // One epoch answers the whole call; each address is built alone, so
  // only one address's graphs are alive at a time.
  const chain::LedgerSnapshot snapshot = ledger.Snapshot();
  for (const auto& a : addresses) {
    const auto samples = BuildAddressSamples(snapshot, {a}, options_.dataset);
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

constexpr int EnumMax(GraphEncoderKind) {
  return static_cast<int>(GraphEncoderKind::kGat);
}
constexpr int EnumMax(AggregatorKind) {
  return static_cast<int>(AggregatorKind::kSelfAttention);
}

template <typename T>
std::string FormatValue(T value) {
  if constexpr (std::is_same_v<T, bool>) {
    return value ? "1" : "0";
  } else if constexpr (std::is_floating_point_v<T>) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(value));
    return buf;
  } else if constexpr (std::is_enum_v<T>) {
    return std::to_string(static_cast<int64_t>(value));
  } else {
    return std::to_string(value);
  }
}

/// Parses `text` with `parse` (strtoll, strtoull or strtod), which must
/// consume all of it.
template <typename V, typename Parse>
Status ParseNumber(const char* key, const std::string& text, Parse parse,
                   const char* what, V* out) {
  char* end = nullptr;
  errno = 0;
  *out = parse(text.c_str(), &end);
  if (errno != 0 || end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument(std::string("options field ") + key +
                                   ": not " + what + ": '" + text + "'");
  }
  return Status::OK();
}

/// Parses one option value into `dst`, the inverse of FormatValue.
template <typename T>
Status ParseValue(const char* key, const std::string& text, T* dst) {
  if constexpr (std::is_same_v<T, bool>) {
    if (text != "0" && text != "1") {
      return Status::InvalidArgument(std::string("options field ") + key +
                                     ": not a bool (0/1): '" + text + "'");
    }
    *dst = text == "1";
  } else if constexpr (std::is_floating_point_v<T>) {
    double v = 0.0;
    BA_RETURN_NOT_OK(ParseNumber(
        key, text, [](const char* p, char** e) { return std::strtod(p, e); },
        "a number", &v));
    *dst = static_cast<T>(v);
  } else if constexpr (std::is_unsigned_v<T>) {
    unsigned long long v = 0;
    BA_RETURN_NOT_OK(ParseNumber(
        key, text,
        [](const char* p, char** e) { return std::strtoull(p, e, 10); },
        "an unsigned integer", &v));
    *dst = static_cast<T>(v);
  } else {
    long long v = 0;
    BA_RETURN_NOT_OK(ParseNumber(
        key, text,
        [](const char* p, char** e) { return std::strtoll(p, e, 10); },
        "an integer", &v));
    if constexpr (std::is_enum_v<T>) {
      if (v < 0 || v > EnumMax(T{})) {
        return Status::InvalidArgument(std::string("options field ") + key +
                                       ": enum value out of range: " +
                                       std::to_string(v));
      }
    } else if (v < std::numeric_limits<T>::min() ||
               v > std::numeric_limits<T>::max()) {
      return Status::InvalidArgument(std::string("options field ") + key +
                                     ": integer out of range: " +
                                     std::to_string(v));
    }
    *dst = static_cast<T>(v);
  }
  return Status::OK();
}

/// Parses one option value into its field of `o`.
using FieldParser = Status (*)(const std::string& value,
                               BaClassifier::Options* o);

const std::map<std::string, FieldParser>& OptionFields() {
  static const auto* fields = new std::map<std::string, FieldParser>{
#define BA_OPTION_FIELD_PARSER(field)                                  \
  {#field, [](const std::string& value, BaClassifier::Options* o) {    \
     return ParseValue(#field, value, &o->field);                      \
   }},
      BA_CLASSIFIER_OPTION_FIELDS(BA_OPTION_FIELD_PARSER)
#undef BA_OPTION_FIELD_PARSER
      // Retired: older builds wrote which Stage 3 similarity backend
      // to use. Both gave the merge groups of the one path left, so
      // their checkpoints load unchanged; the value must still be a
      // bool.
      {"dataset.construction.use_sparse_similarity",
       [](const std::string& value, BaClassifier::Options*) {
         bool ignored = false;
         return ParseValue("dataset.construction.use_sparse_similarity",
                           value, &ignored);
       }},
  };
  return *fields;
}

}  // namespace

std::string EncodeClassifierOptions(const BaClassifier::Options& o) {
  std::string s;
#define BA_ENCODE_OPTION_FIELD(field) \
  s += #field "=" + FormatValue(o.field) + "\n";
  BA_CLASSIFIER_OPTION_FIELDS(BA_ENCODE_OPTION_FIELD)
#undef BA_ENCODE_OPTION_FIELD
  return s;
}

Status DecodeClassifierOptions(const std::string& text,
                               BaClassifier::Options* options) {
  BaClassifier::Options decoded;
  const auto& fields = OptionFields();
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
    BA_RETURN_NOT_OK(it->second(line.substr(eq + 1), &decoded));
  }
  *options = decoded;
  return Status::OK();
}

// -- BACL checkpoint container ----------------------------------------------

namespace {

constexpr util::SealedFormat kBacl{{'B', 'A', 'C', 'L'}, 1,
                                   "classifier checkpoint"};
constexpr char kLegacyMagic[4] = {'B', 'A', 'T', 'N'};

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
  return tensor::Param(
      tensor::Tensor({1, static_cast<int64_t>(values.size())}, values));
}

/// The two length-prefixed sections of a BACL body.
struct ContainerParts {
  std::string options_text;
  std::string params_image;
};

/// Reads the BACL file at `path` and splits its body into sections. A
/// bare BATN weights file (no embedded options) is named as such.
Result<ContainerParts> ReadContainer(const std::string& path) {
  BA_ASSIGN_OR_RETURN(const std::string buf, util::ReadFileToString(path));
  if (buf.compare(0, sizeof(kLegacyMagic), kLegacyMagic,
                  sizeof(kLegacyMagic)) == 0) {
    return Status::InvalidArgument(
        "legacy weights-only BATN checkpoint (no embedded options): " +
        path);
  }
  BA_ASSIGN_OR_RETURN(util::SealedBody body,
                      util::OpenSealed(buf, kBacl, path));
  ContainerParts parts;
  for (auto* section : {&parts.options_text, &parts.params_image}) {
    uint64_t len = 0;
    if (!body.ReadPod(&len)) return body.Corrupt("truncated section header");
    if (!body.CanHold(len, 1)) {
      return body.Corrupt("implausible section length " +
                          std::to_string(len));
    }
    section->resize(static_cast<size_t>(len));
    body.ReadBytes(section->data(), section->size());
  }
  BA_RETURN_NOT_OK(body.ExpectEnd());
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

  util::SealedFileWriter out(path, kBacl);
  BA_RETURN_NOT_OK(out.Open());
  for (const std::string* section : {&options_text, &params_image}) {
    BA_RETURN_NOT_OK(out.WritePod(static_cast<uint64_t>(section->size())));
    BA_RETURN_NOT_OK(out.Append(*section));
  }
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
  std::copy_n(mean->value.data(), dim, scaler_.mean.begin());
  std::copy_n(stddev->value.data(), dim, scaler_.stddev.begin());
  trained_ = true;
  return Status::OK();
}

Status BaClassifier::Load(const std::string& path) {
  BA_ASSIGN_OR_RETURN(const ContainerParts parts, ReadContainer(path));
  return InstallParameters(parts.params_image, path);
}

Result<std::unique_ptr<BaClassifier>> BaClassifier::FromCheckpoint(
    const std::string& path) {
  BA_ASSIGN_OR_RETURN(const ContainerParts parts, ReadContainer(path));
  BaClassifier::Options options;
  Status decoded = DecodeClassifierOptions(parts.options_text, &options);
  if (decoded.ok()) decoded = options.Validate();
  if (!decoded.ok()) {
    return Status::InvalidArgument(decoded.message() + ": " + kBacl.Name() +
                                   " " + path);
  }
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
