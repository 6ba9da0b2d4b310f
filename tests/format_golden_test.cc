// Golden byte-identity tests for every on-disk format: the BATN and
// BACK images of fixed synthetic tensors, the BACL options text, and
// the exported ledger and labels CSVs. Released files must load in
// every build and files a build writes must load in older ones, so
// format versions only change on purpose: a writer change that moves
// one byte fails here.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "chain/io.h"
#include "chain/ledger.h"
#include "core/checkpoint.h"
#include "core/classifier.h"
#include "datagen/dataset.h"
#include "tensor/serialize.h"
#include "util/fs.h"
#include "util/logging.h"
#include "util/status.h"

namespace ba {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_("/tmp/ba_golden_" + name + "_" + std::to_string(::getpid())) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string Slurp(const std::string& path) {
  auto r = util::ReadFileToString(path);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ValueOr("");
}

/// A tensor of `shape` holding `base + 0.25 * i` at flat index i: exact
/// in float, so the image does not depend on any RNG or float kernel.
tensor::Tensor Ramp(std::vector<int64_t> shape, float base) {
  tensor::Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = base + 0.25f * static_cast<float>(i);
  }
  return t;
}

struct Golden {
  size_t size;
  uint32_t crc;
};

void ExpectGolden(const std::string& bytes, const Golden& golden,
                  const char* what) {
  EXPECT_EQ(bytes.size(), golden.size) << what;
  EXPECT_EQ(util::Crc32(bytes), golden.crc)
      << what << ": crc32 0x" << std::hex << util::Crc32(bytes);
}

/// A sealed binary image without its CRC32 trailer. The CRC32 of a
/// whole sealed image is the CRC residue constant whatever the content,
/// so binary goldens pin the body instead.
std::string Body(const std::string& image) {
  EXPECT_GE(image.size(), sizeof(uint32_t));
  return image.substr(0, image.size() - sizeof(uint32_t));
}

TEST(FormatGoldenTest, BatnImageIsByteIdentical) {
  const std::vector<tensor::Var> params{
      tensor::Param(Ramp({2, 3}, -1.0f)), tensor::Param(Ramp({4}, 10.0f)),
      tensor::Param(tensor::Tensor::Scalar(2.5f))};
  const std::string image = tensor::SerializeParameters(params);
  ExpectGolden(Body(image), {96, 0x865a4c00}, "BATN image");

  TempFile file("batn");
  ASSERT_TRUE(tensor::SaveParameters(params, file.path()).ok());
  EXPECT_EQ(Slurp(file.path()), image);
}

TEST(FormatGoldenTest, BackImageIsByteIdentical) {
  core::TrainingCheckpoint ckpt;
  ckpt.epoch = 3;
  ckpt.rng.s[0] = 0x0123456789abcdefULL;
  ckpt.rng.s[1] = 42;
  ckpt.rng.s[2] = 7;
  ckpt.rng.s[3] = 0xfedcba9876543210ULL;
  ckpt.rng.gaussian_cached = true;
  ckpt.rng.gaussian_cache = -0.625;
  ckpt.adam_step = 17;
  ckpt.params = {Ramp({3, 2}, 0.5f), Ramp({5}, -2.0f)};
  ckpt.adam_m = {{0, Ramp({3, 2}, 0.125f)}, {1, Ramp({5}, 1.0f)}};
  ckpt.adam_v = {{1, Ramp({5}, 3.0f)}};

  TempFile file("back");
  ASSERT_TRUE(core::SaveTrainingCheckpoint(ckpt, file.path()).ok());
  ExpectGolden(Body(Slurp(file.path())), {289, 0xd1848b0c}, "BACK image");
}

/// The non-default option set of FacadeTest.OptionsCodecRoundTrips.
core::BaClassifier::Options NonDefaultOptions() {
  core::BaClassifier::Options opts;
  opts.dataset.construction.slice_size = 50;
  opts.dataset.construction.similarity_threshold = 0.75;
  opts.dataset.k_hops = 3;
  opts.graph_model.k_hops = 3;
  opts.graph_model.encoder = core::GraphEncoderKind::kGcn;
  opts.graph_model.embed_dim = 48;
  opts.aggregator.kind = core::AggregatorKind::kBiLstm;
  opts.aggregator.hidden_dim = 24;
  opts.seed = 99;
  return opts;
}

/// The default options text as written while BACL recorded the Stage 3
/// similarity backend: the writer's pinned text until that key was
/// retired, kept byte for byte as a decode fixture.
constexpr char kDefaultOptionsTextWithRetiredKey[] =
  "dataset.construction.slice_size=100\n"
  "dataset.construction.similarity_threshold=0.5\n"
  "dataset.construction.sigma=1\n"
  "dataset.construction.max_txs_per_address=2000\n"
  "dataset.construction.enable_single_compression=1\n"
  "dataset.construction.enable_multi_compression=1\n"
  "dataset.construction.enable_augmentation=1\n"
  "dataset.construction.use_sparse_similarity=0\n"
  "dataset.k_hops=2\n"
  "dataset.num_threads=1\n"
  "graph_model.encoder=0\n"
  "graph_model.num_classes=4\n"
  "graph_model.k_hops=2\n"
  "graph_model.hidden_dim=64\n"
  "graph_model.embed_dim=32\n"
  "graph_model.diffpool_clusters=8\n"
  "graph_model.dropout=0.100000001\n"
  "graph_model.epochs=20\n"
  "graph_model.batch_size=16\n"
  "graph_model.learning_rate=0.00100000005\n"
  "graph_model.weight_decay=0\n"
  "graph_model.seed=1\n"
  "graph_model.checkpoint_every=1\n"
  "aggregator.kind=0\n"
  "aggregator.embed_dim=32\n"
  "aggregator.hidden_dim=32\n"
  "aggregator.mlp_hidden=32\n"
  "aggregator.num_classes=4\n"
  "aggregator.epochs=30\n"
  "aggregator.batch_size=16\n"
  "aggregator.learning_rate=0.00100000005\n"
  "aggregator.seed=7\n"
  "seed=1\n";

/// `text` with the retired key set to `value`, on the line where older
/// writers put it: right after `enable_augmentation`.
std::string WithRetiredKey(const std::string& text, const char* value) {
  const std::string after = "dataset.construction.enable_augmentation=1\n";
  const size_t at = text.find(after);
  EXPECT_NE(at, std::string::npos);
  std::string out = text;
  out.insert(at + after.size(),
             std::string("dataset.construction.use_sparse_similarity=") +
                 value + "\n");
  return out;
}

TEST(FormatGoldenTest, DefaultOptionsTextIsPinned) {
  const std::string text =
      core::EncodeClassifierOptions(core::BaClassifier::Options{});
  ExpectGolden(text, {912, 0x7c177843}, "default options text");
  EXPECT_EQ(WithRetiredKey(text, "0"), kDefaultOptionsTextWithRetiredKey);
}

TEST(FormatGoldenTest, NonDefaultOptionsTextIsPinned) {
  const std::string text = core::EncodeClassifierOptions(NonDefaultOptions());
  ExpectGolden(text, {913, 0x274dfc0d}, "options text");
  // The golden of the text older writers produced for the same options
  // (with the retired key set): the removed line is the only change.
  ExpectGolden(WithRetiredKey(text, "1"), {958, 0x60e79ff9},
               "options text with the retired key");
}

// Checkpoints written while BACL recorded the similarity backend still
// load, to the options the current writer encodes as the same text.
TEST(FormatGoldenTest, OptionsTextWithRetiredKeyDecodes) {
  const std::string new_default =
      core::EncodeClassifierOptions(core::BaClassifier::Options{});
  const std::string new_non_default =
      core::EncodeClassifierOptions(NonDefaultOptions());
  const std::pair<std::string, std::string> cases[] = {
      {kDefaultOptionsTextWithRetiredKey, new_default},
      {WithRetiredKey(new_default, "1"), new_default},
      {WithRetiredKey(new_non_default, "1"), new_non_default},
      {WithRetiredKey(new_non_default, "0"), new_non_default}};
  for (const auto& [old_text, new_text] : cases) {
    core::BaClassifier::Options from_old;
    ASSERT_TRUE(core::DecodeClassifierOptions(old_text, &from_old).ok());
    EXPECT_EQ(core::EncodeClassifierOptions(from_old), new_text);
    EXPECT_TRUE(from_old.Validate().ok());
  }
}

TEST(FormatGoldenTest, RetiredOptionKeyStillNeedsABool) {
  for (const char* value : {"2", "", "true", "nan"}) {
    core::BaClassifier::Options decoded;
    const Status s = core::DecodeClassifierOptions(
        WithRetiredKey(
            core::EncodeClassifierOptions(core::BaClassifier::Options{}),
            value),
        &decoded);
    ASSERT_EQ(s.code(), StatusCode::kInvalidArgument) << value;
    EXPECT_NE(s.message().find("use_sparse_similarity"), std::string::npos)
        << s.message();
  }
}

/// The two-block ledger of LedgerIoTest (one coinbase, one spend).
chain::Ledger TinyLedger() {
  constexpr chain::Amount kCoin = 100'000'000;
  chain::Ledger ledger(chain::LedgerOptions{.block_subsidy = 10 * kCoin});
  const chain::AddressId a = ledger.NewAddress();
  const chain::AddressId b = ledger.NewAddress();
  auto cb = ledger.ApplyCoinbase(1, a);
  BA_CHECK(cb.ok());
  BA_CHECK(ledger.SealBlock(1).ok());
  chain::TxDraft draft;
  draft.timestamp = 2;
  draft.inputs = {chain::OutPoint{cb.value(), 0}};
  draft.outputs = {{b, 10 * kCoin}};
  BA_CHECK(ledger.ApplyTransaction(draft).ok());
  BA_CHECK(ledger.SealBlock(2).ok());
  return ledger;
}

TEST(FormatGoldenTest, LedgerCsvIsByteIdentical) {
  TempFile file("ledger");
  ASSERT_TRUE(chain::ExportLedgerCsv(TinyLedger(), file.path()).ok());
  ExpectGolden(Slurp(file.path()), {95, 0x66ad9d3b}, "ledger CSV");
}

TEST(FormatGoldenTest, LabelsCsvIsByteIdentical) {
  const std::vector<datagen::LabeledAddress> labels{
      {1, datagen::BehaviorLabel::kExchange},
      {7, datagen::BehaviorLabel::kMining},
      {9, datagen::BehaviorLabel::kService}};
  TempFile file("labels");
  ASSERT_TRUE(datagen::ExportLabelsCsv(labels, file.path()).ok());
  ExpectGolden(Slurp(file.path()), {61, 0x10f3c43a}, "labels CSV");
}

}  // namespace
}  // namespace ba
