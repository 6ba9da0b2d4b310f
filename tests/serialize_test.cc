// Tests for parameter checkpointing (src/tensor/serialize) and the
// BaClassifier save/load round trip.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/classifier.h"
#include "datagen/dataset.h"
#include "datagen/simulator.h"
#include "nn/linear.h"
#include "tensor/serialize.h"
#include "util/fs.h"

namespace ba::tensor {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_("/tmp/ba_ckpt_" + name + "_" + std::to_string(::getpid())) {}
  ~TempFile() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string Slurp(const std::string& path) {
  auto r = util::ReadFileToString(path);
  EXPECT_TRUE(r.ok());
  return r.ValueOr("");
}

void Spew(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
}

/// Bytes of a valid small v2 checkpoint (two tensors).
std::string SmallCheckpointBytes(const std::string& tag) {
  Rng rng(11);
  std::vector<Var> params{Param(Tensor::RandomNormal({2, 3}, &rng)),
                          Param(Tensor::RandomNormal({4}, &rng))};
  TempFile file(tag);
  EXPECT_TRUE(SaveParameters(params, file.path()).ok());
  return Slurp(file.path());
}

std::vector<Var> SmallCheckpointParams() {
  return {Param(Tensor({2, 3})), Param(Tensor({4}))};
}

TEST(SerializeTest, TensorRoundTrip) {
  Rng rng(1);
  std::vector<Var> params{Param(Tensor::RandomNormal({3, 4}, &rng)),
                          Param(Tensor::RandomNormal({1, 7}, &rng)),
                          Param(Tensor::Scalar(2.5f))};
  TempFile file("roundtrip");
  ASSERT_TRUE(SaveParameters(params, file.path()).ok());

  std::vector<Var> restored{Param(Tensor({3, 4})), Param(Tensor({1, 7})),
                            Param(Tensor())};
  ASSERT_TRUE(LoadParameters(restored, file.path()).ok());
  for (size_t p = 0; p < params.size(); ++p) {
    ASSERT_TRUE(params[p]->value.SameShape(restored[p]->value));
    for (int64_t i = 0; i < params[p]->value.numel(); ++i) {
      EXPECT_FLOAT_EQ(params[p]->value.data()[i],
                      restored[p]->value.data()[i]);
    }
  }
}

TEST(SerializeTest, ShapeMismatchRejected) {
  Rng rng(2);
  std::vector<Var> params{Param(Tensor::RandomNormal({3, 4}, &rng))};
  TempFile file("shape_mismatch");
  ASSERT_TRUE(SaveParameters(params, file.path()).ok());
  std::vector<Var> wrong_shape{Param(Tensor({4, 3}))};
  EXPECT_FALSE(LoadParameters(wrong_shape, file.path()).ok());
  std::vector<Var> wrong_count{Param(Tensor({3, 4})), Param(Tensor({1, 1}))};
  EXPECT_FALSE(LoadParameters(wrong_count, file.path()).ok());
}

TEST(SerializeTest, GarbageFileRejected) {
  TempFile file("garbage");
  {
    std::ofstream out(file.path());
    out << "this is not a checkpoint";
  }
  std::vector<Var> params{Param(Tensor({2, 2}))};
  EXPECT_FALSE(LoadParameters(params, file.path()).ok());
  EXPECT_EQ(LoadParameters(params, "/no/such/file.batn").code(),
            StatusCode::kNotFound);
}

TEST(SerializeTest, ModuleWeightsSurviveRoundTrip) {
  Rng rng(3);
  nn::Linear layer(5, 3, &rng);
  const Var x = Constant(Tensor::RandomNormal({2, 5}, &rng));
  const Tensor before = layer.Forward(x)->value;

  TempFile file("linear");
  ASSERT_TRUE(SaveParameters(layer.Parameters(), file.path()).ok());
  Rng rng2(99);  // different init
  nn::Linear restored(5, 3, &rng2);
  ASSERT_TRUE(LoadParameters(restored.Parameters(), file.path()).ok());
  const Tensor after = restored.Forward(x)->value;
  for (int64_t i = 0; i < before.numel(); ++i) {
    EXPECT_FLOAT_EQ(before.data()[i], after.data()[i]);
  }
}

template <typename T>
void AppendPod(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Hand-written checkpoint bytes: magic + version + count, then caller-
/// provided tensor records, sealed with a valid CRC32 trailer. Lets
/// corruption tests forge any header and still reach the body parser.
std::string ForgeCheckpoint(uint32_t version, uint64_t count,
                            const std::string& body) {
  std::string out = "BATN";
  AppendPod(&out, version);
  AppendPod(&out, count);
  out += body;
  AppendPod(&out, util::Crc32(out));
  return out;
}

/// One tensor record with the given header and `numel` float payload.
std::string TensorRecord(uint32_t rank, const std::vector<int64_t>& dims,
                         int64_t numel, float base) {
  std::string out;
  AppendPod(&out, rank);
  for (int64_t d : dims) AppendPod(&out, d);
  for (int64_t i = 0; i < numel; ++i) {
    AppendPod(&out, base + 0.5f * static_cast<float>(i));
  }
  return out;
}

TEST(SerializeTest, RetiredV1HeaderIsRejected) {
  // Version 1 (no CRC trailer) is no longer written or read.
  std::string bytes = "BATN";
  AppendPod(&bytes, uint32_t{1});
  AppendPod(&bytes, uint64_t{2});
  bytes += TensorRecord(2, {2, 3}, 6, 1.0f) + TensorRecord(1, {4}, 4, 100.0f);
  TempFile file("v1_retired");
  Spew(file.path(), bytes);
  auto params = SmallCheckpointParams();
  const Status st = LoadParameters(params, file.path());
  ASSERT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("unsupported checkpoint version 1"),
            std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find(file.path()), std::string::npos);
}

TEST(SerializeTest, EverySingleByteFlipIsRejected) {
  const std::string good = SmallCheckpointBytes("flip_src");
  ASSERT_GT(good.size(), 20u);
  TempFile file("flip");
  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    Spew(file.path(), bad);
    auto params = SmallCheckpointParams();
    EXPECT_FALSE(LoadParameters(params, file.path()).ok())
        << "flip at byte " << i << " loaded silently";
  }
}

TEST(SerializeTest, TruncationAtEveryLengthRejected) {
  const std::string good = SmallCheckpointBytes("trunc_src");
  TempFile file("trunc");
  for (size_t len = 0; len < good.size(); ++len) {
    Spew(file.path(), good.substr(0, len));
    auto params = SmallCheckpointParams();
    EXPECT_FALSE(LoadParameters(params, file.path()).ok())
        << "truncation to " << len << " bytes loaded";
  }
}

TEST(SerializeTest, CorruptHeadersRejectedWithDescriptiveErrors) {
  // Forged files, re-sealed with a valid CRC, exercise the plausibility
  // bounds directly: a bogus header value must fail by validation, not
  // by allocation.
  const std::string valid_body =
      TensorRecord(2, {2, 3}, 6, 0.0f) + TensorRecord(1, {4}, 4, 0.0f);
  struct Case {
    const char* name;
    std::string bytes;
    const char* expect;  // substring of the error message
  };
  const Case cases[] = {
      {"bad magic", "XXXX" + ForgeCheckpoint(2, 2, valid_body).substr(4),
       "not a BATN checkpoint"},
      {"unsupported version", ForgeCheckpoint(7, 2, valid_body),
       "unsupported checkpoint version"},
      {"absurd tensor count",
       ForgeCheckpoint(2, uint64_t{1} << 40, valid_body),
       "implausible tensor count"},
      {"tensor count mismatch", ForgeCheckpoint(2, 1, valid_body),
       "1 tensors, model has 2"},
      {"absurd rank",
       ForgeCheckpoint(2, 2, TensorRecord(200, {2, 3}, 6, 0.0f)),
       "implausible rank"},
      {"rank mismatch",
       ForgeCheckpoint(2, 2, TensorRecord(3, {2, 3, 1}, 6, 0.0f) +
                                 TensorRecord(1, {4}, 4, 0.0f)),
       "rank mismatch"},
      {"absurd dim",
       ForgeCheckpoint(2, 2,
                       TensorRecord(2, {2, int64_t{1} << 40}, 6, 0.0f)),
       "implausible dim"},
      {"negative dim",
       ForgeCheckpoint(2, 2, TensorRecord(2, {2, -3}, 6, 0.0f)),
       "implausible dim"},
      {"shape mismatch",
       ForgeCheckpoint(2, 2, TensorRecord(2, {3, 2}, 6, 0.0f) +
                                 TensorRecord(1, {4}, 4, 0.0f)),
       "shape mismatch"},
      {"truncated payload",
       ForgeCheckpoint(2, 2, TensorRecord(2, {2, 3}, 3, 0.0f)),
       "truncated payload"},
      {"truncated mid-header",
       ForgeCheckpoint(2, 2, valid_body.substr(0, 6)), "truncated header"},
      {"trailing garbage",
       ForgeCheckpoint(2, 2, valid_body + "extra bytes"),
       "trailing garbage"},
  };
  TempFile file("forged");
  for (const Case& c : cases) {
    Spew(file.path(), c.bytes);
    auto params = SmallCheckpointParams();
    const Status st = LoadParameters(params, file.path());
    EXPECT_FALSE(st.ok()) << c.name;
    EXPECT_NE(st.message().find(c.expect), std::string::npos)
        << c.name << ": got \"" << st.ToString() << "\"";
  }
}

TEST(SerializeTest, SaveIsAtomicUnderFaultInjection) {
  Rng rng(4);
  std::vector<Var> params{Param(Tensor::RandomNormal({3, 3}, &rng))};
  TempFile file("atomic");
  ASSERT_TRUE(SaveParameters(params, file.path()).ok());
  const std::string before = Slurp(file.path());
  for (const std::string& point : util::AtomicFileWriter::FaultPoints()) {
    util::FaultInjector::Instance().Arm(point);
    EXPECT_FALSE(SaveParameters(params, file.path()).ok());
    util::FaultInjector::Instance().DisarmAll();
    EXPECT_EQ(Slurp(file.path()), before) << "torn by fault at " << point;
  }
}

TEST(SerializeTest, BaClassifierSaveLoadPredictionsIdentical) {
  datagen::ScenarioConfig config;
  config.seed = 23;
  config.num_blocks = 100;
  config.num_retail_users = 30;
  config.miners_per_pool = 12;
  config.gamblers_per_house = 6;
  datagen::Simulator simulator(config);
  ASSERT_TRUE(simulator.Run().ok());
  auto labeled = simulator.CollectLabeledAddresses(3);
  Rng rng(1);
  const auto split = datagen::StratifiedSplit(labeled, 0.8, &rng);

  core::BaClassifier::Options opts;
  opts.graph_model.epochs = 4;
  opts.aggregator.epochs = 8;
  core::BaClassifier original(opts);
  ASSERT_TRUE(original.Train(simulator.ledger(), split.train).ok());

  TempFile file("baclassifier");
  ASSERT_TRUE(original.Save(file.path()).ok());

  core::BaClassifier restored(opts);
  ASSERT_TRUE(restored.Load(file.path()).ok());
  std::vector<int> p1, p2;
  ASSERT_TRUE(original.Predict(simulator.ledger(), split.test, &p1).ok());
  ASSERT_TRUE(restored.Predict(simulator.ledger(), split.test, &p2).ok());
  EXPECT_EQ(p1, p2);
}

TEST(SerializeTest, UntrainedClassifierCannotSave) {
  core::BaClassifier::Options opts;
  core::BaClassifier clf(opts);
  EXPECT_EQ(clf.Save("/tmp/never_written.batn").code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace ba::tensor
