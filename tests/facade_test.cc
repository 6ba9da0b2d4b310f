// Facade-level tests of the Status-first public API: Options::Validate
// surfaces descriptive errors, factories reject bad configurations, and
// misuse (untrained prediction, bad checkpoints) returns Status instead
// of aborting. No model training — these stay fast.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/classifier.h"
#include "datagen/simulator.h"
#include "util/status.h"

namespace ba::core {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_("/tmp/ba_facade_" + name + "_" + std::to_string(::getpid())) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(ValidateTest, DefaultsAreValid) {
  EXPECT_TRUE(BaClassifier::Options{}.Validate().ok());
  EXPECT_TRUE(GraphDatasetOptions{}.Validate().ok());
  EXPECT_TRUE(GraphModelOptions{}.Validate().ok());
  EXPECT_TRUE(AggregatorOptions{}.Validate().ok());
  EXPECT_TRUE(GraphConstructorOptions{}.Validate().ok());
}

TEST(ValidateTest, CrossStageKHopsMismatchIsNamed) {
  BaClassifier::Options opts;
  opts.dataset.k_hops = 3;
  opts.graph_model.k_hops = 2;
  const Status s = opts.Validate();
  ASSERT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("k_hops"), std::string::npos);
  EXPECT_NE(s.message().find("3"), std::string::npos);
}

TEST(ValidateTest, ConstructionFieldErrorsNameTheField) {
  GraphConstructorOptions c;
  c.slice_size = 0;
  EXPECT_NE(c.Validate().message().find("slice_size"), std::string::npos);

  c = GraphConstructorOptions{};
  c.similarity_threshold = -0.5;
  EXPECT_NE(c.Validate().message().find("similarity_threshold"),
            std::string::npos);

  c = GraphConstructorOptions{};
  c.max_txs_per_address = 0;
  EXPECT_NE(c.Validate().message().find("max_txs_per_address"),
            std::string::npos);
}

TEST(ValidateTest, ModelAndAggregatorFieldErrorsNameTheField) {
  GraphModelOptions m;
  m.embed_dim = 0;
  EXPECT_NE(m.Validate().message().find("embed_dim"), std::string::npos);

  m = GraphModelOptions{};
  m.dropout = 1.5f;
  EXPECT_NE(m.Validate().message().find("dropout"), std::string::npos);

  m = GraphModelOptions{};
  m.num_classes = 1;
  EXPECT_NE(m.Validate().message().find("num_classes"), std::string::npos);

  AggregatorOptions a;
  a.learning_rate = 0.0f;
  EXPECT_NE(a.Validate().message().find("learning_rate"),
            std::string::npos);
}

TEST(FacadeTest, CreateRejectsInvalidOptions) {
  BaClassifier::Options opts;
  opts.graph_model.hidden_dim = -1;
  const auto created = BaClassifier::Create(opts);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(created.status().message().find("hidden_dim"),
            std::string::npos);
}

TEST(FacadeTest, UntrainedMisuseReturnsFailedPrecondition) {
  datagen::ScenarioConfig config;
  config.seed = 5;
  config.num_blocks = 20;
  config.num_retail_users = 10;
  datagen::Simulator simulator(config);
  ASSERT_TRUE(simulator.Run().ok());
  const auto labeled = simulator.CollectLabeledAddresses(2);
  ASSERT_FALSE(labeled.empty());

  BaClassifier clf(BaClassifier::Options{});
  std::vector<int> predictions;
  EXPECT_EQ(clf.Predict(simulator.ledger(), labeled, &predictions).code(),
            StatusCode::kFailedPrecondition);
  metrics::ConfusionMatrix cm(4);
  EXPECT_EQ(clf.Evaluate(simulator.ledger(), labeled, &cm).code(),
            StatusCode::kFailedPrecondition);
  int predicted = -1;
  EXPECT_EQ(clf.PredictSample(AddressSample{}, &predicted).code(),
            StatusCode::kFailedPrecondition);

  // BuildSamples needs no trained weights — it must work untrained.
  std::vector<AddressSample> samples;
  ASSERT_TRUE(
      clf.BuildSamples(simulator.ledger(), labeled, &samples).ok());
  EXPECT_FALSE(samples.empty());
}

TEST(FacadeTest, OptionsCodecRoundTrips) {
  BaClassifier::Options opts;
  opts.dataset.construction.slice_size = 50;
  opts.dataset.construction.similarity_threshold = 0.75;
  opts.dataset.k_hops = 3;
  opts.graph_model.k_hops = 3;
  opts.graph_model.encoder = GraphEncoderKind::kGcn;
  opts.graph_model.embed_dim = 48;
  opts.aggregator.kind = AggregatorKind::kBiLstm;
  opts.aggregator.hidden_dim = 24;
  opts.seed = 99;

  const std::string text = EncodeClassifierOptions(opts);
  BaClassifier::Options decoded;
  ASSERT_TRUE(DecodeClassifierOptions(text, &decoded).ok());
  EXPECT_EQ(decoded.dataset.construction.slice_size, 50);
  EXPECT_DOUBLE_EQ(decoded.dataset.construction.similarity_threshold, 0.75);
  EXPECT_EQ(decoded.dataset.k_hops, 3);
  EXPECT_EQ(decoded.graph_model.encoder, GraphEncoderKind::kGcn);
  EXPECT_EQ(decoded.graph_model.embed_dim, 48);
  EXPECT_EQ(decoded.aggregator.kind, AggregatorKind::kBiLstm);
  EXPECT_EQ(decoded.aggregator.hidden_dim, 24);
  EXPECT_EQ(decoded.seed, 99u);
  EXPECT_TRUE(decoded.Validate().ok());
}

// NaN fails every comparison, so a range check written as `x < 0` lets
// it through to the first BA_CHECK that uses the value.
TEST(FacadeTest, OptionsRejectNanFromDecodedText) {
  // Each key, and the name its Validate message gives the field.
  const std::pair<const char*, const char*> fields[] = {
      {"dataset.construction.similarity_threshold",
       "construction.similarity_threshold"},
      {"graph_model.dropout", "graph_model.dropout"},
      {"graph_model.weight_decay", "graph_model.weight_decay"}};
  for (const auto& [key, name] : fields) {
    BaClassifier::Options decoded;
    ASSERT_TRUE(
        DecodeClassifierOptions(std::string(key) + "=nan\n", &decoded).ok())
        << key;
    const Status s = decoded.Validate();
    ASSERT_EQ(s.code(), StatusCode::kInvalidArgument) << key;
    EXPECT_NE(s.message().find(name), std::string::npos) << s.message();
  }
}

TEST(FacadeTest, OptionsCodecRejectsUnknownKeys) {
  BaClassifier::Options decoded;
  const Status s =
      DecodeClassifierOptions("nonsense_key=1\n", &decoded);
  ASSERT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("nonsense_key"), std::string::npos);
}

TEST(FacadeTest, OptionsCodecRejectsIntegersTheFieldCannotHold) {
  // 2^32 + 2 must not wrap to k_hops = 2 and load as a valid option.
  BaClassifier::Options decoded;
  const Status s =
      DecodeClassifierOptions("graph_model.k_hops=4294967298\n", &decoded);
  ASSERT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("out of range"), std::string::npos)
      << s.ToString();
}

TEST(FacadeTest, FromCheckpointRejectsMissingAndBogusFiles) {
  const auto missing = BaClassifier::FromCheckpoint("/tmp/ba_no_such_file");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  TempFile file("bogus");
  {
    std::ofstream out(file.path(), std::ios::binary);
    out << "this is not a checkpoint";
  }
  const auto bogus = BaClassifier::FromCheckpoint(file.path());
  EXPECT_EQ(bogus.status().code(), StatusCode::kInvalidArgument);

  // A legacy weights-only BATN file is recognized and explained.
  TempFile legacy("legacy");
  {
    std::ofstream out(legacy.path(), std::ios::binary);
    out << "BATN" << std::string(16, '\0');
  }
  const auto rejected = BaClassifier::FromCheckpoint(legacy.path());
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("legacy"), std::string::npos);
  BaClassifier loader{BaClassifier::Options{}};
  const Status load = loader.Load(legacy.path());
  ASSERT_FALSE(load.ok());
  EXPECT_NE(load.message().find("legacy"), std::string::npos);
}

}  // namespace
}  // namespace ba::core
