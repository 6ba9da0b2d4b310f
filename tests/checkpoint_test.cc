// Fault-injection and crash-safety tests for training checkpoints
// (src/core/checkpoint) and GraphModel resume: a save killed at any
// fault point leaves the previous checkpoint loadable, any single-byte
// corruption fails with a clean Status, and a training run killed at
// epoch k resumes to parameters bit-identical to an uninterrupted run.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/graph_dataset.h"
#include "core/graph_model.h"
#include "datagen/dataset.h"
#include "datagen/simulator.h"
#include "util/fs.h"

namespace ba::core {
namespace {

class TempPath {
 public:
  explicit TempPath(const std::string& name)
      : path_("/tmp/ba_ckpt_" + name + "_" + std::to_string(::getpid())) {}
  ~TempPath() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Temp directory for checkpoint_dir tests (removed with its contents).
class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_("/tmp/ba_ckptdir_" + name + "_" + std::to_string(::getpid())) {
    ::mkdir(path_.c_str(), 0755);
  }
  ~TempDir() {
    std::remove(CheckpointPath(path_).c_str());
    std::remove((CheckpointPath(path_) + ".tmp").c_str());
    ::rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

class FaultGuard {
 public:
  FaultGuard() { util::FaultInjector::Instance().DisarmAll(); }
  ~FaultGuard() { util::FaultInjector::Instance().DisarmAll(); }
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

/// A small synthetic training state: two parameters, an Adam optimizer
/// with populated moments, and an advanced RNG.
struct SyntheticState {
  std::vector<tensor::Var> params;
  std::unique_ptr<tensor::Adam> adam;
  Rng rng{7};

  explicit SyntheticState(float scale) {
    Rng init(5);
    params = {
        tensor::Param(tensor::Tensor::RandomNormal({3, 4}, &init, scale)),
        tensor::Param(tensor::Tensor::RandomNormal({2}, &init, scale))};
    adam = std::make_unique<tensor::Adam>(params, 1e-2f);
    // Two optimizer steps so both moment maps and the step counter are
    // non-trivial.
    for (int step = 0; step < 2; ++step) {
      for (auto& p : params) {
        p->grad = tensor::Tensor::Full(p->value.shape(), 0.5f);
        p->grad_ready = true;
      }
      adam->Step();
    }
    rng.Next();  // advance the stream off its seed position
  }
};

void ExpectTensorEq(const tensor::Tensor& a, const tensor::Tensor& b,
                    const std::string& what) {
  ASSERT_TRUE(a.SameShape(b)) << what;
  ASSERT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.numel()) * sizeof(float)),
            0)
      << what << ": payload differs";
}

TEST(TrainingCheckpointTest, RoundTripRestoresEverythingBitExactly) {
  SyntheticState original(1.0f);
  TempPath file("roundtrip");
  const auto ckpt = CaptureTrainingCheckpoint(original.params, *original.adam,
                                              original.rng, /*epoch=*/11);
  ASSERT_TRUE(SaveTrainingCheckpoint(ckpt, file.path()).ok());

  SyntheticState restored(3.0f);  // different values everywhere
  auto loaded = LoadTrainingCheckpoint(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  int epoch = 0;
  ASSERT_TRUE(RestoreTrainingCheckpoint(*loaded, restored.params,
                                        restored.adam.get(), &restored.rng,
                                        &epoch)
                  .ok());
  EXPECT_EQ(epoch, 11);
  EXPECT_EQ(restored.adam->step(), original.adam->step());
  for (size_t i = 0; i < original.params.size(); ++i) {
    ExpectTensorEq(restored.params[i]->value, original.params[i]->value,
                   "param " + std::to_string(i));
  }
  ASSERT_EQ(restored.adam->moments_m().size(),
            original.adam->moments_m().size());
  for (const auto& [index, t] : original.adam->moments_m()) {
    ExpectTensorEq(restored.adam->moments_m().at(index), t, "adam m");
  }
  for (const auto& [index, t] : original.adam->moments_v()) {
    ExpectTensorEq(restored.adam->moments_v().at(index), t, "adam v");
  }
  // The restored RNG continues the original stream bit-exactly.
  Rng original_copy(7);
  original_copy.Next();
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(restored.rng.Next(), original_copy.Next());
  }
}

TEST(TrainingCheckpointTest, KilledSaveAtEveryFaultPointKeepsPrevious) {
  FaultGuard guard;
  TempPath file("killed_save");
  SyntheticState old_state(1.0f);
  const auto old_ckpt = CaptureTrainingCheckpoint(
      old_state.params, *old_state.adam, old_state.rng, /*epoch=*/3);
  ASSERT_TRUE(SaveTrainingCheckpoint(old_ckpt, file.path()).ok());
  const std::string old_bytes = Slurp(file.path());

  SyntheticState new_state(2.0f);
  const auto new_ckpt = CaptureTrainingCheckpoint(
      new_state.params, *new_state.adam, new_state.rng, /*epoch=*/4);

  for (const std::string& point : util::AtomicFileWriter::FaultPoints()) {
    util::FaultInjector::Instance().Arm(point);
    const Status st = SaveTrainingCheckpoint(new_ckpt, file.path());
    EXPECT_FALSE(st.ok()) << "fault point " << point << " did not fire";
    util::FaultInjector::Instance().DisarmAll();
    // The previous checkpoint is byte-identical and still loads.
    EXPECT_EQ(Slurp(file.path()), old_bytes) << "after fault at " << point;
    auto reloaded = LoadTrainingCheckpoint(file.path());
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    EXPECT_EQ(reloaded->epoch, 3);
  }

  // Also kill each individual body write (header, tensors, moments,
  // trailer): every torn position must leave the old file intact.
  int write_calls = 0;
  {
    util::FaultInjector::Instance().DisarmAll();
    TempPath probe("probe");
    ASSERT_TRUE(SaveTrainingCheckpoint(new_ckpt, probe.path()).ok());
    write_calls = util::FaultInjector::Instance().HitCount(
        util::AtomicFileWriter::kFaultWrite);
    ASSERT_GT(write_calls, 10);
  }
  for (int nth = 1; nth <= write_calls; ++nth) {
    util::FaultInjector::Instance().DisarmAll();
    util::FaultInjector::Instance().Arm(util::AtomicFileWriter::kFaultWrite,
                                        nth);
    EXPECT_FALSE(SaveTrainingCheckpoint(new_ckpt, file.path()).ok());
    util::FaultInjector::Instance().DisarmAll();
    EXPECT_EQ(Slurp(file.path()), old_bytes) << "torn at write " << nth;
  }
  ASSERT_TRUE(LoadTrainingCheckpoint(file.path()).ok());

  // With no fault armed the replacement goes through.
  ASSERT_TRUE(SaveTrainingCheckpoint(new_ckpt, file.path()).ok());
  auto replaced = LoadTrainingCheckpoint(file.path());
  ASSERT_TRUE(replaced.ok());
  EXPECT_EQ(replaced->epoch, 4);
}

TEST(TrainingCheckpointTest, EverySingleByteFlipIsDetected) {
  TempPath file("byte_flip");
  SyntheticState state(1.0f);
  ASSERT_TRUE(SaveTrainingCheckpoint(
                  CaptureTrainingCheckpoint(state.params, *state.adam,
                                            state.rng, 1),
                  file.path())
                  .ok());
  const std::string good = Slurp(file.path());
  ASSERT_GT(good.size(), 50u);
  TempPath corrupt("byte_flip_bad");
  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    Spew(corrupt.path(), bad);
    const auto loaded = LoadTrainingCheckpoint(corrupt.path());
    EXPECT_FALSE(loaded.ok()) << "flip at byte " << i << " loaded silently";
  }
}

TEST(TrainingCheckpointTest, TruncationsFailCleanly) {
  TempPath file("trunc");
  SyntheticState state(1.0f);
  ASSERT_TRUE(SaveTrainingCheckpoint(
                  CaptureTrainingCheckpoint(state.params, *state.adam,
                                            state.rng, 1),
                  file.path())
                  .ok());
  const std::string good = Slurp(file.path());
  TempPath cut("trunc_cut");
  for (const size_t len :
       {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{8}, size_t{17},
        good.size() / 2, good.size() - 5, good.size() - 1}) {
    Spew(cut.path(), good.substr(0, len));
    const auto loaded = LoadTrainingCheckpoint(cut.path());
    EXPECT_FALSE(loaded.ok()) << "truncation to " << len << " bytes loaded";
  }
}

TEST(TrainingCheckpointTest, ArchitectureMismatchRejected) {
  TempPath file("arch");
  SyntheticState state(1.0f);
  ASSERT_TRUE(SaveTrainingCheckpoint(
                  CaptureTrainingCheckpoint(state.params, *state.adam,
                                            state.rng, 1),
                  file.path())
                  .ok());
  auto loaded = LoadTrainingCheckpoint(file.path());
  ASSERT_TRUE(loaded.ok());

  // Different parameter count.
  std::vector<tensor::Var> fewer{tensor::Param(tensor::Tensor({3, 4}))};
  tensor::Adam fewer_adam(fewer);
  Rng rng(1);
  int epoch = 0;
  EXPECT_FALSE(
      RestoreTrainingCheckpoint(*loaded, fewer, &fewer_adam, &rng, &epoch)
          .ok());

  // Same count, wrong shape.
  std::vector<tensor::Var> wrong{tensor::Param(tensor::Tensor({4, 3})),
                                 tensor::Param(tensor::Tensor({2}))};
  tensor::Adam wrong_adam(wrong);
  EXPECT_FALSE(
      RestoreTrainingCheckpoint(*loaded, wrong, &wrong_adam, &rng, &epoch)
          .ok());
}

/// Shared small economy for the GraphModel resume tests.
class GraphModelResumeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
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
    labeled = datagen::StratifiedSample(labeled, 60, &rng);

    GraphDatasetOptions opts;
    opts.construction.slice_size = 20;
    opts.k_hops = 2;
    samples_ = new std::vector<AddressSample>(
        BuildAddressSamples(simulator.ledger().Snapshot(), labeled, opts));
    ASSERT_GT(samples_->size(), 10u);
  }

  static void TearDownTestSuite() {
    delete samples_;
    samples_ = nullptr;
  }

  static GraphModelOptions BaseOptions() {
    GraphModelOptions o;
    o.encoder = GraphEncoderKind::kGfn;
    o.epochs = 4;
    o.hidden_dim = 16;
    o.embed_dim = 8;
    o.dropout = 0.1f;  // exercises the RNG stream during training
    o.seed = 3;
    return o;
  }

  static std::vector<float> Flatten(const GraphModel& model) {
    std::vector<float> out;
    for (const auto& p : model.Parameters()) {
      out.insert(out.end(), p->value.data(),
                 p->value.data() + p->value.numel());
    }
    return out;
  }

  static std::vector<AddressSample>* samples_;
};

std::vector<AddressSample>* GraphModelResumeTest::samples_ = nullptr;

TEST_F(GraphModelResumeTest, ResumedRunMatchesUninterruptedBitExactly) {
  // Baseline: 4 epochs in one go, no checkpointing.
  GraphModel baseline(BaseOptions());
  ASSERT_TRUE(baseline.Train(*samples_).ok());
  const std::vector<float> expected = Flatten(baseline);

  // Interrupted: run 2 of 4 epochs (the process then "dies")...
  TempDir dir("resume");
  GraphModelOptions first_half = BaseOptions();
  first_half.checkpoint_dir = dir.path();
  first_half.epochs = 2;
  {
    GraphModel partial(first_half);
    ASSERT_TRUE(partial.Train(*samples_).ok());
  }
  ASSERT_TRUE(util::FileExists(CheckpointPath(dir.path())));

  // ...and a fresh process resumes from the checkpoint to epoch 4.
  GraphModelOptions full = BaseOptions();
  full.checkpoint_dir = dir.path();
  GraphModel resumed(full);
  std::vector<EpochStat> history;
  ASSERT_TRUE(resumed.Train(*samples_, nullptr, &history).ok());
  ASSERT_EQ(history.size(), 2u);  // only epochs 3 and 4 ran
  EXPECT_EQ(history.front().epoch, 3);

  const std::vector<float> actual = Flatten(resumed);
  ASSERT_EQ(actual.size(), expected.size());
  ASSERT_EQ(std::memcmp(actual.data(), expected.data(),
                        actual.size() * sizeof(float)),
            0)
      << "resumed parameters diverge from the uninterrupted run";
}

TEST_F(GraphModelResumeTest, ThreadedResumeMatchesSerialBitExactly) {
  // The data-parallel Train path reduces per-example gradients in fixed
  // example order, so lane count must not affect the numbers: a run
  // killed after 2 epochs at 3 lanes and resumed at 2 lanes has to land
  // on the same parameters as an uninterrupted serial run.
  GraphModel baseline(BaseOptions());
  ASSERT_TRUE(baseline.Train(*samples_).ok());
  const std::vector<float> expected = Flatten(baseline);

  TempDir dir("resume_mt");
  GraphModelOptions first_half = BaseOptions();
  first_half.checkpoint_dir = dir.path();
  first_half.epochs = 2;
  first_half.num_threads = 3;
  {
    GraphModel partial(first_half);
    ASSERT_TRUE(partial.Train(*samples_).ok());
  }
  ASSERT_TRUE(util::FileExists(CheckpointPath(dir.path())));

  GraphModelOptions full = BaseOptions();
  full.checkpoint_dir = dir.path();
  full.num_threads = 2;
  GraphModel resumed(full);
  ASSERT_TRUE(resumed.Train(*samples_).ok());

  const std::vector<float> actual = Flatten(resumed);
  ASSERT_EQ(actual.size(), expected.size());
  ASSERT_EQ(std::memcmp(actual.data(), expected.data(),
                        actual.size() * sizeof(float)),
            0)
      << "threaded resume diverges from the serial uninterrupted run";
}

TEST_F(GraphModelResumeTest, FullyTrainedCheckpointShortCircuits) {
  TempDir dir("done");
  GraphModelOptions opts = BaseOptions();
  opts.checkpoint_dir = dir.path();
  GraphModel model(opts);
  ASSERT_TRUE(model.Train(*samples_).ok());
  const std::vector<float> after = Flatten(model);

  // Re-running Train resumes at epoch == epochs and changes nothing.
  GraphModel again(opts);
  ASSERT_TRUE(again.Train(*samples_).ok());
  EXPECT_EQ(Flatten(again), after);
}

TEST_F(GraphModelResumeTest, CorruptedCheckpointFailsTrainCleanly) {
  TempDir dir("corrupt");
  Spew(CheckpointPath(dir.path()), "BACKgarbage that is not a checkpoint");
  GraphModelOptions opts = BaseOptions();
  opts.checkpoint_dir = dir.path();
  GraphModel model(opts);
  const Status st = model.Train(*samples_);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(GraphModelResumeTest, KilledCheckpointSaveFailsTrainButKeepsPrior) {
  FaultGuard guard;
  TempDir dir("kill_during_train");
  GraphModelOptions opts = BaseOptions();
  opts.checkpoint_dir = dir.path();
  opts.epochs = 1;
  {
    GraphModel model(opts);
    ASSERT_TRUE(model.Train(*samples_).ok());
  }
  const std::string before = Slurp(CheckpointPath(dir.path()));

  opts.epochs = 2;
  for (const std::string& point : util::AtomicFileWriter::FaultPoints()) {
    util::FaultInjector::Instance().Arm(point);
    GraphModel model(opts);
    EXPECT_FALSE(model.Train(*samples_).ok())
        << "fault point " << point << " did not surface";
    util::FaultInjector::Instance().DisarmAll();
    EXPECT_EQ(Slurp(CheckpointPath(dir.path())), before)
        << "prior checkpoint damaged by fault at " << point;
  }
}

}  // namespace
}  // namespace ba::core
