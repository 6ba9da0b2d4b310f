// Seeded mutation fuzzing of every on-disk loader: the BATN, BACK and
// BACL checkpoints, the BASV serve cache (through InferenceEngine::
// Create), and the ledger and labels CSVs.
//
// Each case starts from a valid file and applies one to three seeded
// mutations: bit flips, byte inserts, deletes, truncations, and 4- or
// 8-byte fields overwritten with 0, -1, 2^31 or 2^63, and decimal
// numbers replaced by the same values (or 999999999). The mutated file
// is then re-sealed with a correct CRC32 trailer, so the mutation gets
// past the integrity check and reaches the body parser. Every load must
// return OK or an InvalidArgument that names the file; none may abort,
// hang or trip a sanitizer.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "chain/io.h"
#include "core/checkpoint.h"
#include "core/classifier.h"
#include "datagen/dataset.h"
#include "datagen/simulator.h"
#include "serve/inference_engine.h"
#include "tensor/serialize.h"
#include "util/fs.h"
#include "util/rng.h"

namespace ba {
namespace {

constexpr int kCasesPerFormat = 400;

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_("/tmp/ba_fuzz_" + name + "_" + std::to_string(::getpid())) {}
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

void Spew(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
}

/// Overwrites a `width`-byte field at a random offset with one of the
/// boundary values a corrupted count or length most often takes.
void SetField(std::string* bytes, size_t width, Rng* rng) {
  if (bytes->size() < width) return;
  const uint64_t values[] = {0, ~uint64_t{0}, uint64_t{1} << 31,
                             uint64_t{1} << 63};
  const uint64_t value = values[rng->UniformInt(width == 8 ? 4 : 3)];
  const size_t pos = rng->UniformInt(bytes->size() - width + 1);
  std::memcpy(bytes->data() + pos, &value, width);  // little-endian low bytes
}

/// Replaces a random run of ASCII digits with one of the same boundary
/// values in decimal, plus 999999999: the text form of a corrupted
/// count, which reaches the options, ledger and labels parsers.
void SetNumber(std::string* bytes, Rng* rng) {
  const auto is_digit = [&](size_t i) {
    return (*bytes)[i] >= '0' && (*bytes)[i] <= '9';
  };
  std::vector<size_t> runs;
  for (size_t i = 0; i < bytes->size(); ++i) {
    if (is_digit(i) && (i == 0 || !is_digit(i - 1))) runs.push_back(i);
  }
  if (runs.empty()) return;
  const size_t pos = runs[rng->UniformInt(runs.size())];
  size_t end = pos;
  while (end < bytes->size() && is_digit(end)) ++end;
  const char* values[] = {"0", "-1", "2147483648", "9223372036854775808",
                          "999999999"};
  bytes->replace(pos, end - pos, values[rng->UniformInt(5)]);
}

/// Applies one to three seeded mutations to `bytes`.
std::string Mutate(std::string bytes, Rng* rng) {
  const uint64_t mutations = 1 + rng->UniformInt(3);
  for (uint64_t m = 0; m < mutations; ++m) {
    const size_t size = bytes.size();
    switch (rng->UniformInt(7)) {
      case 0:  // flip one bit
        if (size > 0) {
          bytes[rng->UniformInt(size)] ^=
              static_cast<char>(1u << rng->UniformInt(8));
        }
        break;
      case 1: {  // insert 1-4 random bytes
        std::string extra(1 + rng->UniformInt(4), '\0');
        for (char& c : extra) c = static_cast<char>(rng->UniformInt(256));
        bytes.insert(rng->UniformInt(size + 1), extra);
        break;
      }
      case 2:  // delete 1-8 bytes
        if (size > 0) {
          const size_t pos = rng->UniformInt(size);
          bytes.erase(pos, 1 + rng->UniformInt(8));
        }
        break;
      case 3:  // truncate
        bytes.resize(rng->UniformInt(size + 1));
        break;
      case 4:
        SetField(&bytes, 4, rng);
        break;
      case 5:
        SetField(&bytes, 8, rng);
        break;
      case 6:
        SetNumber(&bytes, rng);
        break;
    }
  }
  return bytes;
}

/// A sealed binary image without its CRC32 trailer.
std::string Unseal(const std::string& image) {
  return image.substr(0, image.size() - sizeof(uint32_t));
}

/// Closes mutated binary content with the CRC32 of every byte.
std::string SealBinary(std::string content) {
  util::AppendPod(&content, util::Crc32(content));
  return content;
}

/// A sealed text file without its `# crc32,` trailer line.
std::string UnsealText(const std::string& text) {
  return text.substr(0, text.rfind("# crc32,"));
}

/// Closes mutated text with a correct `# crc32,` trailer line. The
/// trailer CRC covers each line plus its '\n', so a last line cut
/// mid-way gets its newline back first.
std::string SealText(std::string text) {
  if (!text.empty() && text.back() != '\n') text.push_back('\n');
  char trailer[32];
  std::snprintf(trailer, sizeof(trailer), "# crc32,%08x\n",
                util::Crc32(text));
  return text + trailer;
}

using Sealer = std::function<std::string(std::string)>;
using Loader = std::function<Status(const std::string& path)>;

/// Runs `cases` mutations of `content` through `load`.
/// `seal(content)` must reproduce the valid file. With
/// `crc_must_pass`, no rejection may come from a CRC check, which shows
/// the re-seal let every mutation through to the body parser.
void FuzzLoader(const std::string& name, const std::string& content,
                const Sealer& seal, const Loader& load, bool crc_must_pass,
                uint64_t seed, int cases = kCasesPerFormat) {
  TempFile file(name);
  Spew(file.path(), seal(content));
  const Status baseline = load(file.path());
  ASSERT_TRUE(baseline.ok()) << name << " baseline: " << baseline.ToString();

  Rng rng(seed);
  int rejected = 0;
  for (int c = 0; c < cases; ++c) {
    Spew(file.path(), seal(Mutate(content, &rng)));
    const Status st = load(file.path());
    if (st.ok()) continue;
    ++rejected;
    ASSERT_EQ(st.code(), StatusCode::kInvalidArgument)
        << name << " case " << c << ": " << st.ToString();
    ASSERT_NE(st.message().find(file.path()), std::string::npos)
        << name << " case " << c << " does not name the file: "
        << st.ToString();
    if (crc_must_pass) {
      ASSERT_EQ(st.message().find("crc32 mismatch"), std::string::npos)
          << name << " case " << c << ": " << st.ToString();
    }
  }
  EXPECT_GT(rejected, 0) << name << ": no mutation was rejected";
  std::printf("%s: %d of %d mutations rejected\n", name.c_str(), rejected,
              cases);
}

/// One small economy, a classifier trained on it, and the engine
/// options every BASV case loads through.
class LoaderFuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::ScenarioConfig config;
    config.seed = 31;
    config.num_blocks = 30;
    config.num_retail_users = 12;
    config.miners_per_pool = 4;
    config.gamblers_per_house = 3;
    simulator_ = new datagen::Simulator(config);
    ASSERT_TRUE(simulator_->Run().ok());
    labeled_ = new std::vector<datagen::LabeledAddress>(
        simulator_->CollectLabeledAddresses(2));

    core::BaClassifier::Options opts;
    opts.dataset.construction.slice_size = 20;
    opts.graph_model.epochs = 1;
    opts.graph_model.hidden_dim = 8;
    opts.graph_model.embed_dim = 4;
    opts.aggregator.hidden_dim = 4;
    opts.aggregator.mlp_hidden = 4;
    opts.aggregator.epochs = 1;
    auto created = core::BaClassifier::Create(opts);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    classifier_ = created.value().release();
    ASSERT_TRUE(classifier_->Train(simulator_->ledger(), *labeled_).ok());
  }

  static void TearDownTestSuite() {
    delete classifier_;
    delete labeled_;
    delete simulator_;
  }

  static datagen::Simulator* simulator_;
  static std::vector<datagen::LabeledAddress>* labeled_;
  static core::BaClassifier* classifier_;
};

datagen::Simulator* LoaderFuzzTest::simulator_ = nullptr;
std::vector<datagen::LabeledAddress>* LoaderFuzzTest::labeled_ = nullptr;
core::BaClassifier* LoaderFuzzTest::classifier_ = nullptr;

/// Copies of the trained encoder's parameters, safe to overwrite.
std::vector<tensor::Var> ParameterCopies(const core::BaClassifier& clf) {
  std::vector<tensor::Var> copies;
  for (const auto& p : clf.graph_model().Parameters()) {
    copies.push_back(tensor::Param(p->value));
  }
  return copies;
}

TEST_F(LoaderFuzzTest, BatnParameters) {
  const auto params = ParameterCopies(*classifier_);
  FuzzLoader(
      "batn", Unseal(tensor::SerializeParameters(params)), SealBinary,
      [&](const std::string& path) {
        return tensor::LoadParameters(params, path);
      },
      /*crc_must_pass=*/true, 1);
}

TEST_F(LoaderFuzzTest, BackTrainingCheckpoint) {
  const auto params = ParameterCopies(*classifier_);
  tensor::Adam adam(params, 1e-2f);
  for (const auto& p : params) {
    p->grad = tensor::Tensor::Full(p->value.shape(), 0.5f);
    p->grad_ready = true;
  }
  adam.Step();
  tensor::ZeroGrad(params);
  TempFile file("back_src");
  ASSERT_TRUE(core::SaveTrainingCheckpoint(
                  core::CaptureTrainingCheckpoint(params, adam, Rng(3), 2),
                  file.path())
                  .ok());
  FuzzLoader(
      "back", Unseal(Slurp(file.path())), SealBinary,
      [](const std::string& path) {
        return core::LoadTrainingCheckpoint(path).status();
      },
      /*crc_must_pass=*/true, 2);
}

TEST_F(LoaderFuzzTest, BaclClassifierCheckpoint) {
  TempFile file("bacl_src");
  ASSERT_TRUE(classifier_->Save(file.path()).ok());
  // The embedded BATN image keeps its own CRC, so a mutation inside it
  // may still be rejected by that inner check.
  FuzzLoader(
      "bacl", Unseal(Slurp(file.path())), SealBinary,
      [](const std::string& path) {
        return core::BaClassifier::FromCheckpoint(path).status();
      },
      /*crc_must_pass=*/false, 3);
}

TEST_F(LoaderFuzzTest, BaclOptionsSection) {
  // Mutates only the embedded options text and rebuilds the container
  // around it, so every case reaches the options decoder, Validate()
  // and the model construction that sizes itself from the options.
  TempFile file("bacl_options_src");
  ASSERT_TRUE(classifier_->Save(file.path()).ok());
  const std::string image = Slurp(file.path());
  const size_t kHeader = 8;  // magic + version
  uint64_t options_len = 0;
  std::memcpy(&options_len, image.data() + kHeader, sizeof(options_len));
  const size_t options_at = kHeader + sizeof(options_len);
  const std::string options = image.substr(options_at, options_len);
  const std::string params_section =
      Unseal(image).substr(options_at + options_len);
  FuzzLoader(
      "bacl_options", options,
      [&](std::string text) {
        std::string content = image.substr(0, kHeader);
        util::AppendPod(&content, static_cast<uint64_t>(text.size()));
        return SealBinary(content + text + params_section);
      },
      [](const std::string& path) {
        return core::BaClassifier::FromCheckpoint(path).status();
      },
      /*crc_must_pass=*/true, 7, /*cases=*/2000);
}

TEST_F(LoaderFuzzTest, BasvServeCache) {
  TempFile file("basv_src");
  serve::InferenceEngineOptions options;
  options.num_threads = 0;
  options.cache_path = file.path();
  {
    auto engine = serve::InferenceEngine::Create(
        classifier_, &simulator_->ledger(), options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    for (size_t i = 0; i < labeled_->size() && i < 6; ++i) {
      ASSERT_TRUE((*engine)->Classify((*labeled_)[i].address).ok());
    }
    ASSERT_TRUE((*engine)->SaveCache().ok());
  }
  FuzzLoader(
      "basv", Unseal(Slurp(file.path())), SealBinary,
      [&](const std::string& path) {
        serve::InferenceEngineOptions load_options = options;
        load_options.cache_path = path;
        return serve::InferenceEngine::Create(
                   classifier_, &simulator_->ledger(), load_options)
            .status();
      },
      /*crc_must_pass=*/true, 4);
}

TEST_F(LoaderFuzzTest, LedgerCsv) {
  TempFile file("ledger_src");
  ASSERT_TRUE(chain::ExportLedgerCsv(simulator_->ledger(), file.path()).ok());
  FuzzLoader(
      "ledger", UnsealText(Slurp(file.path())), SealText,
      [](const std::string& path) {
        return chain::ImportLedgerCsv(path).status();
      },
      /*crc_must_pass=*/true, 5);
}

TEST_F(LoaderFuzzTest, LabelsCsv) {
  TempFile file("labels_src");
  ASSERT_TRUE(datagen::ExportLabelsCsv(*labeled_, file.path()).ok());
  FuzzLoader(
      "labels", UnsealText(Slurp(file.path())), SealText,
      [](const std::string& path) {
        return datagen::ImportLabelsCsv(path).status();
      },
      /*crc_must_pass=*/true, 6);
}

}  // namespace
}  // namespace ba
