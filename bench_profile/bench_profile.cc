// bench_profile: the repository benchmark. One binary, five workloads
// over the whole serving/training stack, end-to-end metrics from an
// untraced run and a per-layer profile from a traced run.
//
//   bench_profile --workload <name> [--seed 42] [--seconds 16]
//       [--trace 0|1] [--trace-out <perfetto.json>]
//   bench_profile --smoke
//
// Workloads (see README.md for why each exists):
//   hot_poll     3 closed-loop clients poll 512 warm watched addresses
//   cold_scan    3 clients share a cursor over every >=2-tx address;
//                the cache is cleared before every pass
//   grow_poll    hot_poll, where one client is also the ledger's writer:
//                every 50 answers it seals a block paying the next
//                watched address
//   wire         hot_poll's list over net::Server on loopback, 3
//                net::Client connections pipelining 8 requests each
//   train_epoch  GraphModel::Train (3 lanes) over every labeled graph,
//                one call per 64-graph step group
//
// Every workload first builds the same set-up (the simulated chain, the
// classifier, the engine with ba_serve's defaults) three times and
// reports the median as `setup_s`. The chain and the model are fixed;
// --seed chooses the traffic over them. After an untimed warm-up run of
// the workload itself, the timed run lasts --seconds. Only public
// library APIs are called; every layer is measured from outside by
// timing calls into it.
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the
// per-layer metrics: it runs the workload untraced and then traced
// (the qps difference is `trace_overhead_frac`), replays the workload's
// requests one at a time through the public layer functions inside
// `bench.layer.*` spans, and writes the Perfetto trace to --trace-out.
// The last line of standard output is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// Any wrong answer or non-OK outcome makes the run exit 1; a run too
// short to support its metrics prints no result and exits 2.
//
// --smoke runs all five workloads, untraced and traced, at toy size with
// every correctness check on, and exits 0 only if every answer was
// right.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "chain/ledger.h"
#include "core/classifier.h"
#include "core/gfn_features.h"
#include "core/graph_builder.h"
#include "datagen/dataset.h"
#include "datagen/simulator.h"
#include "latency_recorder.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/trace.h"
#include "serve/inference_engine.h"
#include "serve/protocol.h"
#include "tensor/gemm.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using Clock = std::chrono::steady_clock;
using ba::bench::LatencyRecorder;

// ---------------------------------------------------------------------
// Fixed sizes. The full sizes define the benchmark; the smoke sizes
// only exercise every code path and check answers.

struct Sizes {
  int blocks;           ///< simulated economy length
  int train_addresses;  ///< stratified classifier training sample
  int hot_addresses;    ///< watched list of hot_poll / grow_poll / wire
  int setups;           ///< set-ups per run (setup_s is their median)
  int replays;          ///< replayed requests per traced run
  int seal_probes;      ///< timed seals per traced run
  int train_probe_epochs;
  double warmup_seconds;  ///< untimed run of the workload before timing
};

constexpr Sizes kFull{2000, 300, 512, 3, 1100, 1100, 4, 2.0};
constexpr Sizes kSmoke{150, 120, 48, 1, 40, 40, 2, 0.2};
constexpr double kSmokeSeconds = 0.4;  ///< --smoke's timed run per workload

constexpr uint64_t kEconomySeed = 42;  ///< the simulated chain's seed
constexpr int kClients = 3;          ///< load-generator threads
constexpr int kTrainLanes = 3;       ///< GraphModel::Train lanes
constexpr int kSliceSize = 20;       ///< ba_serve's serving slice
constexpr int kWireWindow = 8;       ///< pipelined requests per connection
constexpr int kStepGraphs = 64;      ///< graphs per train_epoch Train call
constexpr int kVerifySteps = 4;      ///< lane-determinism check length
constexpr int kPayStride = 37;       ///< grow_poll payee stride
constexpr int kReadsPerSeal = 50;    ///< grow_poll's writer cadence
constexpr size_t kEpochChecks = 1000;  ///< grow_poll answers re-derived
constexpr auto kWindow = std::chrono::seconds(1);  ///< serving windows
constexpr size_t kTraceCapacity = 1 << 15;  ///< events per thread

const char* const kWorkloads[] = {"hot_poll", "cold_scan", "grow_poll",
                                  "wire", "train_epoch"};

int64_t NsSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

Clock::time_point After(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------
// Report: what one run prints.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Harness errors (a percentile without enough samples, a non-finite
  /// value): the run is invalid rather than the program wrong, and
  /// prints no result.
  std::vector<std::string> errors;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      errors.push_back(name + " is not finite");
      return;
    }
    metrics.push_back({name, value, unit});
  }

  /// Adds recorder `rec`'s p-th percentile in microseconds (recorded in
  /// nanoseconds), or records an error when it lacks the samples.
  void AddPercentileUs(const std::string& name, const LatencyRecorder& rec,
                       double p) {
    const auto v = rec.Percentile(p);
    if (!v) {
      errors.push_back(name + ": " + std::to_string(rec.count()) +
                       " samples are too few");
      return;
    }
    Add(name, *v / 1e3, "us");
  }

  bool correct() const { return failed == 0; }
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out;
}

std::string FormatNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ReportJson(const Report& r) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct() ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    os << (i == 0 ? "" : ", ") << "\"" << JsonEscape(m.name)
       << "\": {\"value\": " << FormatNumber(m.value) << ", \"unit\": \""
       << JsonEscape(m.unit) << "\"}";
  }
  os << "}}";
  return os.str();
}

int AffinityCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

/// The CPU "model name" from /proc/cpuinfo (bench_common.h reads it the
/// same way; the benchmark depends on the library alone).
std::string CpuModel() {
  FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[512];
  std::string model = "unknown";
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) != 0) continue;
    const char* colon = std::strchr(line, ':');
    if (colon == nullptr) continue;
    model = colon + 1;
    model.erase(0, model.find_first_not_of(" \t"));
    model.erase(model.find_last_not_of(" \t\n") + 1);
    break;
  }
  std::fclose(f);
  return model;
}

/// Provenance of one run, one JSON line (strings escaped).
std::string MetaJson(const std::string& workload, uint64_t seed,
                     double seconds, bool trace) {
  std::ostringstream os;
  os << "{\"bench\": \"bench_profile\", \"workload\": \""
     << JsonEscape(workload) << "\", \"seed\": " << seed
     << ", \"seconds\": " << seconds << ", \"trace\": " << (trace ? 1 : 0)
     << ", \"load_threads\": " << kClients
     << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"affinity_cores\": " << AffinityCores()
     << ", \"shared_pool_threads\": " << ba::util::SharedPoolThreads()
     << ", \"cpu_model\": \"" << JsonEscape(CpuModel())
     << "\", \"gemm_variant\": \""
     << JsonEscape(ba::tensor::internal::GemmVariantName()) << "\"}";
  return os.str();
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------
// Set-up: economy, classifier, engine, and the workload's own inputs.

struct Setup {
  std::unique_ptr<ba::datagen::Simulator> sim;
  std::unique_ptr<ba::core::BaClassifier> classifier;
  std::unique_ptr<ba::serve::InferenceEngine> engine;
  /// Declared after the engine it serves, so it is destroyed first.
  std::unique_ptr<ba::net::Server> server;
  /// The classifier's stratified training sample.
  std::vector<ba::datagen::LabeledAddress> train_split;
  /// Watched list: hot_poll / grow_poll / wire (>= 3 txs each).
  std::vector<ba::datagen::LabeledAddress> hot;
  /// Every labeled address with >= 2 txs, in ledger order.
  std::vector<ba::datagen::LabeledAddress> labeled;
  /// The same addresses in seeded order; the traced replay of a miss
  /// workload samples its first ones.
  std::vector<ba::datagen::LabeledAddress> scan;
  /// train_epoch: the graph samples of every address in `labeled`.
  std::vector<ba::core::AddressSample> train_samples;
  double build_seconds = 0.0;

  const ba::chain::Ledger& ledger() const { return sim->ledger(); }
};

ba::datagen::ScenarioConfig Economy(const Sizes& sizes) {
  // The bench suite's standard population (bench_common.h
  // ScenarioFromFlags), written out so the benchmark does not move when
  // those defaults do.
  ba::datagen::ScenarioConfig config;
  config.seed = kEconomySeed;
  config.num_blocks = sizes.blocks;
  config.behavior_noise = 0.12;
  config.num_mining_pools = 2;
  config.miners_per_pool = 30;
  config.num_exchanges = 3;
  config.num_gambling_houses = 2;
  config.gamblers_per_house = 70;
  config.num_services = 5;
  config.num_retail_users = 180;
  config.mixes_per_block = 0.35;
  config.mix_fresh_entry_prob = 0.4;
  return config;
}

ba::serve::InferenceEngineOptions ServeDefaults() {
  // ba_serve's defaults, so the numbers describe the deployed engine.
  ba::serve::InferenceEngineOptions o;
  o.num_threads = 2;
  o.enable_admission = true;
  o.admission.max_inflight = 1024;
  o.admission.high_watermark = 256;
  o.admission.low_watermark = 64;
  o.flight_recorder_capacity = 1024;
  o.slow_request_threshold = 0.0;
  return o;
}

std::unique_ptr<Setup> BuildSetup(const std::string& workload, uint64_t seed,
                                  const Sizes& sizes) {
  const auto t0 = Clock::now();
  auto s = std::make_unique<Setup>();
  s->sim = std::make_unique<ba::datagen::Simulator>(Economy(sizes));
  BA_CHECK_OK(s->sim->Run());

  // The chain and the model are the same in every run; --seed chooses
  // the traffic over them: the watched list and the request orders.
  ba::Rng model_rng(kEconomySeed ^ 0xBEEF);
  s->labeled = s->sim->CollectLabeledAddresses(/*min_txs=*/2);
  s->train_split = ba::datagen::StratifiedSample(
      s->labeled, sizes.train_addresses, &model_rng);
  s->scan = s->labeled;
  ba::Rng traffic(seed);
  traffic.Shuffle(&s->scan);
  // The watched list is stratified by history length — one address
  // from each of `hot_addresses` equal slices of the >= 3-tx addresses
  // ordered by tx count — so every seed watches the same mix of small
  // and large histories, in its own order.
  std::vector<std::pair<size_t, ba::datagen::LabeledAddress>> candidates;
  for (const auto& a : s->labeled) {
    const size_t txs = s->ledger().TxCountOf(a.address);
    if (txs >= 3) candidates.emplace_back(txs, a);
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  const size_t n = candidates.size();
  const auto k = static_cast<size_t>(sizes.hot_addresses);
  BA_CHECK_GE(n, k);
  for (size_t j = 0; j < k; ++j) {
    const size_t lo = j * n / k;
    const size_t hi = (j + 1) * n / k;
    s->hot.push_back(candidates[lo + traffic.UniformInt(hi - lo)].second);
  }
  traffic.Shuffle(&s->hot);

  ba::core::BaClassifier::Options options;
  options.dataset.construction.slice_size = kSliceSize;
  options.graph_model.epochs = 2;
  options.aggregator.epochs = 6;
  auto created = ba::core::BaClassifier::Create(options);
  BA_CHECK_OK(created.status());
  s->classifier = std::move(created).value();
  BA_CHECK_OK(s->classifier->Train(s->ledger(), s->train_split));

  auto engine = ba::serve::InferenceEngine::Create(
      s->classifier.get(), &s->ledger(), ServeDefaults());
  BA_CHECK_OK(engine.status());
  s->engine = std::move(engine).value();

  if (workload == "wire") {
    ba::net::ServerOptions server_options;
    server_options.enable_admin = false;
    auto server = ba::net::Server::Create(s->engine.get(), &s->ledger(),
                                          server_options);
    BA_CHECK_OK(server.status());
    s->server = std::move(server).value();
    BA_CHECK_OK(s->server->Start());
  }
  if (workload == "train_epoch") {
    BA_CHECK_OK(s->classifier->BuildSamples(s->ledger(), s->labeled,
                                            &s->train_samples));
  }
  s->build_seconds = SecondsSince(t0);
  return s;
}

std::vector<ba::chain::AddressId> Ids(
    const std::vector<ba::datagen::LabeledAddress>& list) {
  std::vector<ba::chain::AddressId> ids;
  ids.reserve(list.size());
  for (const auto& a : list) ids.push_back(a.address);
  return ids;
}

/// BaClassifier::Predict at the current ledger — the slow reference
/// every engine answer is checked against.
std::vector<int> Reference(const Setup& s,
                           const std::vector<ba::datagen::LabeledAddress>& list) {
  std::vector<int> out;
  BA_CHECK_OK(s.classifier->Predict(s.ledger(), list, &out));
  return out;
}

double LabelAccuracy(const std::vector<ba::datagen::LabeledAddress>& list,
                     const std::vector<int>& predicted) {
  size_t right = 0;
  for (size_t i = 0; i < list.size(); ++i) {
    right += predicted[i] == static_cast<int>(list[i].label) ? 1 : 0;
  }
  return Ratio(static_cast<double>(right), static_cast<double>(list.size()));
}

/// A (1, embed_dim) graph embedding as the row the engine caches.
std::vector<float> ToRow(const ba::tensor::Tensor& embedding) {
  return std::vector<float>(embedding.data(),
                            embedding.data() + embedding.numel());
}

std::vector<float> EmbedRow(const ba::core::GraphModel& model,
                            const ba::core::AddressGraph& g, int k_hops) {
  return ToRow(model.Embed(ba::core::PrepareGraphTensors(g, k_hops)));
}

/// Scaler + LSTM head over an address's slice embeddings, as the engine
/// runs it.
int Aggregate(const ba::core::BaClassifier& clf,
              const std::vector<std::vector<float>>& rows) {
  if (rows.empty()) return 0;
  const int64_t dim = clf.graph_model().embed_dim();
  std::vector<ba::core::EmbeddingSequence> seqs(1);
  seqs[0].embeddings =
      ba::tensor::Tensor({static_cast<int64_t>(rows.size()), dim});
  for (size_t r = 0; r < rows.size(); ++r) {
    for (int64_t j = 0; j < dim; ++j) {
      seqs[0].embeddings.at(static_cast<int64_t>(r), j) =
          rows[r][static_cast<size_t>(j)];
    }
  }
  clf.scaler().Apply(&seqs);
  return clf.aggregator().Predict(seqs[0].embeddings);
}

/// The answer for `address` at the epoch where it had `tx_count`
/// transactions, built from scratch: the reference for an answer served
/// while the ledger grew.
int PredictAtEpoch(const Setup& s, ba::chain::AddressId address,
                   uint64_t tx_count) {
  if (tx_count == 0) return 0;
  const std::vector<ba::chain::TxId> txs = s.ledger().TransactionsOf(address);
  const auto snapshot = s.ledger().SnapshotAt(txs[tx_count - 1] + 1);
  const auto& options = s.classifier->options().dataset;
  ba::core::GraphConstructor ctor(options.construction);
  std::vector<std::vector<float>> rows;
  for (const auto& g : ctor.BuildGraphs(snapshot, address)) {
    rows.push_back(EmbedRow(s.classifier->graph_model(), g, options.k_hops));
  }
  return Aggregate(*s.classifier, rows);
}

// ---------------------------------------------------------------------
// Live load: the measured phase of each workload.

/// One slice of a timed run: a second of a serving workload, a
/// cold_scan pass, or a train_epoch epoch.
struct Window {
  double seconds = 0.0;
  /// Work items completed: requests, or graphs trained.
  uint64_t work = 0;
  LatencyRecorder latency;  ///< ns per request / training call
};

/// One answer kept for checking against its own epoch.
struct Answer {
  ba::chain::AddressId address = ba::chain::kInvalidAddress;
  uint64_t tx_count = 0;
  int predicted = 0;
};

struct Live {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// grow_poll: every answer the engine computed (not served from
  /// cache), plus every 4096th answer.
  std::vector<Answer> answers;
  /// The run's windows; after the run only complete ones remain.
  std::vector<Window> windows;
  /// grow_poll's writer: time per ApplyCoinbase+SealBlock.
  LatencyRecorder seal;

  /// Records one operation begun at `t0`, finished now in window `w`,
  /// that completed `n` work items.
  void Finish(size_t w, Clock::time_point t0, uint64_t n = 1) {
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].latency.Record(static_cast<uint64_t>(NsSince(t0)));
    windows[w].work += n;
  }

  void Merge(const Live& o) {
    attempted += o.attempted;
    failed += o.failed;
    if (windows.size() < o.windows.size()) windows.resize(o.windows.size());
    for (size_t w = 0; w < o.windows.size(); ++w) {
      windows[w].work += o.windows[w].work;
      windows[w].latency.Merge(o.windows[w].latency);
    }
    seal.Merge(o.seal);
    answers.insert(answers.end(), o.answers.begin(), o.answers.end());
  }

  /// The faster half of the windows. Other tenants of a shared host only
  /// ever slow a window down, so the faster half estimates the program's
  /// own speed; the slower half absorbs their bursts.
  std::vector<const Window*> FasterHalf() const {
    std::vector<const Window*> out;
    for (const Window& w : windows) out.push_back(&w);
    std::sort(out.begin(), out.end(), [](const Window* a, const Window* b) {
      return a->work * b->seconds > b->work * a->seconds;
    });
    out.resize((out.size() + 1) / 2);
    return out;
  }

  /// Median throughput of the faster half.
  double qps() const {
    std::vector<double> rates;
    for (const Window* w : FasterHalf()) {
      rates.push_back(Ratio(static_cast<double>(w->work), w->seconds));
    }
    return rates.empty() ? 0.0 : Median(rates);
  }

  /// Latency of every operation finished in the faster half.
  LatencyRecorder latency() const {
    LatencyRecorder merged;
    for (const Window* w : FasterHalf()) merged.Merge(w->latency);
    return merged;
  }

  uint64_t work() const {
    uint64_t n = 0;
    for (const Window& w : windows) n += w.work;
    return n;
  }
};

/// Index of the kWindow-long window of a run begun at `start` that
/// contains now.
size_t WindowNow(Clock::time_point start) {
  return static_cast<size_t>((Clock::now() - start) / kWindow);
}

/// Keeps the complete kWindow-long windows of a run begun at `start`.
void CloseTimeWindows(Clock::time_point start, Live* live) {
  const double window_s = std::chrono::duration<double>(kWindow).count();
  const auto complete = static_cast<size_t>(SecondsSince(start) / window_s);
  live->windows.resize(std::min(live->windows.size(), complete));
  for (Window& w : live->windows) w.seconds = window_s;
}

/// Pays `address` one coinbase in a new block and seals it — the
/// ledger's single writer. Returns false when either call fails.
bool PayAndSeal(ba::chain::Ledger* ledger, ba::chain::AddressId address) {
  const ba::chain::Timestamp ts =
      ledger->block(ledger->height() - 1).timestamp +
      ledger->options().block_interval_seconds;
  return ledger->ApplyCoinbase(ts, address).ok() && ledger->SealBlock(ts).ok();
}

/// One closed-loop in-process client over `list`, starting a third of
/// the way in per client. `reference` (optional) is each index's
/// expected answer; without one, answers are kept for checking against
/// their own epoch (see Live::answers). With a `writer`, the client is
/// also the ledger's single writer: after every kReadsPerSeal answers it
/// seals a block paying the next watched address (stride kPayStride),
/// so writes keep a fixed ratio to reads.
void PollClient(ba::serve::Engine* engine,
                const std::vector<ba::chain::AddressId>& list,
                const std::vector<int>* reference, int client,
                ba::chain::Ledger* writer, Clock::time_point start,
                Clock::time_point deadline, Live* out) {
  size_t i = list.size() * static_cast<size_t>(client) / kClients;
  uint64_t reads = 0;
  uint64_t seals = 0;
  for (;;) {
    const auto t0 = Clock::now();
    if (t0 >= deadline) break;
    const auto r = engine->Classify(list[i]);
    out->Finish(WindowNow(start), t0);
    ++out->attempted;
    ++reads;
    if (!r.ok() || (reference != nullptr &&
                    r.value().predicted != (*reference)[i])) {
      ++out->failed;
    } else if (reference == nullptr &&
               (r.value().slices_built > 0 || reads % 4096 == 0)) {
      out->answers.push_back(
          {list[i], r.value().tx_count, r.value().predicted});
    }
    if (++i == list.size()) i = 0;
    if (writer != nullptr && reads % kReadsPerSeal == 0) {
      const auto w0 = Clock::now();
      const bool ok =
          PayAndSeal(writer, list[(seals++ * kPayStride) % list.size()]);
      out->seal.Record(static_cast<uint64_t>(NsSince(w0)));
      if (!ok) {
        ++out->attempted;
        ++out->failed;
      }
    }
  }
}

Live RunPoll(Setup& s, const std::vector<int>* reference, double seconds,
             bool with_writer) {
  const std::vector<ba::chain::AddressId> list = Ids(s.hot);
  std::vector<Live> per(kClients);
  const auto start = Clock::now();
  const auto deadline = After(start, seconds);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    ba::chain::Ledger* writer =
        with_writer && c == 0 ? s.sim->mutable_ledger() : nullptr;
    clients.emplace_back(PollClient, s.engine.get(), std::cref(list),
                         reference, c, writer, start, deadline,
                         &per[static_cast<size_t>(c)]);
  }
  for (auto& t : clients) t.join();
  Live live;
  for (const Live& p : per) live.Merge(p);
  CloseTimeWindows(start, &live);
  return live;
}

/// Passes over `s.scan` until `seconds` elapse, each in a fresh seeded
/// order (so one run averages over many orders) on a cleared cache.
Live RunColdScan(Setup& s, const std::vector<int>& reference, ba::Rng* rng,
                 double seconds) {
  std::vector<size_t> order(s.scan.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<Live> per(kClients);
  std::vector<double> pass_seconds;  // complete passes only
  const auto deadline = After(Clock::now(), seconds);
  for (size_t pass = 0; Clock::now() < deadline; ++pass) {
    rng->Shuffle(&order);
    const auto pass_start = Clock::now();
    s.engine->ClearCache();
    std::atomic<size_t> cursor{0};
    std::atomic<size_t> done{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Live& mine = per[static_cast<size_t>(c)];
        for (;;) {
          const size_t k = cursor.fetch_add(1, std::memory_order_relaxed);
          const auto t0 = Clock::now();
          if (k >= order.size() || t0 >= deadline) break;
          const size_t i = order[k];
          const auto r = s.engine->Classify(s.scan[i].address);
          mine.Finish(pass, t0);
          done.fetch_add(1, std::memory_order_relaxed);
          ++mine.attempted;
          if (!r.ok() || r.value().predicted != reference[i]) ++mine.failed;
        }
      });
    }
    for (auto& t : clients) t.join();
    if (done.load() == order.size()) {
      pass_seconds.push_back(SecondsSince(pass_start));
    }
  }
  Live live;
  for (const Live& p : per) live.Merge(p);
  live.windows.resize(pass_seconds.size());
  for (size_t p = 0; p < pass_seconds.size(); ++p) {
    live.windows[p].seconds = pass_seconds[p];
  }
  return live;
}

void WireClient(uint16_t port, const std::vector<ba::chain::AddressId>& list,
                const std::vector<int>& reference, int client,
                Clock::time_point start, Clock::time_point deadline,
                Live* out) {
  auto connected = ba::net::Client::Connect("127.0.0.1", port);
  if (!connected.ok()) {
    ++out->attempted;
    ++out->failed;
    return;
  }
  ba::net::Client& conn = connected.value();
  struct Pending {
    uint64_t id;
    size_t index;
    Clock::time_point sent;
  };
  std::vector<Pending> pending;
  size_t next = list.size() * static_cast<size_t>(client) / kClients;
  uint64_t next_id = 1;
  const auto send = [&] {
    ba::serve::ClassifyOptions options;
    options.trace_id =
        (static_cast<uint64_t>(client) + 1) << 32 | (next_id & 0xFFFFFFFF);
    const auto sent = Clock::now();
    if (!conn.Send(next_id, list[next], options).ok()) return false;
    pending.push_back({next_id, next, sent});
    ++next_id;
    if (++next == list.size()) next = 0;
    return true;
  };
  for (int w = 0; w < kWireWindow; ++w) {
    if (!send()) break;
  }
  while (!pending.empty()) {
    const auto response = conn.ReadResponse();
    if (!response.ok()) {
      out->attempted += pending.size();
      out->failed += pending.size();
      return;
    }
    const auto it = std::find_if(
        pending.begin(), pending.end(), [&](const Pending& p) {
          return p.id == response.value().request_id;
        });
    ++out->attempted;
    if (it == pending.end()) {
      ++out->failed;  // an id this connection never sent
      continue;
    }
    out->Finish(WindowNow(start), it->sent);
    const auto& r = response.value();
    if (r.code != 0 || !r.has_result ||
        r.result.predicted != reference[it->index] ||
        r.result.timeline.trace_id == 0) {
      ++out->failed;
    }
    pending.erase(it);
    if (Clock::now() < deadline && !send()) {
      out->attempted += pending.size() + 1;
      out->failed += pending.size() + 1;
      return;
    }
  }
}

Live RunWire(Setup& s, const std::vector<int>& reference, double seconds) {
  const std::vector<ba::chain::AddressId> list = Ids(s.hot);
  std::vector<Live> per(kClients);
  const auto start = Clock::now();
  const auto deadline = After(start, seconds);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(WireClient, s.server->port(), std::cref(list),
                         std::cref(reference), c, start, deadline,
                         &per[static_cast<size_t>(c)]);
  }
  for (auto& t : clients) t.join();
  Live live;
  for (const Live& p : per) live.Merge(p);
  CloseTimeWindows(start, &live);
  return live;
}

ba::core::GraphModelOptions TrainOptions(const Setup& s, int lanes) {
  ba::core::GraphModelOptions o = s.classifier->options().graph_model;
  o.epochs = 1;
  o.num_threads = lanes;
  return o;
}

using Step = std::vector<ba::core::AddressSample>;

/// Every graph of `samples` as a single-graph sample, in a seeded order,
/// cut into step groups of kStepGraphs.
std::vector<Step> CutSteps(const std::vector<ba::core::AddressSample>& samples,
                           uint64_t seed) {
  std::vector<std::pair<size_t, size_t>> graphs;  // (sample, graph)
  for (size_t i = 0; i < samples.size(); ++i) {
    for (size_t g = 0; g < samples[i].tensors.size(); ++g) {
      graphs.emplace_back(i, g);
    }
  }
  ba::Rng rng(seed ^ 0x7EA1);
  rng.Shuffle(&graphs);
  std::vector<Step> steps;
  for (size_t i = 0; i < graphs.size(); ++i) {
    if (i % kStepGraphs == 0) steps.emplace_back();
    const ba::core::AddressSample& from = samples[graphs[i].first];
    ba::core::AddressSample one;
    one.address = from.address;
    one.label = from.label;
    one.tensors.push_back(from.tensors[graphs[i].second]);
    steps.back().push_back(std::move(one));
  }
  return steps;
}

/// One Train call on `step`; returns its mean loss.
double TrainStep(ba::core::GraphModel* model, const Step& step) {
  std::vector<ba::core::EpochStat> history;
  BA_CHECK_OK(model->Train(step, nullptr, &history));
  return history.back().train_loss;
}

/// Epochs over `steps` (step order reshuffled per epoch) until
/// `seconds` elapse; each epoch is a window, and work counts graphs.
Live RunTrain(ba::core::GraphModel* model, const std::vector<Step>& steps,
              ba::Rng* rng, double seconds) {
  BA_CHECK(!steps.empty());
  Live live;
  std::vector<size_t> order(steps.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto deadline = After(Clock::now(), seconds);
  for (size_t epoch = 0; Clock::now() < deadline; ++epoch) {
    const auto epoch_start = Clock::now();
    rng->Shuffle(&order);
    size_t done = 0;
    for (const size_t i : order) {
      const auto t0 = Clock::now();
      if (t0 >= deadline) break;
      const double loss = TrainStep(model, steps[i]);
      live.Finish(epoch, t0, steps[i].size());
      ++live.attempted;
      ++done;
      if (!std::isfinite(loss)) ++live.failed;
    }
    if (done < order.size()) {
      live.windows.resize(epoch);  // drop the partial epoch
    } else {
      live.windows[epoch].seconds = SecondsSince(epoch_start);
    }
  }
  return live;
}

/// The data-parallel determinism contract: the first step groups
/// trained with kTrainLanes lanes give bit-identical losses to one lane.
/// Returns the number of mismatching steps.
uint64_t VerifyTrainLanes(const Setup& s, const std::vector<Step>& steps) {
  ba::core::GraphModel parallel(TrainOptions(s, kTrainLanes));
  ba::core::GraphModel serial(TrainOptions(s, 1));
  uint64_t mismatches = 0;
  for (size_t i = 0; i < std::min<size_t>(kVerifySteps, steps.size()); ++i) {
    const double a = TrainStep(&parallel, steps[i]);
    const double b = TrainStep(&serial, steps[i]);
    mismatches += std::memcmp(&a, &b, sizeof(a)) == 0 ? 0 : 1;
  }
  return mismatches;
}

/// Everything one workload needs besides its set-up: warm state, the
/// reference answers, and a live run of `seconds`.
class WorkloadRunner {
 public:
  WorkloadRunner(std::string workload, Setup* s, uint64_t seed)
      : workload_(std::move(workload)), s_(s), seed_(seed), rng_(seed) {}

  /// Reference answers, warm caches, and a `warmup_seconds` run of the
  /// workload itself (idle vCPUs take about a second to reach full
  /// speed on a shared host); all outside every metric. Returns the
  /// warm-up run, whose answers are checked like any other.
  Live Prepare(double warmup_seconds) {
    if (workload_ == "train_epoch") {
      // Same addresses and classifier as the reference path below, from
      // the samples the set-up already built.
      size_t right = 0;
      for (const auto& sample : s_->train_samples) {
        int predicted = 0;
        BA_CHECK_OK(s_->classifier->PredictSample(sample, &predicted));
        right += predicted == sample.label ? 1 : 0;
      }
      accuracy_ = Ratio(static_cast<double>(right),
                        static_cast<double>(s_->train_samples.size()));
      steps_ = CutSteps(s_->train_samples, seed_);
      model_ = std::make_unique<ba::core::GraphModel>(
          TrainOptions(*s_, kTrainLanes));
    } else {
      // In ledger order, so the reference pass is the same in every run.
      const std::vector<int> predicted = Reference(*s_, s_->labeled);
      accuracy_ = LabelAccuracy(s_->labeled, predicted);
      std::unordered_map<ba::chain::AddressId, int> by_address;
      for (size_t i = 0; i < predicted.size(); ++i) {
        by_address[s_->labeled[i].address] = predicted[i];
      }
      for (const auto& a : s_->scan) {
        scan_reference_.push_back(by_address.at(a.address));
      }
      for (const auto& a : s_->hot) {
        hot_reference_.push_back(by_address.at(a.address));
      }
      if (workload_ != "cold_scan") {
        // Warmed in history-length order, so every seed's batches hold
        // the same mix of sizes.
        std::vector<ba::chain::AddressId> warm = Ids(s_->hot);
        const ba::chain::Ledger& ledger = s_->ledger();
        std::sort(warm.begin(), warm.end(), [&](auto a, auto b) {
          return std::make_pair(ledger.TxCountOf(a), a) <
                 std::make_pair(ledger.TxCountOf(b), b);
        });
        for (const auto& r : s_->engine->ClassifyBatch(warm)) {
          BA_CHECK_OK(r.status());
        }
      }
    }
    return Run(warmup_seconds);
  }

  Live Run(double seconds) {
    if (workload_ == "hot_poll") return RunPoll(*s_, &hot_reference_, seconds, false);
    if (workload_ == "grow_poll") return RunPoll(*s_, nullptr, seconds, true);
    if (workload_ == "cold_scan") {
      return RunColdScan(*s_, scan_reference_, &rng_, seconds);
    }
    if (workload_ == "wire") return RunWire(*s_, hot_reference_, seconds);
    return RunTrain(model_.get(), steps_, &rng_, seconds);
  }

  /// Post-run checks, folded into `live`'s counts: train_epoch's lane
  /// determinism, and grow_poll's answers against their epochs and
  /// against Predict at the grown ledger.
  void Verify(Live* live) {
    if (workload_ == "train_epoch") {
      live->attempted += std::min<size_t>(kVerifySteps, steps_.size());
      live->failed += VerifyTrainLanes(*s_, steps_);
    } else if (workload_ == "grow_poll") {
      // Up to kEpochChecks of the answers served while the ledger grew,
      // evenly spaced, each against a from-scratch build at its epoch;
      // then one quiesced batch against Predict at the grown ledger.
      const size_t stride =
          std::max<size_t>(1, live->answers.size() / kEpochChecks);
      for (size_t i = 0; i < live->answers.size(); i += stride) {
        const Answer& a = live->answers[i];
        ++live->attempted;
        if (PredictAtEpoch(*s_, a.address, a.tx_count) != a.predicted) {
          ++live->failed;
        }
      }
      const std::vector<int> reference = Reference(*s_, s_->hot);
      const auto answers = s_->engine->ClassifyBatch(Ids(s_->hot));
      for (size_t i = 0; i < answers.size(); ++i) {
        ++live->attempted;
        if (!answers[i].ok() || answers[i].value().predicted != reference[i]) {
          ++live->failed;
        }
      }
    }
  }

  /// Ground-truth accuracy of the reference answers over every address
  /// with >= 2 txs at the set-up ledger: the same set and model in every
  /// run, so it moves only when an answer does.
  double accuracy() const { return accuracy_; }

  /// The request kind the traced replay re-runs through the layers.
  enum class Kind { kHit, kMiss, kTail };
  Kind replay_kind() const {
    if (workload_ == "hot_poll" || workload_ == "wire") return Kind::kHit;
    if (workload_ == "grow_poll") return Kind::kTail;
    return Kind::kMiss;
  }
  const std::vector<ba::datagen::LabeledAddress>& addresses() const {
    return replay_kind() == Kind::kMiss ? s_->scan : s_->hot;
  }

 private:
  std::string workload_;
  Setup* s_;
  uint64_t seed_;
  ba::Rng rng_;
  double accuracy_ = 0.0;
  std::vector<int> scan_reference_;  ///< Predict over `scan`
  std::vector<int> hot_reference_;   ///< the same, over `hot`
  std::vector<Step> steps_;
  std::unique_ptr<ba::core::GraphModel> model_;
};

// ---------------------------------------------------------------------
// Traced replay: each request of the workload's kind, one at a time,
// through the public layer functions.

enum Layer {
  kSnapshot,
  kTxCount,
  kExtract,
  kCompressSingle,
  kCompressMulti,
  kAugment,
  kPrepare,
  kEmbed,
  kAggregate,
  kClassify,
  kRequestCodec,
  kResponseCodec,
  kSeal,
  kNumLayers,
};

struct LayerName {
  const char* metric;
  const char* span;
};

constexpr LayerName kLayerNames[kNumLayers] = {
    {"chain.snapshot", "bench.layer.chain.snapshot"},
    {"chain.tx_count", "bench.layer.chain.tx_count"},
    {"core.graph.extract", "bench.layer.core.graph.extract"},
    {"core.graph.compress_single", "bench.layer.core.graph.compress_single"},
    {"core.graph.compress_multi", "bench.layer.core.graph.compress_multi"},
    {"core.graph.augment", "bench.layer.core.graph.augment"},
    {"core.features.prepare", "bench.layer.core.features.prepare"},
    {"core.model.embed", "bench.layer.core.model.embed"},
    {"core.aggregate.predict", "bench.layer.core.aggregate.predict"},
    {"serve.classify", "bench.layer.serve.classify"},
    {"net.request_codec", "bench.layer.net.request_codec"},
    {"net.response_codec", "bench.layer.net.response_codec"},
    {"chain.seal", "bench.layer.chain.seal"},
};

/// Layers a replayed miss (or tail rebuild) passes through, in order;
/// `.share` is each one's part of their summed time.
constexpr Layer kPathLayers[] = {kSnapshot,      kTxCount,      kExtract,
                                 kCompressSingle, kCompressMulti, kAugment,
                                 kPrepare,        kEmbed,        kAggregate};

struct Profile {
  LatencyRecorder layer[kNumLayers];
  uint64_t graphs = 0;
  uint64_t nodes_raw = 0;
  uint64_t nodes_compressed = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Runs `f` inside a bench.layer span and records its duration.
template <typename F>
auto Timed(Profile* p, Layer layer, F&& f) {
  ba::obs::ScopedSpan span(kLayerNames[layer].span);
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    p->layer[layer].Record(static_cast<uint64_t>(NsSince(t0)));
  } else {
    auto out = f();
    p->layer[layer].Record(static_cast<uint64_t>(NsSince(t0)));
    return out;
  }
}

/// One request through snapshot → tx count → stages 1-4 → tensor prep →
/// embed → scaler + LSTM, building slices from `start_slice` on (the
/// slices before it come from an untimed full build, as the engine's
/// cache would supply them). Returns the predicted class and the
/// pinned tx count.
std::pair<int, uint64_t> ReplayPath(const Setup& s, Profile* p,
                                    ba::chain::AddressId address, bool tail) {
  const ba::core::BaClassifier& clf = *s.classifier;
  const auto& options = clf.options().dataset;
  const int k_hops = options.k_hops;
  const ba::chain::Ledger& ledger = s.ledger();
  const auto snapshot = Timed(p, kSnapshot, [&] { return ledger.Snapshot(); });
  const uint64_t n = Timed(p, kTxCount, [&] {
    return std::min<uint64_t>(
        snapshot.TxCountOf(address),
        static_cast<uint64_t>(options.construction.max_txs_per_address));
  });
  ba::core::GraphConstructor ctor(options.construction);
  const int slice = options.construction.slice_size;
  const int start = tail && n > 0 ? static_cast<int>((n - 1) / slice) : 0;
  std::vector<std::vector<float>> rows;
  if (start > 0) {
    const auto prefix = ctor.BuildGraphsFrom(snapshot, address, 0);
    for (int i = 0; i < start; ++i) {
      rows.push_back(EmbedRow(clf.graph_model(), prefix[static_cast<size_t>(i)],
                              k_hops));
    }
  }
  auto graphs = Timed(p, kExtract, [&] {
    return ctor.ExtractOriginalGraphs(snapshot, address, start);
  });
  for (const auto& g : graphs) p->nodes_raw += static_cast<uint64_t>(g.num_nodes());
  if (options.construction.enable_single_compression) {
    Timed(p, kCompressSingle, [&] {
      for (auto& g : graphs) ctor.CompressSingleTransactionAddresses(&g);
    });
  }
  if (options.construction.enable_multi_compression) {
    Timed(p, kCompressMulti, [&] {
      for (auto& g : graphs) ctor.CompressMultiTransactionAddresses(&g);
    });
  }
  for (const auto& g : graphs) {
    p->nodes_compressed += static_cast<uint64_t>(g.num_nodes());
  }
  p->graphs += graphs.size();
  if (options.construction.enable_augmentation) {
    Timed(p, kAugment, [&] {
      for (auto& g : graphs) ctor.AugmentStructure(&g);
    });
  }
  const auto tensors = Timed(p, kPrepare, [&] {
    std::vector<ba::core::GraphTensors> out;
    for (const auto& g : graphs) {
      out.push_back(ba::core::PrepareGraphTensors(g, k_hops));
    }
    return out;
  });
  Timed(p, kEmbed, [&] {
    for (const auto& gt : tensors) {
      rows.push_back(ToRow(clf.graph_model().Embed(gt)));
    }
  });
  const int predicted =
      Timed(p, kAggregate, [&] { return Aggregate(clf, rows); });
  return {predicted, n};
}

/// Round-trips `result` through the wire codecs (request and response
/// frames, encoded and decoded). Returns false on any mismatch.
bool ReplayCodecs(Profile* p, ba::chain::AddressId address, uint64_t id,
                  const ba::serve::ClassifyResult& result) {
  using namespace ba::serve;
  const bool request_ok = Timed(p, kRequestCodec, [&] {
    ClassifyRequest req;
    req.request_id = id;
    req.address = address;
    req.options.trace_id = id;
    const auto now = Clock::now();
    FrameDecoder decoder;
    decoder.Append(EncodeFrame(MessageType::kClassifyRequest,
                               req.EncodePayload(now)));
    Frame frame;
    ClassifyRequest back;
    const auto next = decoder.Next(&frame);
    return next.ok() && next.value() &&
           ClassifyRequest::Decode(frame.payload, now, &back).ok() &&
           back.address == address && back.request_id == id;
  });
  const bool response_ok = Timed(p, kResponseCodec, [&] {
    const ClassifyResponse resp =
        ClassifyResponse::From(id, result, result.timeline);
    FrameDecoder decoder;
    decoder.Append(EncodeFrame(MessageType::kClassifyResponse,
                               resp.EncodePayload()));
    Frame frame;
    ClassifyResponse back;
    const auto next = decoder.Next(&frame);
    return next.ok() && next.value() &&
           ClassifyResponse::Decode(frame.payload, &back).ok() &&
           back.request_id == id &&
           back.result.predicted == result.predicted;
  });
  return request_ok && response_ok;
}

/// Pays `address` one coinbase and seals the block; timed as chain.seal.
void TimedSeal(Setup* s, Profile* p, ba::chain::AddressId address) {
  const bool ok = Timed(
      p, kSeal, [&] { return PayAndSeal(s->sim->mutable_ledger(), address); });
  ++p->attempted;
  p->failed += ok ? 0 : 1;
}

Profile Replay(Setup* s, const WorkloadRunner& runner, const Sizes& sizes) {
  Profile p;
  const auto kind = runner.replay_kind();
  const auto& list = runner.addresses();
  if (kind == WorkloadRunner::Kind::kMiss) {
    s->engine->ClearCache();
  } else {
    // Every entry at the current ledger: a hit stays a hit, and a tail
    // rebuild reuses exactly the slices before the new transaction.
    for (const auto& r : s->engine->ClassifyBatch(Ids(list))) {
      ++p.attempted;
      p.failed += r.ok() ? 0 : 1;
    }
  }
  for (int i = 0; i < sizes.replays; ++i) {
    const size_t index =
        kind == WorkloadRunner::Kind::kTail
            ? (static_cast<size_t>(i) * kPayStride) % list.size()
            : static_cast<size_t>(i) % list.size();
    const ba::chain::AddressId address = list[index].address;
    // A tail rebuild: one more transaction on an address whose cache
    // entry is one transaction behind.
    if (kind == WorkloadRunner::Kind::kTail) TimedSeal(s, &p, address);
    // Whichever runs second finds the address's ledger data in cache;
    // alternating the order splits that advantage evenly.
    std::optional<ba::Result<ba::serve::ClassifyResult>> r;
    const auto classify = [&] {
      r = Timed(&p, kClassify, [&] { return s->engine->Classify(address); });
    };
    if (i % 2 == 0) classify();
    const auto [predicted, tx_count] =
        ReplayPath(*s, &p, address, kind == WorkloadRunner::Kind::kTail);
    if (i % 2 == 1) classify();
    ++p.attempted;
    if (!r->ok() || r->value().predicted != predicted ||
        r->value().tx_count != tx_count ||
        !ReplayCodecs(&p, address, static_cast<uint64_t>(i) + 1, r->value())) {
      ++p.failed;
    }
  }
  if (kind != WorkloadRunner::Kind::kTail) {
    for (int i = 0; i < sizes.seal_probes; ++i) {
      TimedSeal(s, &p,
                list[(static_cast<size_t>(i) * kPayStride) % list.size()].address);
    }
  }
  return p;
}

struct TrainProbe {
  double dataset_build_s = 0.0;
  double first_epoch_s = 0.0;
  double epoch_s = 0.0;
};

/// The core.train / core.dataset layers on the set-up's 300-address
/// training sample: build its dataset, then train a fresh encoder.
TrainProbe ProbeTraining(const Setup& s, const Sizes& sizes) {
  TrainProbe probe;
  const auto t0 = Clock::now();
  std::vector<ba::core::AddressSample> samples;
  BA_CHECK_OK(s.classifier->BuildSamples(s.ledger(), s.train_split, &samples));
  probe.dataset_build_s = SecondsSince(t0);
  ba::core::GraphModelOptions options = TrainOptions(s, kTrainLanes);
  options.epochs = sizes.train_probe_epochs;
  ba::core::GraphModel model(options);
  std::vector<ba::core::EpochStat> history;
  BA_CHECK_OK(model.Train(samples, nullptr, &history));
  // EpochStat::seconds is cumulative.
  std::vector<double> later;
  for (size_t e = 1; e < history.size(); ++e) {
    later.push_back(history[e].seconds - history[e - 1].seconds);
  }
  probe.first_epoch_s = history[0].seconds;
  probe.epoch_s = Median(later);
  return probe;
}

// ---------------------------------------------------------------------
// The two run modes.

Report RunEndToEnd(const std::string& workload, uint64_t seed,
                   double seconds, const Sizes& sizes) {
  std::vector<double> setup_seconds;
  std::unique_ptr<Setup> s;
  for (int i = 0; i < sizes.setups; ++i) {
    s.reset();  // the previous set-up's memory is reused, not stacked
    s = BuildSetup(workload, seed, sizes);
    setup_seconds.push_back(s->build_seconds);
  }
  WorkloadRunner runner(workload, s.get(), seed);
  const Live warm = runner.Prepare(sizes.warmup_seconds);
  Live live = runner.Run(seconds);
  runner.Verify(&live);

  Report r;
  r.attempted = warm.attempted + live.attempted;
  r.failed = warm.failed + live.failed;
  r.Add("setup_s", Median(setup_seconds), "s");
  const LatencyRecorder latency = live.latency();
  r.Add("qps", live.qps(), "1/s");
  r.AddPercentileUs("latency_p50_us", latency, 50);
  r.Add("label_accuracy", runner.accuracy(), "ratio");
  r.Add("peak_rss_mb", PeakRssMiB(), "MiB");
  if (live.windows.size() < 4) r.errors.push_back("fewer than 4 windows");
  std::cout << "[" << workload << "] " << live.work() << " items in "
            << live.windows.size() << " windows; rates (1/s):";
  for (const Window& w : live.windows) {
    std::cout << " " << static_cast<int64_t>(
                            Ratio(static_cast<double>(w.work), w.seconds));
  }
  std::cout << "\n[" << workload << "] faster half: " << latency.count()
            << " latency samples; " << live.attempted << " attempted, "
            << live.failed << " failed\n";
  if (live.seal.count() > 0) {
    std::cout << "[" << workload << "] writer: " << live.seal.count()
              << " seals in " << seconds << " s, mean "
              << live.seal.mean() / 1e3 << " us\n";
  }
  return r;
}

Report RunTraced(const std::string& workload, uint64_t seed, double seconds,
                 const std::string& trace_out, const Sizes& sizes) {
  std::unique_ptr<Setup> s = BuildSetup(workload, seed, sizes);
  WorkloadRunner runner(workload, s.get(), seed);
  const Live warm = runner.Prepare(sizes.warmup_seconds);

  const auto before = s->engine->Metrics();
  Live untraced = runner.Run(seconds / 2);
  const auto after = s->engine->Metrics();

  ba::obs::Tracer& tracer = ba::obs::Tracer::Instance();
  tracer.Enable(kTraceCapacity);
  tracer.SetCurrentThreadName("bench.main");
  Live traced = runner.Run(seconds / 2);
  const Profile p = Replay(s.get(), runner, sizes);
  tracer.Disable();
  const TrainProbe train = ProbeTraining(*s, sizes);
  runner.Verify(&untraced);
  runner.Verify(&traced);
  if (!trace_out.empty()) BA_CHECK_OK(tracer.Save(trace_out));

  Report r;
  r.attempted =
      warm.attempted + untraced.attempted + traced.attempted + p.attempted;
  r.failed = warm.failed + untraced.failed + traced.failed + p.failed;

  uint64_t path_ns = 0;
  for (const Layer l : kPathLayers) path_ns += p.layer[l].sum();
  for (int l = 0; l < kNumLayers; ++l) {
    const std::string name = kLayerNames[l].metric;
    r.AddPercentileUs(name + ".p50_us", p.layer[l], 50);
    r.AddPercentileUs(name + ".p99_us", p.layer[l], 99);
  }
  for (const Layer l : kPathLayers) {
    r.Add(std::string(kLayerNames[l].metric) + ".share",
          Ratio(static_cast<double>(p.layer[l].sum()),
                static_cast<double>(path_ns)),
          "ratio");
  }
  r.Add("core.graph.nodes_raw",
        Ratio(static_cast<double>(p.nodes_raw), static_cast<double>(p.graphs)),
        "count");
  r.Add("core.graph.nodes_compressed",
        Ratio(static_cast<double>(p.nodes_compressed),
              static_cast<double>(p.graphs)),
        "count");
  // What the engine spends beyond the layers its request kind passes
  // through: the queue, batch leader, cache lock, admission and flight
  // recorder. A hit passes only the snapshot and the tx count.
  const uint64_t attributed =
      runner.replay_kind() == WorkloadRunner::Kind::kHit
          ? p.layer[kSnapshot].sum() + p.layer[kTxCount].sum()
          : path_ns;
  r.Add("serve.unattributed_share",
        1.0 - Ratio(static_cast<double>(attributed),
                    static_cast<double>(p.layer[kClassify].sum())),
        "ratio");

  const auto delta = [](uint64_t a, uint64_t b) {
    return static_cast<double>(b - a);
  };
  const double requests = delta(before.requests, after.requests);
  r.Add("serve.hit_rate",
        Ratio(delta(before.full_hits + before.partial_hits + before.coalesced,
                    after.full_hits + after.partial_hits + after.coalesced),
              requests - delta(before.empty_history, after.empty_history)),
        "ratio");
  r.Add("serve.partial_hit_frac",
        Ratio(delta(before.partial_hits, after.partial_hits), requests),
        "ratio");
  r.Add("serve.coalesced_frac",
        Ratio(delta(before.coalesced, after.coalesced), requests), "ratio");
  r.Add("serve.batch_size_mean",
        Ratio(requests, delta(before.batches, after.batches)), "count");
  r.Add("serve.slices_built_per_req",
        Ratio(delta(before.slices_built, after.slices_built), requests),
        "count");
  r.Add("serve.slices_reused_per_req",
        Ratio(delta(before.slices_reused, after.slices_reused), requests),
        "count");
  // The engine's own per-stage accounting over the live run, summed
  // across its workers.
  r.Add("serve.build_s_per_req",
        Ratio(after.build_seconds - before.build_seconds, requests), "s");
  r.Add("serve.embed_s_per_req",
        Ratio(after.embed_seconds - before.embed_seconds, requests), "s");
  r.Add("serve.aggregate_s_per_req",
        Ratio(after.aggregate_seconds - before.aggregate_seconds, requests),
        "s");

  r.Add("core.train.epoch_s", train.epoch_s, "s");
  r.Add("core.train.first_epoch_s", train.first_epoch_s, "s");
  r.Add("core.dataset.build_s", train.dataset_build_s, "s");
  // The end-to-end tail, over every window of the untraced half: too
  // sensitive to a shared host's scheduling noise to carry a regression
  // bound, so it is reported here.
  LatencyRecorder untraced_latency;
  for (const Window& w : untraced.windows) untraced_latency.Merge(w.latency);
  r.AddPercentileUs("latency_p99_us", untraced_latency, 99);
  r.Add("trace_overhead_frac", 1.0 - Ratio(traced.qps(), untraced.qps()),
        "ratio");
  r.Add("requests", static_cast<double>(untraced.attempted), "count");
  std::cout << "[" << workload << "] traced replay: " << sizes.replays
            << " requests, " << p.graphs << " graphs, " << p.failed
            << " mismatches; mean serve.classify "
            << p.layer[kClassify].mean() / 1e3 << " us against "
            << static_cast<double>(attributed) / 1e3 /
                   static_cast<double>(sizes.replays)
            << " us in its layers; trace events recorded "
            << tracer.TotalRecorded() << "\n";
  return r;
}

bool IsWorkload(const std::string& name) {
  for (const char* w : kWorkloads) {
    if (name == w) return true;
  }
  return false;
}

int Smoke() {
  bool ok = true;
  for (const char* w : kWorkloads) {
    for (const bool trace : {false, true}) {
      const Report r = trace ? RunTraced(w, 7, 2 * kSmokeSeconds, "", kSmoke)
                             : RunEndToEnd(w, 7, kSmokeSeconds, kSmoke);
      // Toy sizes cannot support tail percentiles; only answers count.
      const bool pass = r.failed == 0 && r.attempted > 0;
      std::cout << "smoke " << w << (trace ? " traced" : " untraced")
                << ": attempted " << r.attempted << " failed " << r.failed
                << (pass ? " ok" : " FAILED") << "\n";
      ok = ok && pass;
    }
  }
  std::cout << (ok ? "smoke ok" : "smoke FAILED") << "\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ba::CliFlags flags(argc, argv);
  // Training lanes and any large GEMM draw on the shared pool; size it
  // to the lane count so the run does not depend on the host's cores.
  ba::util::SetSharedPoolThreads(kTrainLanes);
  if (flags.GetBool("smoke", false)) return Smoke();

  const std::string workload = flags.GetString("workload", "");
  if (!IsWorkload(workload)) {
    std::cerr << "bench_profile: --workload must be one of hot_poll, "
                 "cold_scan, grow_poll, wire, train_epoch\n";
    return 2;
  }
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const double seconds = flags.GetDouble("seconds", 16.0);
  const bool trace = flags.GetInt("trace", 0) != 0;
  if (!(seconds > 0.0)) {
    std::cerr << "bench_profile: --seconds must be positive\n";
    return 2;
  }
  std::cout << "meta " << MetaJson(workload, seed, seconds, trace) << "\n";
  const Report r =
      trace ? RunTraced(workload, seed, seconds,
                        flags.GetString("trace-out", ""), kFull)
            : RunEndToEnd(workload, seed, seconds, kFull);
  for (const Metric& m : r.metrics) {
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  if (!r.errors.empty()) {
    for (const std::string& e : r.errors) {
      std::cerr << "bench_profile: invalid run: " << e << "\n";
    }
    return 2;
  }
  if (r.failed > 0) {
    std::cout << "bench_profile: " << r.failed << " of " << r.attempted
              << " requests failed or answered wrong\n";
  }
  std::cout << ReportJson(r) << std::endl;
  return r.correct() ? 0 : 1;
}
