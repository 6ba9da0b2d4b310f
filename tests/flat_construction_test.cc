// Differential test of the flat graph construction: Stages 1-4 and
// PrepareGraphTensors must reproduce the hash-map reference in
// construction_reference.h bit for bit (nodes, edges, features, Ã and
// X^G), on every slice of a simulated economy, under every stage
// toggle and a sweep of Stage 3's Ψ and σ, and when several threads
// build at once through their thread-local scratch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "construction_reference.h"
#include "core/gfn_features.h"
#include "core/graph_builder.h"
#include "datagen/simulator.h"

namespace ba::core {
namespace {

bool SameBits(const void* a, const void* b, size_t bytes) {
  return std::memcmp(a, b, bytes) == 0;
}

/// First difference between a reference graph and a flat one, or "".
std::string GraphDiff(const reference::AddressGraph& want,
                      const AddressGraph& got) {
  std::ostringstream os;
  if (want.target != got.target || want.slice_index != got.slice_index ||
      want.target_node != got.target_node) {
    os << "header: target " << want.target << "/" << got.target << " slice "
       << want.slice_index << "/" << got.slice_index << " target_node "
       << want.target_node << "/" << got.target_node;
    return os.str();
  }
  if (want.nodes.size() != got.nodes.size()) {
    os << "node count " << want.nodes.size() << " vs " << got.nodes.size();
    return os.str();
  }
  for (size_t i = 0; i < want.nodes.size(); ++i) {
    const reference::GraphNode& w = want.nodes[i];
    const GraphNode& g = got.nodes[i];
    if (w.kind != g.kind || w.address != g.address || w.txid != g.txid ||
        w.merged_count != g.merged_count) {
      os << "node " << i << " header";
      return os.str();
    }
    if (w.features.size() != g.features.size() ||
        !SameBits(w.features.data(), g.features.data(),
                  w.features.size() * sizeof(double))) {
      os << "node " << i << " features";
      return os.str();
    }
  }
  if (want.edges.size() != got.edges.size()) {
    os << "edge count " << want.edges.size() << " vs " << got.edges.size();
    return os.str();
  }
  for (size_t k = 0; k < want.edges.size(); ++k) {
    const reference::GraphEdge& w = want.edges[k];
    const GraphEdge& g = got.edges[k];
    if (w.from != g.from || w.to != g.to || w.is_input != g.is_input ||
        !SameBits(&w.value, &g.value, sizeof(double))) {
      os << "edge " << k;
      return os.str();
    }
  }
  return "";
}

bool SameTensor(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.shape() == b.shape() &&
         SameBits(a.data(), b.data(),
                  static_cast<size_t>(a.numel()) * sizeof(float));
}

/// First difference between reference tensors and flat ones, or "".
std::string TensorDiff(const GraphTensors& want, const GraphTensors& got) {
  if (!SameTensor(want.base_features, got.base_features)) {
    return "base_features";
  }
  if (!SameTensor(want.augmented, got.augmented)) return "augmented";
  const graph::SparseMatrix& w = *want.norm_adj;
  const graph::SparseMatrix& g = *got.norm_adj;
  if (w.rows() != g.rows() || w.cols() != g.cols() || w.nnz() != g.nnz()) {
    return "norm_adj shape";
  }
  for (int64_t r = 0; r < w.rows(); ++r) {
    const auto wi = w.RowIndices(r);
    const auto gi = g.RowIndices(r);
    const auto wv = w.RowValues(r);
    const auto gv = g.RowValues(r);
    if (wi.size() != gi.size() ||
        !SameBits(wi.data(), gi.data(), wi.size() * sizeof(int64_t)) ||
        !SameBits(wv.data(), gv.data(), wv.size() * sizeof(float))) {
      return "norm_adj row " + std::to_string(r);
    }
  }
  return "";
}

/// One pipeline configuration of the sweep.
struct Config {
  std::string name;
  int slice_size = 100;
  double psi = 0.5;
  int sigma = 1;
  bool single = true;
  bool multi = true;
  bool augment = true;
  int max_txs = 2000;

  GraphConstructorOptions Options() const {
    GraphConstructorOptions o;
    o.slice_size = slice_size;
    o.similarity_threshold = psi;
    o.sigma = sigma;
    o.enable_single_compression = single;
    o.enable_multi_compression = multi;
    o.enable_augmentation = augment;
    o.max_txs_per_address = max_txs;
    return o;
  }
};

void PrintTo(const Config& config, std::ostream* os) { *os << config.name; }

std::vector<Config> SweepConfigs() {
  std::vector<Config> out;
  for (int slice : {20, 100}) {
    const std::string base = "Slice" + std::to_string(slice) + "Dense";
    Config c;
    c.slice_size = slice;
    out.push_back(c);
    out.back().name = base + "AllStages";
    out.push_back(c);
    out.back().name = base + "NoSingle";
    out.back().single = false;
    out.push_back(c);
    out.back().name = base + "NoMulti";
    out.back().multi = false;
    out.push_back(c);
    out.back().name = base + "NoAugment";
    out.back().augment = false;
  }
  // Stage 3's threshold and seed size, with the threshold on both sides
  // of and exactly at overlap fractions such as 1/3, 1/2 and 1.
  const std::pair<double, const char*> psis[] = {
      {0.0, "0"}, {0.3, "30"}, {1.0 / 3.0, "Third"},
      {0.8, "80"}, {1.0, "100"}};
  for (int slice : {20, 100}) {
    for (const auto& [psi, psi_name] : psis) {
      for (int sigma : {0, 1, 2}) {
        Config c;
        c.name = "Slice" + std::to_string(slice) + "Psi" + psi_name +
                 "Sigma" + std::to_string(sigma);
        c.slice_size = slice;
        c.psi = psi;
        c.sigma = sigma;
        out.push_back(c);
      }
    }
  }
  // The history cap cuts an address's list mid-slice.
  Config capped;
  capped.name = "Slice20Capped30";
  capped.slice_size = 20;
  capped.max_txs = 30;
  out.push_back(capped);
  return out;
}

/// The simulated economy every case reads, built once.
const datagen::Simulator& Economy() {
  static const std::unique_ptr<datagen::Simulator> sim = [] {
    datagen::ScenarioConfig config;
    config.seed = 29;
    config.num_blocks = 90;
    config.num_mining_pools = 2;
    config.miners_per_pool = 15;
    config.num_exchanges = 2;
    config.num_gambling_houses = 2;
    config.gamblers_per_house = 10;
    config.num_services = 2;
    config.num_retail_users = 30;
    auto s = std::make_unique<datagen::Simulator>(config);
    BA_CHECK_OK(s->Run());
    return s;
  }();
  return *sim;
}

/// Every address of the economy with at least one transaction.
std::vector<chain::AddressId> ActiveAddresses(
    const chain::LedgerSnapshot& snapshot) {
  std::vector<chain::AddressId> out;
  for (size_t a = 0; a < snapshot.num_addresses(); ++a) {
    const auto id = static_cast<chain::AddressId>(a);
    if (snapshot.TxCountOf(id) > 0) out.push_back(id);
  }
  return out;
}

constexpr int kMaxHops = 3;

/// The reference's graphs of one address window and, per graph, its
/// tensors for k = 0..kMaxHops.
struct Expected {
  std::vector<reference::AddressGraph> graphs;
  std::vector<std::vector<GraphTensors>> tensors;
};

Expected ReferenceBuild(const GraphConstructorOptions& options,
                        const chain::LedgerSnapshot& snapshot,
                        chain::AddressId address, int start_slice,
                        int end_slice) {
  Expected out;
  out.graphs = reference::BuildGraphsFrom(options, snapshot, address,
                                          start_slice, end_slice);
  for (const auto& g : out.graphs) {
    out.tensors.emplace_back();
    for (int k = 0; k <= kMaxHops; ++k) {
      out.tensors.back().push_back(reference::PrepareGraphTensors(g, k));
    }
  }
  return out;
}

/// Builds the window with `constructor` and compares graphs and
/// tensors against `want`. Returns the first difference, or "".
std::string CompareWith(const Expected& want, GraphConstructor* constructor,
                        const chain::LedgerSnapshot& snapshot,
                        chain::AddressId address, int start_slice,
                        int end_slice) {
  const auto got =
      constructor->BuildGraphsFrom(snapshot, address, start_slice, end_slice);
  if (want.graphs.size() != got.size()) {
    return "address " + std::to_string(address) + ": slice count " +
           std::to_string(want.graphs.size()) + " vs " +
           std::to_string(got.size());
  }
  for (size_t s = 0; s < got.size(); ++s) {
    const std::string where = "address " + std::to_string(address) +
                              " slice " + std::to_string(got[s].slice_index);
    const std::string diff = GraphDiff(want.graphs[s], got[s]);
    if (!diff.empty()) return where + ": " + diff;
    for (int k = 0; k <= kMaxHops; ++k) {
      const std::string tdiff =
          TensorDiff(want.tensors[s][static_cast<size_t>(k)],
                     PrepareGraphTensors(got[s], k));
      if (!tdiff.empty()) {
        return where + " k=" + std::to_string(k) + ": " + tdiff;
      }
    }
  }
  return "";
}

std::string CompareAddress(const GraphConstructorOptions& options,
                           GraphConstructor* constructor,
                           const chain::LedgerSnapshot& snapshot,
                           chain::AddressId address, int start_slice = 0,
                           int end_slice = GraphConstructor::kAllSlices) {
  return CompareWith(
      ReferenceBuild(options, snapshot, address, start_slice, end_slice),
      constructor, snapshot, address, start_slice, end_slice);
}

class FlatConstructionTest : public ::testing::TestWithParam<Config> {};

TEST_P(FlatConstructionTest, EverySliceMatchesReferenceBitwise) {
  const Config& config = GetParam();
  const GraphConstructorOptions options = config.Options();
  const chain::LedgerSnapshot snapshot = Economy().ledger().Snapshot();
  GraphConstructor constructor(options);
  const auto addresses = ActiveAddresses(snapshot);
  ASSERT_GT(addresses.size(), 100u);
  int slices = 0;
  for (chain::AddressId a : addresses) {
    const std::string diff =
        CompareAddress(options, &constructor, snapshot, a);
    ASSERT_EQ(diff, "") << config.name;
    slices += static_cast<int>(
        (std::min(snapshot.TxCountOf(a), static_cast<size_t>(config.max_txs)) +
         static_cast<size_t>(config.slice_size) - 1) /
        static_cast<size_t>(config.slice_size));
  }
  EXPECT_GT(slices, static_cast<int>(addresses.size()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FlatConstructionTest, ::testing::ValuesIn(SweepConfigs()),
    [](const ::testing::TestParamInfo<Config>& info) {
      return info.param.name;
    });

// Windows of a long history copy only their own transaction ids; each
// window must equal the reference's same window.
TEST(FlatConstructionWindowTest, SliceWindowsMatchReferenceBitwise) {
  GraphConstructorOptions options;
  options.slice_size = 20;
  const chain::LedgerSnapshot snapshot = Economy().ledger().Snapshot();
  GraphConstructor constructor(options);
  int windows = 0;
  for (chain::AddressId a : ActiveAddresses(snapshot)) {
    const int slices =
        static_cast<int>((snapshot.TxCountOf(a) + 19) / 20);
    if (slices < 3) continue;
    for (const auto& [start, end] :
         std::vector<std::pair<int, int>>{{1, 2},
                                          {1, slices - 1},
                                          {slices - 1, slices},
                                          {2, GraphConstructor::kAllSlices},
                                          {slices, slices + 1}}) {
      ASSERT_EQ(CompareAddress(options, &constructor, snapshot, a, start, end),
                "")
          << "window [" << start << ", " << end << ")";
      ++windows;
    }
  }
  EXPECT_GT(windows, 10);
}

// Four threads build at once, each a large slice and then a small one
// on the same thread, so the small graph runs on scratch left sized
// (and filled) by the large one; every result must equal the serial
// reference.
TEST(FlatConstructionThreadTest, ConcurrentBuildsMatchSerialReference) {
  GraphConstructorOptions options;
  options.slice_size = 100;
  const chain::LedgerSnapshot snapshot = Economy().ledger().Snapshot();
  // The address whose first slice has the most raw nodes, and one with
  // a single transaction.
  GraphConstructorOptions raw = options;
  raw.enable_single_compression = false;
  raw.enable_multi_compression = false;
  raw.enable_augmentation = false;
  chain::AddressId large = 0;
  chain::AddressId small = 0;
  size_t most = 0;
  for (chain::AddressId a : ActiveAddresses(snapshot)) {
    const auto g = reference::ExtractOriginalGraphs(raw, snapshot, a, 0, 1);
    if (g[0].nodes.size() > most) {
      most = g[0].nodes.size();
      large = a;
    }
    if (snapshot.TxCountOf(a) == 1) small = a;
  }
  ASSERT_GT(most, 40u);
  ASSERT_EQ(snapshot.TxCountOf(small), 1u);

  const Expected want_large = ReferenceBuild(
      options, snapshot, large, 0, GraphConstructor::kAllSlices);
  const Expected want_small = ReferenceBuild(
      options, snapshot, small, 0, GraphConstructor::kAllSlices);
  constexpr int kThreads = 4;
  constexpr int kRounds = 6;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      GraphConstructor constructor(options);
      std::string& failure = failures[static_cast<size_t>(t)];
      for (int round = 0; round < kRounds && failure.empty(); ++round) {
        failure = CompareWith(want_large, &constructor, snapshot, large, 0,
                              GraphConstructor::kAllSlices);
        if (!failure.empty()) break;
        failure = CompareWith(want_small, &constructor, snapshot, small, 0,
                              GraphConstructor::kAllSlices);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[static_cast<size_t>(t)], "") << "thread " << t;
  }
}

}  // namespace
}  // namespace ba::core
