// Tests for the four-stage address graph construction pipeline
// (§III-A): slicing, single- and multi-transaction compression, and
// structure augmentation.

#include <gtest/gtest.h>

#include <set>

#include "chain/ledger.h"
#include "chain/wallet.h"
#include "core/gfn_features.h"
#include "core/graph_builder.h"
#include "core/graph_dataset.h"
#include "obs/trace.h"

namespace ba::core {
namespace {

using chain::AddressId;
using chain::Amount;
using chain::Ledger;
using chain::LedgerOptions;
using chain::OutPoint;
using chain::TxDraft;

constexpr Amount kCoin = 100'000'000;

/// Fixture economy: a "pool-like" target address that receives
/// coinbases and pays many recipients per transaction.
class GraphBuilderTest : public ::testing::Test {
 protected:
  GraphBuilderTest() : ledger_(LedgerOptions{.block_subsidy = 100 * kCoin}) {}

  /// Funds `target` with one coinbase and seals a block.
  chain::TxId FundTarget(AddressId target, chain::Timestamp t) {
    auto cb = ledger_.ApplyCoinbase(t, target);
    EXPECT_TRUE(cb.ok());
    EXPECT_TRUE(ledger_.SealBlock(t).ok());
    return cb.value();
  }

  Ledger ledger_;
};

TEST_F(GraphBuilderTest, EmptyHistoryYieldsNoGraphs) {
  const AddressId a = ledger_.NewAddress();
  GraphConstructor constructor;
  EXPECT_TRUE(constructor.BuildGraphs(ledger_, a).empty());
}

TEST_F(GraphBuilderTest, SlicingProducesCeilGraphs) {
  const AddressId target = ledger_.NewAddress();
  // 7 transactions, slice size 3 -> 3 graphs (3, 3, 1).
  for (int i = 0; i < 7; ++i) FundTarget(target, i * 600);
  GraphConstructorOptions opts;
  opts.slice_size = 3;
  opts.enable_single_compression = false;
  opts.enable_multi_compression = false;
  opts.enable_augmentation = false;
  GraphConstructor constructor(opts);
  const auto graphs = constructor.BuildGraphs(ledger_, target);
  ASSERT_EQ(graphs.size(), 3u);
  EXPECT_EQ(graphs[0].CountKind(NodeKind::kTransaction), 3);
  EXPECT_EQ(graphs[1].CountKind(NodeKind::kTransaction), 3);
  EXPECT_EQ(graphs[2].CountKind(NodeKind::kTransaction), 1);
  for (const auto& g : graphs) {
    EXPECT_EQ(g.target, target);
    EXPECT_EQ(g.nodes[static_cast<size_t>(g.target_node)].address, target);
  }
  EXPECT_EQ(graphs[2].slice_index, 2);
}

TEST_F(GraphBuilderTest, OriginalGraphEdgesMatchLedger) {
  const AddressId target = ledger_.NewAddress();
  const auto cb = FundTarget(target, 0);
  // One payment: target -> {b, c} + change.
  const AddressId b = ledger_.NewAddress();
  const AddressId c = ledger_.NewAddress();
  TxDraft draft;
  draft.timestamp = 600;
  draft.inputs = {OutPoint{cb, 0}};
  draft.outputs = {{b, 30 * kCoin}, {c, 20 * kCoin}, {target, 50 * kCoin}};
  ASSERT_TRUE(ledger_.ApplyTransaction(draft).ok());
  ASSERT_TRUE(ledger_.SealBlock(600).ok());

  GraphConstructorOptions opts;
  opts.enable_single_compression = false;
  opts.enable_multi_compression = false;
  opts.enable_augmentation = false;
  GraphConstructor constructor(opts);
  const auto graphs = constructor.BuildGraphs(ledger_, target);
  ASSERT_EQ(graphs.size(), 1u);
  const AddressGraph& g = graphs[0];
  // Nodes: target, b, c addresses + 2 tx nodes.
  EXPECT_EQ(g.CountKind(NodeKind::kAddress), 3);
  EXPECT_EQ(g.CountKind(NodeKind::kTransaction), 2);
  // Edge values in BTC: coinbase output 100; spend input 100 + outputs.
  double total_value = 0.0;
  int input_edges = 0;
  for (const auto& e : g.edges) {
    total_value += e.value;
    input_edges += e.is_input;
  }
  EXPECT_EQ(input_edges, 1);  // only the target funds the payment
  EXPECT_NEAR(total_value, 100.0 + 100.0 + 30.0 + 20.0 + 50.0, 1e-9);
}

TEST_F(GraphBuilderTest, NodeFeaturesAreWellFormed) {
  const AddressId target = ledger_.NewAddress();
  FundTarget(target, 0);
  GraphConstructor constructor;
  const auto graphs = constructor.BuildGraphs(ledger_, target);
  ASSERT_EQ(graphs.size(), 1u);
  for (const auto& node : graphs[0].nodes) {
    ASSERT_EQ(node.features.size(), static_cast<size_t>(kNodeFeatureDim));
    // Exactly one kind flag set.
    double kind_sum = 0.0;
    for (int k = 0; k < kNumNodeKinds; ++k) {
      kind_sum += node.features[static_cast<size_t>(k)];
    }
    EXPECT_DOUBLE_EQ(kind_sum, 1.0);
    for (double f : node.features) EXPECT_TRUE(std::isfinite(f));
  }
}

TEST_F(GraphBuilderTest, SingleCompressionMergesFanOut) {
  const AddressId target = ledger_.NewAddress();
  const auto cb = FundTarget(target, 0);
  // Payout with 20 one-shot recipients (single-transaction addresses).
  TxDraft draft;
  draft.timestamp = 600;
  draft.inputs = {OutPoint{cb, 0}};
  for (int i = 0; i < 20; ++i) {
    draft.outputs.push_back({ledger_.NewAddress(), 5 * kCoin});
  }
  ASSERT_TRUE(ledger_.ApplyTransaction(draft).ok());
  ASSERT_TRUE(ledger_.SealBlock(600).ok());

  GraphConstructorOptions opts;
  opts.enable_multi_compression = false;
  opts.enable_augmentation = false;
  GraphConstructor constructor(opts);
  const auto graphs = constructor.BuildGraphs(ledger_, target);
  ASSERT_EQ(graphs.size(), 1u);
  const AddressGraph& g = graphs[0];
  // The 20 recipients merge into ONE single-transaction hyper node.
  EXPECT_EQ(g.CountKind(NodeKind::kSingleHyper), 1);
  EXPECT_EQ(g.CountKind(NodeKind::kAddress), 1);  // only the target
  // Hyper node records how many addresses it represents.
  for (const auto& node : g.nodes) {
    if (node.kind == NodeKind::kSingleHyper) {
      EXPECT_EQ(node.merged_count, 20);
    }
  }
  // Value is conserved through the merge: the hyper edge sums members.
  double hyper_out = 0.0;
  for (const auto& e : g.edges) {
    if (g.nodes[static_cast<size_t>(e.to)].kind == NodeKind::kSingleHyper) {
      hyper_out += e.value;
    }
  }
  EXPECT_NEAR(hyper_out, 100.0, 1e-9);
}

TEST_F(GraphBuilderTest, SingleCompressionNeverMergesTarget) {
  const AddressId target = ledger_.NewAddress();
  const auto cb = FundTarget(target, 0);
  TxDraft draft;
  draft.timestamp = 600;
  draft.inputs = {OutPoint{cb, 0}};
  draft.outputs = {{ledger_.NewAddress(), 50 * kCoin},
                   {ledger_.NewAddress(), 50 * kCoin}};
  ASSERT_TRUE(ledger_.ApplyTransaction(draft).ok());
  ASSERT_TRUE(ledger_.SealBlock(600).ok());

  GraphConstructor constructor;
  const auto graphs = constructor.BuildGraphs(ledger_, target);
  ASSERT_EQ(graphs.size(), 1u);
  const auto& g = graphs[0];
  EXPECT_EQ(g.nodes[static_cast<size_t>(g.target_node)].address, target);
  EXPECT_EQ(g.nodes[static_cast<size_t>(g.target_node)].kind,
            NodeKind::kAddress);
}

TEST_F(GraphBuilderTest, MultiCompressionMergesCoOccurringAddresses) {
  // Mining-pool pattern: the same 10 "miners" are paid in every payout.
  const AddressId target = ledger_.NewAddress();
  std::vector<AddressId> miners;
  for (int i = 0; i < 10; ++i) miners.push_back(ledger_.NewAddress());
  for (int round = 0; round < 4; ++round) {
    const auto cb = FundTarget(target, round * 1200);
    TxDraft draft;
    draft.timestamp = round * 1200 + 600;
    draft.inputs = {OutPoint{cb, 0}};
    for (AddressId m : miners) draft.outputs.push_back({m, 10 * kCoin});
    ASSERT_TRUE(ledger_.ApplyTransaction(draft).ok());
    ASSERT_TRUE(ledger_.SealBlock(draft.timestamp).ok());
  }

  GraphConstructorOptions opts;
  opts.enable_single_compression = false;
  opts.enable_augmentation = false;
  opts.similarity_threshold = 0.5;
  opts.sigma = 1;
  GraphConstructor constructor(opts);
  const auto graphs = constructor.BuildGraphs(ledger_, target);
  ASSERT_EQ(graphs.size(), 1u);
  const AddressGraph& g = graphs[0];
  // All 10 miners co-occur in all 4 payouts: similarity 1 > Ψ -> one
  // multi-transaction hyper node.
  EXPECT_EQ(g.CountKind(NodeKind::kMultiHyper), 1);
  EXPECT_EQ(g.CountKind(NodeKind::kAddress), 1);  // target only
  for (const auto& node : g.nodes) {
    if (node.kind == NodeKind::kMultiHyper) {
      EXPECT_EQ(node.merged_count, 10);
    }
  }
}

TEST_F(GraphBuilderTest, MultiCompressionRespectsThreshold) {
  // Two disjoint miner cliques paid by disjoint transaction sets: the
  // cliques must merge separately, never together.
  const AddressId target = ledger_.NewAddress();
  std::vector<AddressId> clique_a, clique_b;
  for (int i = 0; i < 5; ++i) clique_a.push_back(ledger_.NewAddress());
  for (int i = 0; i < 5; ++i) clique_b.push_back(ledger_.NewAddress());
  for (int round = 0; round < 4; ++round) {
    const auto cb = FundTarget(target, round * 1200);
    TxDraft draft;
    draft.timestamp = round * 1200 + 600;
    draft.inputs = {OutPoint{cb, 0}};
    const auto& clique = (round % 2 == 0) ? clique_a : clique_b;
    for (AddressId m : clique) draft.outputs.push_back({m, 20 * kCoin});
    ASSERT_TRUE(ledger_.ApplyTransaction(draft).ok());
    ASSERT_TRUE(ledger_.SealBlock(draft.timestamp).ok());
  }

  GraphConstructorOptions opts;
  opts.enable_single_compression = false;
  opts.enable_augmentation = false;
  GraphConstructor constructor(opts);
  const auto graphs = constructor.BuildGraphs(ledger_, target);
  ASSERT_EQ(graphs.size(), 1u);
  EXPECT_EQ(graphs[0].CountKind(NodeKind::kMultiHyper), 2);
}

TEST_F(GraphBuilderTest, AugmentationFillsCentralitySlots) {
  const AddressId target = ledger_.NewAddress();
  const auto cb = FundTarget(target, 0);
  TxDraft draft;
  draft.timestamp = 600;
  draft.inputs = {OutPoint{cb, 0}};
  for (int i = 0; i < 5; ++i) {
    draft.outputs.push_back({ledger_.NewAddress(), 20 * kCoin});
  }
  ASSERT_TRUE(ledger_.ApplyTransaction(draft).ok());
  ASSERT_TRUE(ledger_.SealBlock(600).ok());

  GraphConstructor constructor;  // all stages on
  const auto graphs = constructor.BuildGraphs(ledger_, target);
  ASSERT_EQ(graphs.size(), 1u);
  const int base = kCentralityFeatureOffset;
  bool any_degree = false;
  for (const auto& node : graphs[0].nodes) {
    // Degree slot: log1p(degree) >= 0; connected nodes > 0.
    EXPECT_GE(node.features[static_cast<size_t>(base)], 0.0);
    if (node.features[static_cast<size_t>(base)] > 0.0) any_degree = true;
    // PageRank slot present and finite.
    EXPECT_TRUE(std::isfinite(node.features[static_cast<size_t>(base + 3)]));
  }
  EXPECT_TRUE(any_degree);
}

TEST_F(GraphBuilderTest, TimingsAccumulatePerStage) {
  const AddressId target = ledger_.NewAddress();
  for (int i = 0; i < 5; ++i) FundTarget(target, i * 600);
  GraphConstructor constructor;
  ASSERT_FALSE(constructor.BuildGraphs(ledger_, target).empty());
  const StageTimings& t = constructor.timings();
  EXPECT_GT(t.extract_seconds, 0.0);
  EXPECT_GT(t.TotalSeconds(), 0.0);
  EXPECT_GE(t.single_compress_seconds, 0.0);
  constructor.ResetTimings();
  EXPECT_DOUBLE_EQ(constructor.timings().TotalSeconds(), 0.0);
}

TEST_F(GraphBuilderTest, DeterministicAcrossRuns) {
  const AddressId target = ledger_.NewAddress();
  const auto cb = FundTarget(target, 0);
  TxDraft draft;
  draft.timestamp = 600;
  draft.inputs = {OutPoint{cb, 0}};
  for (int i = 0; i < 8; ++i) {
    draft.outputs.push_back({ledger_.NewAddress(), 10 * kCoin});
  }
  ASSERT_TRUE(ledger_.ApplyTransaction(draft).ok());
  ASSERT_TRUE(ledger_.SealBlock(600).ok());

  GraphConstructor c1, c2;
  const auto g1 = c1.BuildGraphs(ledger_, target);
  const auto g2 = c2.BuildGraphs(ledger_, target);
  ASSERT_EQ(g1.size(), g2.size());
  ASSERT_EQ(g1[0].num_nodes(), g2[0].num_nodes());
  ASSERT_EQ(g1[0].num_edges(), g2[0].num_edges());
  for (int i = 0; i < g1[0].num_nodes(); ++i) {
    EXPECT_EQ(g1[0].nodes[static_cast<size_t>(i)].features,
              g2[0].nodes[static_cast<size_t>(i)].features);
  }
}

TEST_F(GraphBuilderTest, MaxTxCapLimitsSliceCount) {
  const AddressId target = ledger_.NewAddress();
  for (int i = 0; i < 30; ++i) FundTarget(target, i * 600);
  GraphConstructorOptions opts;
  opts.slice_size = 10;
  opts.max_txs_per_address = 15;
  GraphConstructor constructor(opts);
  const auto graphs = constructor.BuildGraphs(ledger_, target);
  EXPECT_EQ(graphs.size(), 2u);  // ceil(15 / 10)
}

TEST_F(GraphBuilderTest, SliceWindowsConcatenateToTheWholeHistory) {
  const AddressId target = ledger_.NewAddress();
  for (int i = 0; i < 25; ++i) FundTarget(target, i * 600);
  GraphConstructorOptions opts;
  opts.slice_size = 4;  // 25 txs -> 7 slices
  GraphConstructor whole(opts);
  GraphConstructor windowed(opts);
  const auto snapshot = ledger_.Snapshot();
  const auto all = whole.BuildGraphs(snapshot, target);
  ASSERT_EQ(all.size(), 7u);
  std::vector<AddressGraph> joined;
  for (int begin = 0; begin < 7; begin += 3) {
    for (auto& g : windowed.BuildGraphsFrom(snapshot, target, begin,
                                            begin + 3)) {
      joined.push_back(std::move(g));
    }
  }
  ASSERT_EQ(joined.size(), all.size());
  for (size_t s = 0; s < all.size(); ++s) {
    EXPECT_EQ(joined[s].slice_index, all[s].slice_index);
    ASSERT_EQ(joined[s].num_nodes(), all[s].num_nodes());
    EXPECT_EQ(joined[s].num_edges(), all[s].num_edges());
    for (int i = 0; i < all[s].num_nodes(); ++i) {
      EXPECT_EQ(joined[s].nodes[static_cast<size_t>(i)].features,
                all[s].nodes[static_cast<size_t>(i)].features);
    }
  }
  EXPECT_TRUE(windowed.BuildGraphsFrom(snapshot, target, 5, 5).empty());
}

TEST_F(GraphBuilderTest, GfnTensorsHaveAugmentedWidth) {
  const AddressId target = ledger_.NewAddress();
  FundTarget(target, 0);
  GraphConstructor constructor;
  const auto graphs = constructor.BuildGraphs(ledger_, target);
  ASSERT_EQ(graphs.size(), 1u);
  for (int k : {0, 1, 2, 3}) {
    const GraphTensors gt = PrepareGraphTensors(graphs[0], k);
    EXPECT_EQ(gt.base_features.dim(1), kNodeFeatureDim);
    EXPECT_EQ(gt.augmented.dim(1), AugmentedDim(k));
    EXPECT_EQ(gt.augmented.dim(0), graphs[0].num_nodes());
    EXPECT_EQ(gt.norm_adj->rows(), graphs[0].num_nodes());
    // Hop-0 block of the augmented features equals the base features.
    for (int64_t i = 0; i < gt.base_features.dim(0); ++i) {
      for (int64_t j = 0; j < kNodeFeatureDim; ++j) {
        EXPECT_FLOAT_EQ(gt.augmented.at(i, 1 + j), gt.base_features.at(i, j));
      }
    }
  }
}

TEST_F(GraphBuilderTest, DatasetBuilderDropsEmptyAndKeepsLabels) {
  const AddressId active = ledger_.NewAddress();
  const AddressId silent = ledger_.NewAddress();
  FundTarget(active, 0);
  StageTimings timings;
  const auto samples = BuildAddressSamples(
      ledger_.Snapshot(),
      {{active, datagen::BehaviorLabel::kMining},
       {silent, datagen::BehaviorLabel::kExchange}},
      {}, &timings);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].address, active);
  EXPECT_EQ(samples[0].label, static_cast<int>(datagen::BehaviorLabel::kMining));
  EXPECT_EQ(samples[0].graphs.size(), samples[0].tensors.size());
  EXPECT_GT(timings.TotalSeconds(), 0.0);
}

TEST_F(GraphBuilderTest, ParallelDatasetBuildMatchesSerial) {
  std::vector<datagen::LabeledAddress> addresses;
  for (int a = 0; a < 6; ++a) {
    const AddressId target = ledger_.NewAddress();
    for (int i = 0; i < 3; ++i) {
      FundTarget(target, (a * 10 + i) * 600);
    }
    addresses.push_back({target, datagen::BehaviorLabel::kMining});
  }
  GraphDatasetOptions serial_opts;
  GraphDatasetOptions parallel_opts;
  parallel_opts.num_threads = 4;
  const auto s =
      BuildAddressSamples(ledger_.Snapshot(), addresses, serial_opts);
  const auto p =
      BuildAddressSamples(ledger_.Snapshot(), addresses, parallel_opts);
  ASSERT_EQ(s.size(), p.size());
  for (size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(s[i].address, p[i].address);
    ASSERT_EQ(s[i].graphs.size(), p[i].graphs.size());
    for (size_t g = 0; g < s[i].graphs.size(); ++g) {
      EXPECT_EQ(s[i].graphs[g].num_nodes(), p[i].graphs[g].num_nodes());
      EXPECT_EQ(s[i].graphs[g].num_edges(), p[i].graphs[g].num_edges());
    }
  }
}

TEST_F(GraphBuilderTest, DatasetTimingsAccumulateAcrossCalls) {
  const AddressId target = ledger_.NewAddress();
  for (int i = 0; i < 4; ++i) FundTarget(target, i * 600);
  const std::vector<datagen::LabeledAddress> addresses = {
      {target, datagen::BehaviorLabel::kMining}};
  const chain::LedgerSnapshot snapshot = ledger_.Snapshot();
  StageTimings timings;
  BuildAddressSamples(snapshot, addresses, {}, &timings);
  const StageTimings first = timings;
  ASSERT_GT(first.TotalSeconds(), 0.0);
  BuildAddressSamples(snapshot, addresses, {}, &timings);
  EXPECT_GT(timings.TotalSeconds(), first.TotalSeconds());
  EXPECT_GE(timings.extract_seconds, first.extract_seconds);
  EXPECT_GE(timings.single_compress_seconds, first.single_compress_seconds);
  EXPECT_GE(timings.multi_compress_seconds, first.multi_compress_seconds);
  EXPECT_GE(timings.augment_seconds, first.augment_seconds);
  // Without a sink the samples are the same and nothing is recorded.
  EXPECT_EQ(BuildAddressSamples(snapshot, addresses, {}).size(), 1u);
}

TEST_F(GraphBuilderTest, DatasetBuildStartsNoMoreThreadsThanAddresses) {
  const AddressId target = ledger_.NewAddress();
  FundTarget(target, 0);
  GraphDatasetOptions opts;
  opts.num_threads = 4;
  obs::Tracer::Instance().Enable();
  const auto samples = BuildAddressSamples(
      ledger_.Snapshot(), {{target, datagen::BehaviorLabel::kMining}}, opts);
  const std::string json = obs::Tracer::Instance().ToJson();
  obs::Tracer::Instance().Disable();
  obs::Tracer::Instance().Reset();
  EXPECT_EQ(samples.size(), 1u);
  EXPECT_NE(json.find("\"addresses\":1,\"threads\":1}"), std::string::npos)
      << json;
}

}  // namespace
}  // namespace ba::core
