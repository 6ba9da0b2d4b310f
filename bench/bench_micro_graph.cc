// Micro-benchmarks (google-benchmark) for the hot kernels: SFE,
// centrality measures, SpMM, normalized adjacency, the individual
// construction stages on a fixed economy, per-slice
// construction and tensor prep in the serving regime, the two
// inference layers of a cold miss (GFN embed, LSTM aggregate) and the
// one-row GEMM under both.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "chain/ledger.h"
#include "core/aggregator.h"
#include "core/gfn_features.h"
#include "core/graph_builder.h"
#include "core/graph_model.h"
#include "core/sfe.h"
#include "datagen/simulator.h"
#include "graph/centrality.h"
#include "graph/sparse_matrix.h"
#include "tensor/gemm.h"
#include "util/rng.h"

namespace {

std::vector<double> RandomValues(int64_t n, uint64_t seed) {
  ba::Rng rng(seed);
  std::vector<double> v(static_cast<size_t>(n));
  for (auto& x : v) x = rng.LogNormal(0.0, 1.0);
  return v;
}

void BM_Sfe(benchmark::State& state) {
  const auto values = RandomValues(state.range(0), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ba::core::ComputeCompressedSfe(values));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sfe)->Arg(16)->Arg(256)->Arg(4096);

ba::graph::AdjacencyList RandomGraph(int64_t n, int64_t edges,
                                     uint64_t seed) {
  ba::Rng rng(seed);
  std::vector<ba::graph::Edge> edge_list;
  for (int64_t e = 0; e < edges; ++e) {
    edge_list.push_back(
        {static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(n))),
         static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(n)))});
  }
  return ba::graph::AdjacencyList(n, edge_list);
}

void BM_Betweenness(benchmark::State& state) {
  const auto g = RandomGraph(state.range(0), state.range(0) * 3, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ba::graph::BetweennessCentrality(g));
  }
}
BENCHMARK(BM_Betweenness)->Arg(64)->Arg(256)->Arg(512);

void BM_Closeness(benchmark::State& state) {
  const auto g = RandomGraph(state.range(0), state.range(0) * 3, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ba::graph::ClosenessCentrality(g));
  }
}
BENCHMARK(BM_Closeness)->Arg(64)->Arg(256)->Arg(512);

void BM_PageRank(benchmark::State& state) {
  const auto g = RandomGraph(state.range(0), state.range(0) * 3, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ba::graph::PageRank(g));
  }
}
BENCHMARK(BM_PageRank)->Arg(256)->Arg(2048);

void BM_SpmmDense(benchmark::State& state) {
  ba::Rng rng(6);
  const int64_t n = state.range(0);
  const auto g = RandomGraph(n, n * 4, 7);
  const auto norm = ba::graph::NormalizedAdjacency(g);
  std::vector<float> x(static_cast<size_t>(n) * 23);
  for (auto& v : x) v = static_cast<float>(rng.Gaussian());
  std::vector<float> y(x.size());
  for (auto _ : state) {
    norm.MultiplyDense(x.data(), 23, y.data());
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_SpmmDense)->Arg(256)->Arg(2048);

/// GraphModel::Embed on an untrained default GFN (k = 2) over n nodes
/// of random X^G. GFN reads only X^G, so the other tensors stay empty.
/// Node counts are the graph fixtures' (16 from BM_Sfe, the rest from
/// the centrality benchmarks).
void BM_GfnEmbed(benchmark::State& state) {
  const ba::core::GraphModelOptions options;
  const ba::core::GraphModel model(options);
  ba::Rng rng(8);
  ba::core::GraphTensors gt;
  gt.augmented = ba::tensor::Tensor::RandomNormal(
      {state.range(0), ba::core::AugmentedDim(options.k_hops)}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Embed(gt));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GfnEmbed)->Arg(16)->Arg(64)->Arg(256)->Arg(512);

/// AggregatorModel::Predict on an untrained default LSTM head over T
/// slice embeddings. T = 1, 4, 12 are the slices a cold_scan miss
/// builds at p50, p90 and p99.
void BM_AggregatorPredict(benchmark::State& state) {
  const ba::core::AggregatorOptions options;
  const ba::core::AggregatorModel model(options);
  ba::Rng rng(9);
  const ba::tensor::Tensor seq = ba::tensor::Tensor::RandomNormal(
      {state.range(0), options.embed_dim}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Predict(seq));
  }
}
BENCHMARK(BM_AggregatorPredict)->Arg(1)->Arg(4)->Arg(12);

/// One-row GEMM C(1,n) = a(1,k)·B(k,n), the inference forward's shape:
/// each LSTM gate per step is 1×64×32 (k = hidden + embed), and the MLP
/// heads run 1×32×32, 1×32×64, 1×32×4 and 1×64×4.
void BM_GemmRow(benchmark::State& state) {
  const int64_t k = state.range(0), n = state.range(1);
  ba::Rng rng(10);
  const ba::tensor::Tensor a = ba::tensor::Tensor::RandomNormal({1, k}, &rng);
  const ba::tensor::Tensor b = ba::tensor::Tensor::RandomNormal({k, n}, &rng);
  ba::tensor::Tensor c({1, n});
  for (auto _ : state) {
    ba::tensor::internal::GemmDispatch(a.data(), k, 1, b.data(), c.data(), 1,
                                       k, n);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * k * n);
}
BENCHMARK(BM_GemmRow)
    ->Args({64, 32})
    ->Args({32, 32})
    ->Args({32, 64})
    ->Args({32, 4})
    ->Args({64, 4});

/// Fixture economy shared by the stage benchmarks.
class StageFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (simulator) return;
    ba::datagen::ScenarioConfig config;
    config.seed = 42;
    config.num_blocks = 200;
    config.miners_per_pool = 40;
    simulator = std::make_unique<ba::datagen::Simulator>(config);
    BA_CHECK_OK(simulator->Run());
    const auto labeled = simulator->CollectLabeledAddresses(3);
    // A busy mining-pool address exercises the worst-case path.
    size_t busiest = 0;
    for (size_t i = 0; i < labeled.size(); ++i) {
      if (simulator->ledger().TransactionsOf(labeled[i].address).size() >
          simulator->ledger().TransactionsOf(labeled[busiest].address)
              .size()) {
        busiest = i;
      }
    }
    address = labeled[busiest].address;
  }

  static std::unique_ptr<ba::datagen::Simulator> simulator;
  static ba::chain::AddressId address;
};

std::unique_ptr<ba::datagen::Simulator> StageFixture::simulator;
ba::chain::AddressId StageFixture::address = 0;

BENCHMARK_F(StageFixture, FullConstruction)(benchmark::State& state) {
  for (auto _ : state) {
    ba::core::GraphConstructor constructor;
    benchmark::DoNotOptimize(
        constructor.BuildGraphs(simulator->ledger(), address));
  }
}

BENCHMARK_F(StageFixture, ExtractionOnly)(benchmark::State& state) {
  ba::core::GraphConstructor constructor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        constructor.ExtractOriginalGraphs(simulator->ledger().Snapshot(),
                                          address));
  }
}

BENCHMARK_F(StageFixture, TensorPreparation)(benchmark::State& state) {
  ba::core::GraphConstructor constructor;
  auto graphs = constructor.BuildGraphs(simulator->ledger(), address);
  for (auto _ : state) {
    for (const auto& g : graphs) {
      benchmark::DoNotOptimize(ba::core::PrepareGraphTensors(g, 2));
    }
  }
}

/// Serving-regime fixture: the benches' standard economy
/// (ScenarioFromFlags' defaults) and every labeled address with >= 2
/// transactions, sliced at 20 transactions as the serving benches and
/// bench_profile slice them. Items are slices, so items/s shows the
/// fixed cost every slice pays, which dominates a cold miss.
class ServingSliceFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (simulator) return;
    const ba::CliFlags no_flags(0, nullptr);
    simulator = std::make_unique<ba::datagen::Simulator>(
        ba::bench::ScenarioFromFlags(no_flags, /*threads=*/0));
    BA_CHECK_OK(simulator->Run());
    options.slice_size = 20;
    ba::core::GraphConstructor constructor(options);
    for (const auto& labeled : simulator->CollectLabeledAddresses(2)) {
      addresses.push_back(labeled.address);
      for (auto& g : constructor.BuildGraphs(simulator->ledger(),
                                             labeled.address)) {
        graphs.push_back(std::move(g));
      }
    }
  }

  static std::unique_ptr<ba::datagen::Simulator> simulator;
  static ba::core::GraphConstructorOptions options;
  static std::vector<ba::chain::AddressId> addresses;
  static std::vector<ba::core::AddressGraph> graphs;
};

std::unique_ptr<ba::datagen::Simulator> ServingSliceFixture::simulator;
ba::core::GraphConstructorOptions ServingSliceFixture::options;
std::vector<ba::chain::AddressId> ServingSliceFixture::addresses;
std::vector<ba::core::AddressGraph> ServingSliceFixture::graphs;

/// Stages 1-4 for every slice of every fixture address.
BENCHMARK_F(ServingSliceFixture, SliceConstruction)(benchmark::State& state) {
  const ba::chain::LedgerSnapshot snapshot = simulator->ledger().Snapshot();
  ba::core::GraphConstructor constructor(options);
  for (auto _ : state) {
    for (const ba::chain::AddressId address : addresses) {
      benchmark::DoNotOptimize(constructor.BuildGraphs(snapshot, address));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(graphs.size()));
}

/// PrepareGraphTensors (k = 2, the default) for every fixture slice.
BENCHMARK_F(ServingSliceFixture, SliceTensorPreparation)
(benchmark::State& state) {
  for (auto _ : state) {
    for (const auto& g : graphs) {
      benchmark::DoNotOptimize(ba::core::PrepareGraphTensors(g, 2));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(graphs.size()));
}

}  // namespace

BENCHMARK_MAIN();
