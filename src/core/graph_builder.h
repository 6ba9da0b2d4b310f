#pragma once

#include <limits>
#include <vector>

#include "chain/ledger.h"
#include "core/address_graph.h"
#include "util/status.h"
#include "util/stopwatch.h"

/// \file graph_builder.h
/// \brief Address Graph Construction (§III-A): the four-stage pipeline
/// that turns a bitcoin address's transaction history into a list of
/// unified, compressed, structurally-augmented graphs.
///
/// Stage 1  original graph extraction   (100-tx chronological slices)
/// Stage 2  single-transaction address compression (Fig 3)
/// Stage 3  multi-transaction address compression  (Eq. 3-7)
/// Stage 4  graph structure augmentation           (Eq. 8-11)
///
/// Per-stage wall-clock accumulators are built in, because Table V of
/// the paper reports exactly this breakdown.
///
/// Every stage runs over flat arrays and per-thread scratch reused from
/// slice to slice (DESIGN.md §4, item 6); the graphs it returns are
/// bit-identical to the hash-map implementation kept as the reference
/// of tests/flat_construction_test.cc.

namespace ba::core {

/// \brief Tunables of the construction pipeline.
struct GraphConstructorOptions {
  /// Transactions per slice; the paper fixes 100. The final slice of an
  /// address may be shorter and is retained.
  int slice_size = 100;
  /// Similarity threshold Ψ of multi-transaction compression (Eq. 5-6).
  double similarity_threshold = 0.5;
  /// σ: minimum number of similar peers for a node to seed a merge.
  int sigma = 1;
  /// Hard cap on transactions considered per address (most recent are
  /// dropped); guards the benches against pathological whales.
  int max_txs_per_address = 2000;
  bool enable_single_compression = true;
  bool enable_multi_compression = true;
  bool enable_augmentation = true;

  /// \brief Returns OK when every field is usable, or a descriptive
  /// InvalidArgument naming the offending field and value.
  Status Validate() const;
};

/// \brief Accumulated per-stage wall-clock seconds (Table V).
struct StageTimings {
  double extract_seconds = 0.0;
  double single_compress_seconds = 0.0;
  double multi_compress_seconds = 0.0;
  double augment_seconds = 0.0;

  double TotalSeconds() const {
    return extract_seconds + single_compress_seconds +
           multi_compress_seconds + augment_seconds;
  }

  StageTimings& operator+=(const StageTimings& other) {
    extract_seconds += other.extract_seconds;
    single_compress_seconds += other.single_compress_seconds;
    multi_compress_seconds += other.multi_compress_seconds;
    augment_seconds += other.augment_seconds;
    return *this;
  }
};

/// \brief Builds address graphs from ledger history.
///
/// Not thread-safe (timing accumulators); give each worker thread its
/// own constructor. Constructors on different threads never share
/// scratch: it is thread-local.
class GraphConstructor {
 public:
  explicit GraphConstructor(GraphConstructorOptions options = {});

  /// \brief Runs all four stages for one address, returning its
  /// chronological graph list (one graph per 100-tx slice). An address
  /// with no transactions yields an empty list.
  ///
  /// The snapshot overload reads the pinned epoch and is safe to run
  /// concurrently with ledger growth; the Ledger overload captures a
  /// snapshot internally (one per call).
  std::vector<AddressGraph> BuildGraphs(const chain::LedgerSnapshot& snapshot,
                                        chain::AddressId address);
  std::vector<AddressGraph> BuildGraphs(const chain::Ledger& ledger,
                                        chain::AddressId address);

  /// Default `end_slice`: through the last slice.
  static constexpr int kAllSlices = std::numeric_limits<int>::max();

  /// \brief Same, but only for slices with index in [`start_slice`,
  /// `end_slice`) — the incremental path of the serving cache: slices
  /// before `start_slice` are immutable on an append-only ledger, so a
  /// caller holding their embeddings only rebuilds the growing tail,
  /// and a bounded `end_slice` lets it build a long history one window
  /// at a time instead of holding every slice graph at once.
  /// `slice_index` of the returned graphs is the absolute index.
  std::vector<AddressGraph> BuildGraphsFrom(
      const chain::LedgerSnapshot& snapshot, chain::AddressId address,
      int start_slice, int end_slice = kAllSlices);

  // -- Individual stages (exposed for tests and the stage benches) ----

  /// Stage 1: slice the address's transactions and build the original
  /// heterogeneous graphs of slices [`start_slice`, `end_slice`) (see
  /// BuildGraphsFrom); the defaults extract every slice. Only the
  /// window's transaction ids are copied out of the snapshot.
  std::vector<AddressGraph> ExtractOriginalGraphs(
      const chain::LedgerSnapshot& snapshot, chain::AddressId address,
      int start_slice = 0, int end_slice = kAllSlices) const;

  /// Stage 2: merge single-transaction counterparty addresses into
  /// per-transaction hyper nodes (input and output side separately).
  /// Hyper nodes are numbered in the iteration order of a fresh
  /// `std::unordered_map` filled in ascending node order.
  void CompressSingleTransactionAddresses(AddressGraph* graph) const;

  /// Stage 3: merge multi-transaction addresses with similar
  /// connectivity via S = A·Aᵀ, M = S·D⁻¹, Q = ReLU(M − Ψ·I). A is the
  /// 0/1 address-transaction incidence, so s_ij is the integer count of
  /// transactions i and j share; it is counted exactly, one row at a
  /// time, through per-transaction lists of candidate rows, and q_ij is
  /// evaluated in the float arithmetic of the dense matrices, so the
  /// merge groups equal those of materializing A, S and Q.
  void CompressMultiTransactionAddresses(AddressGraph* graph) const;

  /// Stage 4: compute degree / closeness / betweenness / PageRank over
  /// the graph's CSR adjacency and write them into the centrality
  /// feature slots of every node.
  void AugmentStructure(AddressGraph* graph) const;

  /// Per-stage time accumulated across BuildGraphs calls.
  const StageTimings& timings() const { return timings_; }
  void ResetTimings() { timings_ = StageTimings{}; }

  const GraphConstructorOptions& options() const { return options_; }

 private:
  GraphConstructorOptions options_;
  StageTimings timings_;
};

}  // namespace ba::core
