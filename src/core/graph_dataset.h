#pragma once

#include <vector>

#include "chain/ledger.h"
#include "core/gfn_features.h"
#include "core/graph_builder.h"
#include "datagen/behavior.h"

/// \file graph_dataset.h
/// \brief Materialized per-address samples: the chronological graph
/// list of §III-A plus the tensors the models consume. BuildAddressSamples
/// builds them from one pinned ledger snapshot, once per split, and
/// every experiment on that split shares them.

namespace ba::core {

/// \brief One dataset unit: an address, its label, its graph slices and
/// their tensor views.
struct AddressSample {
  chain::AddressId address = chain::kInvalidAddress;
  /// Behavior class (BehaviorLabel as int), or -1 when unlabeled.
  int label = -1;
  /// Chronological graph slices (Stage 1-4 output).
  std::vector<AddressGraph> graphs;
  /// Tensor views aligned with `graphs`.
  std::vector<GraphTensors> tensors;

  int num_graphs() const { return static_cast<int>(graphs.size()); }
};

/// \brief Options of dataset materialization.
struct GraphDatasetOptions {
  GraphConstructorOptions construction;
  /// Propagation depth k of GFN feature augmentation (Eq. 13).
  int k_hops = 2;
  /// Worker threads for graph construction (1 = serial; Table V uses 1
  /// to report single-core times).
  int num_threads = 1;

  /// \brief Returns OK when every field (including `construction`) is
  /// usable, or a descriptive InvalidArgument.
  Status Validate() const;
};

/// \brief Materializes the samples of `addresses` at `snapshot`'s
/// epoch, in address order; addresses whose history yields no graphs
/// are dropped. The caller builds alongside up to
/// `options.num_threads - 1` workers, never more than there are
/// addresses. When `timings` is non-null, the per-stage construction
/// times (summed over threads: single-core equivalent) are added to it.
std::vector<AddressSample> BuildAddressSamples(
    const chain::LedgerSnapshot& snapshot,
    const std::vector<datagen::LabeledAddress>& addresses,
    const GraphDatasetOptions& options, StageTimings* timings = nullptr);

}  // namespace ba::core
