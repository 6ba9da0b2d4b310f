#include "core/graph_dataset.h"

#include "obs/trace.h"
#include "util/thread_pool.h"

namespace ba::core {

Status GraphDatasetOptions::Validate() const {
  BA_RETURN_NOT_OK(construction.Validate());
  if (k_hops < 0) {
    return Status::InvalidArgument("dataset.k_hops must be >= 0 (got " +
                                   std::to_string(k_hops) + ")");
  }
  if (num_threads < 1) {
    return Status::InvalidArgument("dataset.num_threads must be >= 1 (got " +
                                   std::to_string(num_threads) + ")");
  }
  return Status::OK();
}

GraphDatasetBuilder::GraphDatasetBuilder(GraphDatasetOptions options)
    : options_(options) {
  BA_CHECK_GE(options_.num_threads, 1);
}

std::vector<AddressSample> GraphDatasetBuilder::Build(
    const chain::Ledger& ledger,
    const std::vector<datagen::LabeledAddress>& addresses) {
  const size_t n = addresses.size();
  obs::ScopedSpan span("core.dataset.build");
  span.AddArg("addresses", static_cast<double>(n));
  span.AddArg("threads", static_cast<double>(options_.num_threads));
  std::vector<AddressSample> samples(n);

  // One snapshot for the whole build: every worker reads the same
  // pinned epoch, so the dataset is consistent even if the ledger grows
  // while construction runs.
  const chain::LedgerSnapshot snapshot = ledger.Snapshot();

  // One constructor per address: it holds nothing but its timings, so
  // each address's stage times land in their own slot and fold in
  // address order whatever thread built them.
  std::vector<StageTimings> address_timings(n);
  auto build_one = [&](size_t i) {
    GraphConstructor constructor(options_.construction);
    AddressSample& sample = samples[i];
    sample.address = addresses[i].address;
    sample.label = static_cast<int>(addresses[i].label);
    sample.graphs = constructor.BuildGraphs(snapshot, addresses[i].address);
    sample.tensors.reserve(sample.graphs.size());
    for (const auto& g : sample.graphs) {
      sample.tensors.push_back(PrepareGraphTensors(g, options_.k_hops));
    }
    address_timings[i] = constructor.timings();
  };
  // The caller builds alongside num_threads - 1 workers, so at most
  // num_threads threads build at once; one thread needs no pool.
  if (options_.num_threads > 1) {
    ThreadPool pool(static_cast<size_t>(options_.num_threads - 1));
    pool.ParallelFor(n, build_one);
  } else {
    for (size_t i = 0; i < n; ++i) build_one(i);
  }
  for (const StageTimings& t : address_timings) timings_ += t;

  // Drop empty histories.
  std::vector<AddressSample> out;
  out.reserve(samples.size());
  for (auto& s : samples) {
    if (!s.graphs.empty()) out.push_back(std::move(s));
  }
  return out;
}

}  // namespace ba::core
