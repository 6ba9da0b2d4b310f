#include "core/graph_dataset.h"

#include <algorithm>

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

std::vector<AddressSample> BuildAddressSamples(
    const chain::LedgerSnapshot& snapshot,
    const std::vector<datagen::LabeledAddress>& addresses,
    const GraphDatasetOptions& options, StageTimings* timings) {
  BA_CHECK_GE(options.num_threads, 1);
  const size_t n = addresses.size();
  const size_t threads = std::min<size_t>(options.num_threads, n);
  obs::ScopedSpan span("core.dataset.build");
  span.AddArg("addresses", static_cast<double>(n));
  span.AddArg("threads", static_cast<double>(threads));
  std::vector<AddressSample> samples(n);

  // One constructor per address: it holds nothing but its timings, so
  // each address's stage times land in their own slot and fold in
  // address order whatever thread built them.
  std::vector<StageTimings> address_timings(n);
  auto build_one = [&](size_t i) {
    GraphConstructor constructor(options.construction);
    AddressSample& sample = samples[i];
    sample.address = addresses[i].address;
    sample.label = static_cast<int>(addresses[i].label);
    sample.graphs = constructor.BuildGraphs(snapshot, addresses[i].address);
    sample.tensors.reserve(sample.graphs.size());
    for (const auto& g : sample.graphs) {
      sample.tensors.push_back(PrepareGraphTensors(g, options.k_hops));
    }
    address_timings[i] = constructor.timings();
  };
  // The caller builds alongside threads - 1 workers; one thread needs
  // no pool.
  if (threads > 1) {
    ThreadPool pool(threads - 1);
    pool.ParallelFor(n, build_one);
  } else {
    for (size_t i = 0; i < n; ++i) build_one(i);
  }
  if (timings != nullptr) {
    for (const StageTimings& t : address_timings) *timings += t;
  }
  std::erase_if(samples,
                [](const AddressSample& s) { return s.graphs.empty(); });
  return samples;
}

}  // namespace ba::core
