#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chain/ledger.h"
#include "core/classifier.h"
#include "serve/inference_engine.h"
#include "serve/router.h"

/// \file sharded_engine.h
/// \brief N inference engines behind a consistent-hash router, served
/// through the same `serve::Engine` surface as one.
///
/// A single `InferenceEngine` tops out on serial resources: the
/// embedding cache's `cache_mu_`, and for async traffic the
/// batch-leader pipeline (even with hand-off, every async request
/// crosses one queue mutex). The sharded tier partitions the *address
/// space*: each of N engines owns the cache, queue, leaders and
/// admission slots for its consistent-hash slice, so engines share
/// nothing per-request. How much that buys depends on what one engine
/// already parallelizes. Since blocking callers lead their own batches,
/// one engine keeps every core busy on its own: measured on a 4-vCPU
/// Xeon, `bench_serve_throughput --engines 4` (hot set, 8 blocking
/// clients) gives 1.02-1.06x one engine (the committed
/// BENCH_serve_sharded.json: 800k vs 767k qps; it was 1.62x, 418k vs
/// 258k, when one engine served blocking callers through a single
/// leader). The bench therefore gates only that sharding costs
/// no material throughput (>= 0.9x one engine); what the tier still
/// adds is per-shard caches and sweep detection, below.
///
/// Routing is deterministic (see router.h): the same address always
/// lands on the same shard, which is what makes per-shard caches
/// *correct* — an address's embeddings are only ever read and written
/// by its owning shard, and a warm restart sends it straight back to
/// the shard whose cache file holds it.
///
/// **Eviction-aware admission.** The router also runs a SweepDetector:
/// a client whose requests keep computing from scratch (a
/// mixer_hunt-style cold sweep over the whole address space) is
/// classified as *sweeping* and its requests are stamped
/// `CacheMode::kNoPromote` — they read the cache and refresh entries in
/// place, but never insert or promote, so a full-chain scan cannot
/// evict the monitoring working set (bench gate: hot-set hit rate with
/// a concurrent sweep stays >= 90% of its no-sweep value).
///
/// **Wire stability.** ShardedEngine implements `serve::Engine`, so
/// `net::Server`, the `ba_serve` daemon (`--engines N`) and the admin
/// port work unchanged: `metrics` reports one aggregated
/// InferenceMetricsSnapshot (counters summed, histograms merged
/// count-weighted, admission state = worst shard), `slowlog` /
/// `timeline` search every shard's rings, and SaveCache persists one
/// BASV v2 file per shard (`<cache_path>.shard<k>`) plus a manifest
/// recording the shard count — a restart with a different `--engines`
/// is rejected descriptively instead of silently splitting every
/// address's history across two caches.

namespace ba::serve {

/// \brief Sharded-tier tunables.
struct ShardedEngineOptions {
  ShardedEngineOptions() {
    // Each shard sees 1/N of the load but still benefits from draining
    // while a slow batch runs; two leaders per shard is the measured
    // sweet spot at bench scale.
    engine.max_batch_leaders = 2;
  }

  /// Number of InferenceEngine shards (>= 1; 1 is a valid degenerate
  /// deployment that still runs the router + sweep detector).
  int num_engines = 2;

  /// Per-shard engine options. `cache_path` is treated as a *base*
  /// path: shard k persists to `<cache_path>.shard<k>`, and the shard
  /// count is recorded in `<cache_path>.manifest`. `num_threads` /
  /// `pool` apply per shard — prefer an injected shared pool (or
  /// num_threads = 0 for the process-wide pool) so N shards don't
  /// create N private pools.
  InferenceEngineOptions engine;

  /// Ring points per shard (see ShardRouter).
  uint32_t vnodes_per_shard = 64;

  /// Consecutive computed-from-scratch answers before a client is
  /// classified as sweeping (see SweepDetector); < 1 disables sweep
  /// detection.
  int sweep_miss_streak = 32;

  Status Validate() const;
};

/// \brief Consistent-hash router over N InferenceEngine shards.
class ShardedEngine : public Engine {
 public:
  using Options = ShardedEngineOptions;

  /// \brief Validating factory. Fails on invalid options, on anything
  /// per-shard engine creation fails on, and on a persisted manifest
  /// whose shard count differs from `options.num_engines`.
  static Result<std::unique_ptr<ShardedEngine>> Create(
      const core::BaClassifier* classifier, const chain::Ledger* ledger,
      Options options);

  /// Destroys shards in turn; each drains its in-flight requests first.
  ~ShardedEngine() override;

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Routes to the owning shard. On top of the per-engine contract the
  /// router stamps `options.cache_mode` from its sweep detector (keyed
  /// on `options.client_id`) and feeds the outcome back into it.
  void ClassifyAsync(chain::AddressId address, const ClassifyOptions& options,
                     ClassifyCallback done) override;

  /// Blocking wrapper: routes, then runs the shard's blocking path
  /// (the calling thread can become that shard's batch leader, keeping
  /// single-caller latency identical to the unsharded engine).
  Result<ClassifyResult> Classify(chain::AddressId address,
                                  const ClassifyOptions& options = {}) override;

  /// Fans the list out through ClassifyAsync (per-shard micro-batching
  /// happens naturally) and blocks for all results; results align with
  /// input. Must not be called from an engine pool thread.
  std::vector<Result<ClassifyResult>> ClassifyBatch(
      const std::vector<chain::AddressId>& addresses,
      const ClassifyOptions& options = {}) override;

  /// Saves every shard's cache file, then the manifest. Returns the
  /// first error but still attempts every shard.
  Status SaveCache() const override;

  size_t CacheSize() const override;

  void ClearCache() override;

  /// One aggregated snapshot: counters summed across shards,
  /// latency histograms merged count-weighted (max of maxes),
  /// admission_state = the worst shard's state.
  InferenceMetricsSnapshot Metrics() const override;

  /// Merged admin payload: same shape as the single engine's, with
  /// each ring array holding up to `max_entries` entries per shard in
  /// shard-major order.
  std::string SlowlogJson(size_t max_entries) const override;

  std::optional<FlightRecorder::Entry> FindTimeline(
      uint64_t trace_id) const override;

  /// Drops a departed client from the sweep detector (the net server
  /// calls this on connection close).
  void ForgetClient(uint64_t client_id) override;

  /// Per-shard snapshot (monitoring; `shard` in [0, num_shards())).
  InferenceMetricsSnapshot ShardMetrics(int shard) const;

  uint32_t num_shards() const { return router_.num_shards(); }

  /// The shard that owns `address` (tests pin routing determinism).
  uint32_t ShardOf(chain::AddressId address) const {
    return router_.ShardOf(address);
  }

  /// Clients currently classified as sweeping.
  uint64_t sweeping_clients() const { return detector_.sweeping_clients(); }

  const Options& options() const { return options_; }

 private:
  ShardedEngine(Options options);

  /// `<cache_path>.manifest` body ("shards <N>\n"); parsing + mismatch
  /// diagnostics live in one place.
  static std::string ManifestPath(const std::string& cache_base);
  static Status CheckManifest(const std::string& cache_base, int num_engines);
  Status WriteManifest() const;

  Options options_;
  ShardRouter router_;
  mutable SweepDetector detector_;
  std::vector<std::unique_ptr<InferenceEngine>> shards_;

  /// Router-level instruments (process-wide registry).
  Counter* requests_ = nullptr;        ///< serve.router.requests
  Counter* sweep_requests_ = nullptr;  ///< serve.router.sweep_requests
  /// Name the router's JSON provider is registered under.
  std::string registry_provider_name_;
};

}  // namespace ba::serve
