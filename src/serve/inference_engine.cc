#include "serve/inference_engine.h"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <utility>

#include "core/gfn_features.h"
#include "core/graph_builder.h"
#include "obs/trace.h"
#include "util/fs.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace ba::serve {
namespace {

/// v2 added the precision byte: fp32 and int8 embeddings differ, so a
/// cache built under one path must not warm-start an engine on the
/// other. v1 files are rejected (a cold start, not data loss).
constexpr util::SealedFormat kCacheFormat{{'B', 'A', 'S', 'V'}, 2,
                                          "serve cache"};
/// Bytes of one cache entry's fixed fields: address, tx_count,
/// predicted label and slice count.
constexpr size_t kCacheEntryHeaderBytes = 8 + 8 + 4 + 4;
/// Slices a miss builds and embeds at a time. A 2000-tx history at
/// slice size 20 has 100 slices; building them window by window keeps
/// one window's graphs alive instead of all of them, bounding a miss's
/// memory however many threads build at once.
constexpr int kBuildWindowSlices = 8;
/// Requests per micro-batch: a blocking caller's requests run in
/// batches of this size. An async miss always runs alone.
constexpr size_t kMaxBatchSize = 32;

/// Timeline outcome label of a non-OK delivery. Derived from the
/// Status actually handed to the callback, so the recorded outcome
/// matches the wire response by construction.
RequestOutcome OutcomeOfStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kResourceExhausted:
      return RequestOutcome::kShed;
    case StatusCode::kDeadlineExceeded:
      return RequestOutcome::kDeadline;
    default:
      return RequestOutcome::kError;
  }
}

using SteadyClock = std::chrono::steady_clock;

/// Why an expired request may not start a build, by the stage that
/// found it expired.
const Status kExpiredAtLookup =
    Status::DeadlineExceeded("InferenceEngine: deadline expired at cache lookup");
const Status kExpiredBeforeConstruction = Status::DeadlineExceeded(
    "InferenceEngine: deadline expired before graph construction");

/// The explicit error of a request failed by fault point `point`.
Status InjectedFault(const char* point) {
  return Status::Internal(std::string("injected fault at ") + point);
}

}  // namespace

const char* PrecisionName(Precision p) {
  switch (p) {
    case Precision::kFp32:
      return "fp32";
    case Precision::kInt8:
      return "int8";
  }
  return "unknown";
}

Status InferenceEngineOptions::Validate() const {
  if (num_threads < 0) {
    return Status::InvalidArgument(
        "InferenceEngineOptions.num_threads must be >= 0 (0 = shared "
        "pool), got " +
        std::to_string(num_threads));
  }
  if (cache_capacity < 1) {
    return Status::InvalidArgument(
        "InferenceEngineOptions.cache_capacity must be >= 1, got 0");
  }
  if (!(slow_request_threshold >= 0.0)) {
    return Status::InvalidArgument(
        "InferenceEngineOptions.slow_request_threshold must be >= 0, got " +
        std::to_string(slow_request_threshold));
  }
  BA_RETURN_NOT_OK(save_retry.Validate());
  if (enable_admission) BA_RETURN_NOT_OK(admission.Validate());
  return Status::OK();
}

Result<std::unique_ptr<InferenceEngine>> InferenceEngine::Create(
    const core::BaClassifier* classifier, const chain::Ledger* ledger,
    Options options) {
  if (classifier == nullptr) {
    return Status::InvalidArgument("InferenceEngine: classifier is null");
  }
  if (ledger == nullptr) {
    return Status::InvalidArgument("InferenceEngine: ledger is null");
  }
  BA_RETURN_NOT_OK(options.Validate());
  BA_RETURN_NOT_OK(classifier->options().Validate());
  if (!classifier->trained()) {
    return Status::FailedPrecondition(
        "InferenceEngine: classifier is untrained; Train() or "
        "FromCheckpoint() first");
  }
  if (options.precision == Precision::kInt8 && !classifier->quantized()) {
    return Status::FailedPrecondition(
        "InferenceEngine: precision=int8 but the classifier has no "
        "quantized encoder; call BaClassifier::Quantize() first");
  }
  std::unique_ptr<InferenceEngine> engine(
      new InferenceEngine(classifier, ledger, std::move(options)));
  if (!engine->options_.cache_path.empty() &&
      util::FileExists(engine->options_.cache_path)) {
    BA_RETURN_NOT_OK(engine->LoadCacheFile(engine->options_.cache_path));
  }
  return engine;
}

InferenceEngine::InferenceEngine(const core::BaClassifier* classifier,
                                 const chain::Ledger* ledger, Options options)
    : classifier_(classifier),
      ledger_(ledger),
      options_(std::move(options)),
      slice_size_(classifier->options().dataset.construction.slice_size),
      k_hops_(classifier->options().dataset.k_hops),
      embed_dim_(classifier->graph_model().embed_dim()),
      owned_pool_(options_.num_threads >= 1
                      ? std::make_unique<ThreadPool>(
                            static_cast<size_t>(options_.num_threads))
                      : nullptr),
      pool_(owned_pool_ != nullptr ? owned_pool_.get() : &util::SharedPool()),
      sweep_(options_.sweep_miss_streak) {
  // Unique per process so several engines (tests, A/B deployments) can
  // coexist in one registry scrape.
  static std::atomic<uint64_t> next_engine_id{0};
  registry_provider_name_ =
      "serve.engine." + std::to_string(next_engine_id.fetch_add(1));
  obs::MetricsRegistry::Instance().RegisterProvider(
      registry_provider_name_, [this] { return Metrics().ToJson(); });
  backlog_gauge_ = obs::MetricsRegistry::Instance().GetGauge(
      registry_provider_name_ + ".pool_backlog");
  queue_depth_gauge_ = obs::MetricsRegistry::Instance().GetGauge(
      registry_provider_name_ + ".queue_depth");
  sweep_requests_ =
      obs::MetricsRegistry::Instance().GetCounter("serve.sweep.requests");
  if (options_.enable_admission) {
    admission_ = std::make_unique<AdmissionController>(options_.admission);
  }
  if (options_.flight_recorder_capacity > 0) {
    recorder_ =
        std::make_unique<FlightRecorder>(options_.flight_recorder_capacity);
    if (options_.slow_request_threshold > 0) {
      slow_recorder_ = std::make_unique<FlightRecorder>(
          options_.flight_recorder_capacity);
      slow_threshold_ns_ =
          static_cast<int64_t>(options_.slow_request_threshold * 1e9);
    }
  }
}

InferenceEngine::~InferenceEngine() {
  // First thing: a concurrent scrape must not run the provider while
  // the engine tears down under it.
  obs::MetricsRegistry::Instance().UnregisterProvider(
      registry_provider_name_);
  // Drain: async callers hold no handle to wait on — the engine owns
  // every in-flight request, so teardown blocks until the last
  // callback and the last miss task have returned.
  std::unique_lock<std::mutex> lock(drain_mu_);
  done_cv_.wait(lock, [this] {
    return inflight_tasks_ == 0 && inflight_requests_ == 0;
  });
}

uint64_t InferenceEngine::TxCountOf(const chain::LedgerSnapshot& snapshot,
                                    chain::AddressId address) const {
  const size_t total = snapshot.TxCountOf(address);
  const size_t cap = static_cast<size_t>(
      classifier_->options().dataset.construction.max_txs_per_address);
  return static_cast<uint64_t>(std::min(total, cap));
}

InferenceEngine::Lookup InferenceEngine::LookupLocked(Request* req,
                                                      uint64_t n,
                                                      const Status* why) {
  ClassifyResult& r = req->result;
  if (n == 0) {
    // Free and exact regardless of deadline or overload.
    r.predicted = 0;
    r.tx_count = 0;
    stats_.empty_history.Increment();
    return {LookupOutcome::kSettled};
  }
  if (why != nullptr && !req->allow_degraded) {
    req->status = *why;
    return {LookupOutcome::kSettled};
  }
  // An entry *ahead* of the live ledger can only mean the ledger was
  // swapped out from under the cache; it is treated as absent.
  auto it = cache_.find(req->address);
  CacheEntry* entry =
      it != cache_.end() && it->second.tx_count <= n ? &it->second : nullptr;
  if (entry != nullptr && (entry->tx_count == n || why != nullptr)) {
    if (req->cache_mode != CacheMode::kNoPromote) {
      entry->last_used = ++lru_tick_;
    }
    r.predicted = entry->predicted;
    r.cache_hit = true;
    r.tx_count = entry->tx_count;
    r.slices_reused =
        static_cast<int>(entry->slice_embeddings.size() / embed_dim_);
    if (entry->tx_count == n) {
      stats_.full_hits.Increment();
      stats_.slices_reused.Increment(r.slices_reused);
    } else {
      // Stale: the last answer the cache holds, labeled with its lag.
      r.degraded = true;
      r.epoch_lag = n - entry->tx_count;
      stats_.degraded_stale.Increment();
    }
    return {LookupOutcome::kSettled};
  }
  if (why != nullptr) {
    if (!options_.degraded_fallback) {
      req->status = *why;
      return {LookupOutcome::kSettled};
    }
    r.tx_count = n;
    return {LookupOutcome::kFallback};
  }
  auto flight = flights_.find(req->address);
  if (flight != flights_.end() && flight->second.tx_count == n) {
    return {LookupOutcome::kJoin, &flight->second};
  }
  return {LookupOutcome::kMiss, nullptr, entry};
}

void InferenceEngine::AnswerFromFallback(Request* req) {
  req->result.predicted = options_.degraded_fallback(req->address);
  req->result.degraded = true;
  req->result.epoch_lag = 0;
  stats_.degraded_fallback.Increment();
}

Result<ClassifyResult> InferenceEngine::TryDegradedAnswer(
    chain::AddressId address, const Status& why, CacheMode cache_mode) {
  Request probe;
  probe.address = address;
  probe.allow_degraded = true;
  probe.cache_mode = cache_mode;
  const uint64_t n = TxCountOf(ledger_->Snapshot(), address);
  Lookup decided;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    decided = LookupLocked(&probe, n, &why);
  }
  if (decided.outcome == LookupOutcome::kFallback) AnswerFromFallback(&probe);
  if (!probe.status.ok()) return probe.status;
  return probe.result;
}

InferenceEngine::Request* InferenceEngine::MakeRequest(
    chain::AddressId address, const ClassifyOptions& options,
    ClassifyCallback done) {
  const auto submit = SteadyClock::now();
  if (static_cast<size_t>(address) >= ledger_->num_addresses()) {
    DeliverEarly(address, submit, options,
                 Result<ClassifyResult>(Status::InvalidArgument(
                     "InferenceEngine: unknown address id " +
                     std::to_string(address))),
                 done);
    return nullptr;
  }

  // A client the sweep detector flagged reads the cache but never
  // promotes into it; a caller's own kNoPromote stands either way.
  CacheMode cache_mode = options.cache_mode;
  if (sweep_.ModeFor(options.client_id) == CacheMode::kNoPromote) {
    cache_mode = CacheMode::kNoPromote;
    sweep_requests_->Increment();
  }

  // Admission: an overloaded engine answers in well under a
  // millisecond — a labeled degraded answer when permitted, otherwise
  // an explicit ResourceExhausted — instead of queueing unboundedly.
  bool admitted = false;
  if (admission_ != nullptr) {
    const Status st = admission_->Admit(Backlog(), options.priority);
    if (!st.ok()) {
      stats_.shed.Increment();
      stats_.requests.Increment();
      DeliverEarly(address, submit, options,
                   options.allow_degraded
                       ? TryDegradedAnswer(address, st, cache_mode)
                       : Result<ClassifyResult>(st),
                   done);
      return nullptr;
    }
    admitted = true;
  }

  // A deadline that is already gone never pays for enqueueing, let
  // alone graph construction.
  if (options.has_deadline() && SteadyClock::now() >= options.deadline) {
    stats_.requests.Increment();
    const Status expired = Status::DeadlineExceeded(
        "InferenceEngine: deadline expired at submit");
    if (admitted) admission_->Release();
    DeliverEarly(address, submit, options,
                 options.allow_degraded
                     ? TryDegradedAnswer(address, expired, cache_mode)
                     : Result<ClassifyResult>(expired),
                 done);
    return nullptr;
  }

  Request* req = new Request;
  req->address = address;
  req->deadline = options.deadline;
  req->allow_degraded = options.allow_degraded;
  req->cache_mode = cache_mode;
  req->client_id = options.client_id;
  req->done = std::move(done);
  req->admitted = admitted;
  req->submitted = submit;
  req->tl.trace_id = options.trace_id;
  req->tl.span_id = options.span_id;
  return req;
}

void InferenceEngine::DeliverEarly(
    chain::AddressId address, std::chrono::steady_clock::time_point submit,
    const ClassifyOptions& options, Result<ClassifyResult> outcome,
    const ClassifyCallback& done) {
  RequestTimeline tl;
  tl.trace_id = options.trace_id;
  tl.span_id = options.span_id;
  tl.deliver_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      SteadyClock::now() - submit)
                      .count();
  tl.outcome = outcome.ok()
                   ? (outcome.value().degraded ? RequestOutcome::kDegraded
                                               : RequestOutcome::kOk)
                   : OutcomeOfStatus(outcome.status());
  if (outcome.ok()) outcome.value().timeline = tl;
  RecordDelivery(address, options.client_id, outcome, tl);
  done(std::move(outcome), tl);
}

void InferenceEngine::RecordDelivery(chain::AddressId address,
                                     uint64_t client_id,
                                     const Result<ClassifyResult>& outcome,
                                     const RequestTimeline& tl) {
  // Observed before the callback fires, so a client's next request
  // already sees the updated mode.
  if (outcome.ok() && outcome->tx_count > 0) {
    sweep_.Observe(client_id,
                   outcome->cache_hit || outcome->slices_reused > 0);
  }
  if (tl.outcome == RequestOutcome::kDeadline) {
    stats_.deadline_exceeded.Increment();
  }
  if (recorder_ != nullptr) recorder_->Record(address, tl);
  if (slow_recorder_ != nullptr && tl.deliver_ns >= slow_threshold_ns_) {
    slow_recorder_->Record(address, tl);
    stats_.slow_requests.Increment();
    BA_LOG(Warn, "serve.slowlog")
        << "{\"address\":" << address << ",\"timeline\":" << tl.ToJson()
        << "}";
  }
  obs::Tracer& tracer = obs::Tracer::Instance();
  if (tl.trace_id != 0 && tracer.enabled()) {
    // The engine's extent of the request flow: submit -> deliver,
    // stitched with the client/server spans via the shared trace_id.
    const int64_t end_ns = obs::Tracer::NowNs();
    tracer.RecordAsync("serve.request", tl.trace_id,
                       end_ns - tl.deliver_ns, tl.deliver_ns);
  }
}

void InferenceEngine::SubmitMiss(Request* req) {
  req->tl.enqueue_ns = req->SinceSubmitNs(SteadyClock::now());
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    ++inflight_requests_;
    ++inflight_tasks_;
  }
  queue_depth_.fetch_add(1, std::memory_order_relaxed);
  auto task = [this, req] {
    queue_depth_.fetch_sub(1, std::memory_order_relaxed);
    req->tl.batch_join_ns = req->SinceSubmitNs(SteadyClock::now());
    ProcessBatch({req});
    std::lock_guard<std::mutex> lock(drain_mu_);
    --inflight_tasks_;
    done_cv_.notify_all();
  };
  // A shut-down pool rejects the task; run it inline rather than strand
  // the request.
  if (!pool_->Submit(task)) task();
}

void InferenceEngine::RunOwnBatches(const std::vector<Request*>& requests) {
  // Admission must still see blocking traffic though it runs no pool
  // task: these requests count in the backlog until Deliver retires
  // them.
  blocking_backlog_.fetch_add(static_cast<int64_t>(requests.size()),
                              std::memory_order_relaxed);
  // One clock read stamps the whole submit — timelines must not tax the
  // submit path with a syscall per request. There is nothing to wait
  // in, so the first batch joins at the enqueue stamp.
  const auto now = SteadyClock::now();
  for (Request* r : requests) r->tl.enqueue_ns = r->SinceSubmitNs(now);
  for (size_t begin = 0; begin < requests.size(); begin += kMaxBatchSize) {
    const size_t end = std::min(requests.size(), begin + kMaxBatchSize);
    std::vector<Request*> batch(requests.begin() + static_cast<ptrdiff_t>(begin),
                                requests.begin() + static_cast<ptrdiff_t>(end));
    const auto joined = begin == 0 ? now : SteadyClock::now();
    for (Request* r : batch) r->tl.batch_join_ns = r->SinceSubmitNs(joined);
    ProcessBatch(std::move(batch));
  }
}

void InferenceEngine::FinishRequest(Request* req) {
  if (req->admitted && admission_ != nullptr) admission_->Release();
  stats_.requests.Increment();
  const auto now = SteadyClock::now();
  stats_.request_latency.Record(
      std::chrono::duration<double>(now - req->submitted).count());
  req->tl.deliver_ns = req->SinceSubmitNs(now);
  req->tl.outcome = req->status.ok()
                        ? (req->result.degraded ? RequestOutcome::kDegraded
                                                : RequestOutcome::kOk)
                        : OutcomeOfStatus(req->status);
  req->result.timeline = req->tl;
  ClassifyCallback done = std::move(req->done);
  const RequestTimeline tl = req->tl;
  Result<ClassifyResult> outcome =
      req->status.ok() ? Result<ClassifyResult>(req->result)
                       : Result<ClassifyResult>(req->status);
  RecordDelivery(req->address, req->client_id, outcome, tl);
  delete req;
  done(std::move(outcome), tl);
}

void InferenceEngine::ClassifyAsync(chain::AddressId address,
                                    const ClassifyOptions& options,
                                    ClassifyCallback done) {
  Request* req = MakeRequest(address, options, std::move(done));
  if (req == nullptr) return;
  req->async = true;
  // The lookup runs here, on the submitting thread. What it settles is
  // delivered before this returns; a request whose answer is being
  // built joins that build, and only a miss becomes a pool task — so
  // nothing is ever built here. Its fault point reports a verdict but
  // never sleeps: the submitting thread may be an event loop.
  if (util::FaultInjector::Instance().ShouldFail(kFaultBatchLookup,
                                                 /*inject_latency=*/false)) {
    req->status = InjectedFault(kFaultBatchLookup);
    FinishRequest(req);
    return;
  }
  const uint64_t n = TxCountOf(ledger_->Snapshot(), address);
  Lookup decided;
  {
    BA_TRACE_SPAN("serve.batch.lookup");
    const auto now = SteadyClock::now();
    std::lock_guard<std::mutex> lock(cache_mu_);
    decided =
        LookupLocked(req, n, req->expired(now) ? &kExpiredAtLookup : nullptr);
    // A miss is stamped by the batch that decides it again.
    if (decided.outcome != LookupOutcome::kMiss) {
      req->tl.lookup_ns = req->SinceSubmitNs(now);
    }
    if (decided.outcome == LookupOutcome::kJoin) {
      // Counted in flight before it is parked: the flight's owner may
      // deliver it the moment cache_mu_ drops. (Lock order: cache_mu_,
      // then drain_mu_ — nothing takes them the other way round.)
      {
        std::lock_guard<std::mutex> drain_lock(drain_mu_);
        ++inflight_requests_;
      }
      decided.flight->joiners.push_back(req);
      stats_.coalesced.Increment();
      return;
    }
  }
  if (decided.outcome == LookupOutcome::kMiss) {
    SubmitMiss(req);
    return;
  }
  if (decided.outcome == LookupOutcome::kFallback) AnswerFromFallback(req);
  FinishRequest(req);
}

Result<ClassifyResult> InferenceEngine::Classify(
    chain::AddressId address, const ClassifyOptions& options) {
  BA_TRACE_SPAN("serve.request");
  // The caller runs its own batch; a stack latch stands in for its
  // continuation, because a request that joins another batch's build
  // is delivered by that batch's thread.
  struct SyncState {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Result<ClassifyResult> outcome{
        Status::Internal("InferenceEngine: request never completed")};
  } state;
  Request* req = MakeRequest(
      address, options,
      [&state](Result<ClassifyResult> r, const RequestTimeline&) {
        std::lock_guard<std::mutex> lk(state.mu);
        state.outcome = std::move(r);
        state.done = true;
        state.cv.notify_one();
      });
  if (req != nullptr) {
    RunOwnBatches({req});
    std::unique_lock<std::mutex> lk(state.mu);
    state.cv.wait(lk, [&state] { return state.done; });
  }
  return std::move(state.outcome);
}

std::vector<Result<ClassifyResult>> InferenceEngine::ClassifyBatch(
    const std::vector<chain::AddressId>& addresses,
    const ClassifyOptions& options) {
  const size_t n = addresses.size();
  // Submit-side decisions (validation, admission, expired deadlines)
  // run per request; the caller then runs the survivors as its own
  // batches.
  struct BatchState {
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining = 0;
  } state;
  state.remaining = n;
  std::vector<std::unique_ptr<Result<ClassifyResult>>> outcomes(n);
  std::vector<Request*> own;
  own.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Request* req = MakeRequest(
        addresses[i], options,
        [&state, &outcomes, i](Result<ClassifyResult> r,
                               const RequestTimeline&) {
          std::lock_guard<std::mutex> lk(state.mu);
          outcomes[i] =
              std::make_unique<Result<ClassifyResult>>(std::move(r));
          if (--state.remaining == 0) state.cv.notify_one();
        });
    if (req != nullptr) own.push_back(req);
  }
  if (!own.empty()) RunOwnBatches(own);
  {
    std::unique_lock<std::mutex> lk(state.mu);
    state.cv.wait(lk, [&state] { return state.remaining == 0; });
  }
  std::vector<Result<ClassifyResult>> out;
  out.reserve(n);
  for (auto& o : outcomes) out.push_back(std::move(*o));
  return out;
}

/// One address a batch builds: the requests it answers, the capped
/// history length it is built at, and its slice embeddings.
struct InferenceEngine::Miss {
  std::vector<Request*> reqs;
  chain::AddressId address = chain::kInvalidAddress;
  uint64_t tx_count = 0;
  /// Leading complete slices reused from an older cache entry.
  int reuse_slices = 0;
  /// CacheEntry::slice_embeddings, sized at lookup: rows [0,
  /// reuse_slices) are reused, and BuildWindow writes each later row at
  /// its slice index, so the LSTM reads them in chronological order.
  std::vector<float> rows;
  /// True only while every requester is no-promote sweep traffic; one
  /// normal requester earns the result a cache slot.
  bool no_promote = true;
  /// True while this miss holds `flights_[address]`, where requests
  /// (duplicates in this batch, or from other batches and submits) park
  /// to be delivered by this batch.
  bool owns_flight = false;
};

struct InferenceEngine::Batch {
  Batch(chain::LedgerSnapshot pinned, std::vector<Request*> batch)
      : snapshot(std::move(pinned)), pending(std::move(batch)) {}

  /// The epoch every answer of the batch is computed at.
  chain::LedgerSnapshot snapshot;
  /// Requests not yet looked up: the whole batch until stage 1 runs.
  std::vector<Request*> pending;
  /// Looked-up requests the batch delivers: every one of them except
  /// those that joined another batch's build.
  std::vector<Request*> requests;
  std::vector<Miss> misses;
  std::unordered_map<chain::AddressId, size_t> miss_index;
  /// Requests the fallback hook answers, outside cache_mu_.
  std::vector<Request*> fallback_pending;
  /// Joiners of this batch's flights, delivered with it.
  std::vector<Request*> adopted;
  /// When stage 2 finished (unset before).
  std::chrono::steady_clock::time_point built{};
};

void InferenceEngine::ProcessBatch(std::vector<Request*> requests) {
  obs::ScopedSpan batch_span("serve.batch");
  batch_span.AddArg("batch_size", static_cast<double>(requests.size()));
  Stopwatch batch_sw;
  batch_sw.Start();
  stats_.batches.Increment();
  util::FaultInjector& faults = util::FaultInjector::Instance();
  // The whole micro-batch reads one pinned epoch (O(1) to capture), so
  // its results are mutually consistent and immune to a SealBlock /
  // ApplyTransaction racing the batch.
  Batch batch(ledger_->Snapshot(), std::move(requests));
  // A lookup-stage fault decides the whole batch: every request gets an
  // explicit injected error — never a hang, never a wrong answer.
  if (faults.ShouldFail(kFaultBatchLookup)) {
    FailUndecided(&batch, kFaultBatchLookup);
  } else {
    LookupStage(&batch);
    BuildBoundary(&batch);
    BuildStage(&batch);
    // Boundary build -> aggregate: the injected aggregate fault fails
    // the joiners of this batch's builds too.
    if (!batch.misses.empty() && faults.ShouldFail(kFaultBatchAggregate)) {
      FailUndecided(&batch, kFaultBatchAggregate);
    }
    AggregateStage(&batch);
  }
  batch_sw.Stop();
  stats_.batch_latency.Record(batch_sw.ElapsedSeconds());
  DeliverBatch(&batch);
}

void InferenceEngine::LookupStage(Batch* batch) {
  // What the lookup settles (hits, empty histories, expired requests) is
  // delivered with the batch; a miss another batch is already building
  // joins that build, and a duplicate of a miss in this batch joins this
  // batch's build of it — N monitoring clients polling the same address
  // cost one computation.
  batch->requests.swap(batch->pending);
  batch->misses.reserve(batch->requests.size());
  {
    BA_TRACE_SPAN("serve.batch.lookup");
    const auto now = SteadyClock::now();
    std::lock_guard<std::mutex> lock(cache_mu_);
    for (Request*& slot : batch->requests) {
      Request* req = slot;
      const uint64_t n = TxCountOf(batch->snapshot, req->address);
      // Requests already past deadline are decided here, before any
      // graph construction.
      const Lookup decided = LookupLocked(
          req, n, req->expired(now) ? &kExpiredAtLookup : nullptr);
      switch (decided.outcome) {
        case LookupOutcome::kSettled:
          continue;
        case LookupOutcome::kFallback:
          batch->fallback_pending.push_back(req);  // the hook runs unlocked
          continue;
        case LookupOutcome::kJoin:
          // The flight's owner delivers the request, so this batch lets
          // go of it here and must not touch it once the lock drops.
          req->tl.lookup_ns = req->SinceSubmitNs(now);
          decided.flight->joiners.push_back(req);
          stats_.coalesced.Increment();
          slot = nullptr;
          continue;
        case LookupOutcome::kMiss:
          break;
      }
      auto dup = batch->miss_index.find(req->address);
      if (dup != batch->miss_index.end()) {
        // A duplicate whose miss could not take the address's flight (a
        // build at another epoch of it holds it).
        Miss& shared = batch->misses[dup->second];
        shared.reqs.push_back(req);
        shared.no_promote =
            shared.no_promote && req->cache_mode == CacheMode::kNoPromote;
        stats_.coalesced.Increment();
        continue;
      }
      Miss m;
      m.reqs.push_back(req);
      m.address = req->address;
      m.tx_count = n;
      m.no_promote = req->cache_mode == CacheMode::kNoPromote;
      // Hold the address's flight, unless a build at another epoch of it
      // already does.
      m.owns_flight = flights_.try_emplace(req->address, Flight{n, {}}).second;
      // An entry computed at a shorter history donates its complete
      // slices — they are immutable on the append-only ledger.
      const uint64_t slice = static_cast<uint64_t>(slice_size_);
      const size_t dim = static_cast<size_t>(embed_dim_);
      m.rows.resize(static_cast<size_t>((n + slice - 1) / slice) * dim);
      if (decided.entry != nullptr && decided.entry->tx_count >= slice) {
        m.reuse_slices = static_cast<int>(decided.entry->tx_count / slice);
        std::copy_n(decided.entry->slice_embeddings.begin(),
                    m.reuse_slices * dim, m.rows.begin());
        stats_.partial_hits.Increment();
      } else {
        stats_.misses.Increment();
      }
      batch->miss_index.emplace(req->address, batch->misses.size());
      batch->misses.push_back(std::move(m));
    }
  }
  std::erase(batch->requests, nullptr);  // those that joined other builds
  // Lookup-stage stamp for every request this batch still holds,
  // including those decided here (hits, degraded, rejections) — one
  // clock read for the batch.
  const auto now = SteadyClock::now();
  for (Request* req : batch->requests) {
    req->tl.lookup_ns = req->SinceSubmitNs(now);
  }
}

void InferenceEngine::BuildBoundary(Batch* batch) {
  // The injected build fault (and any armed latency) lands here.
  // Requests that joined this batch's builds so far cross the boundary
  // with it, and a build fault retires every flight, so its joiners fail
  // with the batch. Then every request is decided again if its deadline
  // expired meanwhile — one that expired while queued behind the lookup
  // never pays for graph construction — and misses left with no
  // requester are dropped whole: no speculative graph work on behalf of
  // nobody.
  const bool fault =
      util::FaultInjector::Instance().ShouldFail(kFaultBatchBuild);
  if (!batch->misses.empty()) {
    const auto now = SteadyClock::now();
    std::vector<Request*> keep;
    std::lock_guard<std::mutex> lock(cache_mu_);
    for (Miss& m : batch->misses) {
      AdoptJoiners(batch, &m, /*close=*/fault);
      keep.clear();
      for (Request* req : m.reqs) {
        if (!req->expired(now)) {
          keep.push_back(req);
        } else if (LookupLocked(req, m.tx_count, &kExpiredBeforeConstruction)
                       .outcome == LookupOutcome::kFallback) {
          batch->fallback_pending.push_back(req);
        }
      }
      m.reqs.swap(keep);
      if (m.reqs.empty()) AdoptJoiners(batch, &m, /*close=*/true);
    }
    std::erase_if(batch->misses, [](const Miss& m) { return m.reqs.empty(); });
  }
  for (Request* req : batch->fallback_pending) AnswerFromFallback(req);
  if (fault) FailUndecided(batch, kFaultBatchBuild);
}

void InferenceEngine::BuildStage(Batch* batch) {
  if (batch->misses.empty()) return;
  // Fanned out over the pool and this thread. The classifier's inference
  // paths are const and share frozen weights, so threads may embed
  // concurrently.
  BA_TRACE_SPAN("serve.batch.build_embed");
  pool_->ParallelFor(batch->misses.size(), [this, batch](size_t i) {
    Miss& miss = batch->misses[i];
    const int num_slices = static_cast<int>(miss.rows.size() / embed_dim_);
    for (int first = miss.reuse_slices; first < num_slices;
         first += kBuildWindowSlices) {
      BuildWindow(batch->snapshot, &miss, first);
    }
  });
  batch->built = SteadyClock::now();
  for (const Miss& m : batch->misses) {
    for (Request* req : m.reqs) {
      req->tl.build_ns = req->SinceSubmitNs(batch->built);
    }
  }
}

void InferenceEngine::BuildWindow(const chain::LedgerSnapshot& snapshot,
                                  Miss* miss, int first_slice) {
  core::GraphConstructor ctor(classifier_->options().dataset.construction);
  const std::vector<core::AddressGraph> graphs = ctor.BuildGraphsFrom(
      snapshot, miss->address, first_slice, first_slice + kBuildWindowSlices);
  const core::GraphModel& model = classifier_->graph_model();
  Stopwatch embed_sw;
  embed_sw.Start();
  for (const core::AddressGraph& g : graphs) {
    const core::GraphTensors gt = core::PrepareGraphTensors(g, k_hops_);
    const tensor::Tensor e = options_.precision == Precision::kInt8
                                 ? model.EmbedQuantized(gt)
                                 : model.Embed(gt);
    std::copy_n(e.data(), embed_dim_,
                miss->rows.begin() + g.slice_index * embed_dim_);
  }
  embed_sw.Stop();
  stats_.build_seconds.AddSeconds(ctor.timings().TotalSeconds());
  stats_.embed_seconds.AddSeconds(embed_sw.ElapsedSeconds());
}

void InferenceEngine::AggregateStage(Batch* batch) {
  // Serial: the LSTM head is tiny next to stage 2. A deadline that
  // expired during the build still yields the freshly computed answer —
  // labeled degraded (late) when allowed, DeadlineExceeded otherwise —
  // and the cache is refreshed either way: the work is done, future
  // stale answers might as well benefit.
  BA_TRACE_SPAN("serve.batch.aggregate");
  Stopwatch agg_sw;
  agg_sw.Start();
  for (Miss& m : batch->misses) {
    // A miss has at least one slice: the lookup settles empty histories.
    const int num_slices = static_cast<int>(m.rows.size() / embed_dim_);
    const int built = num_slices - m.reuse_slices;
    stats_.slices_built.Increment(static_cast<uint64_t>(built));
    stats_.slices_reused.Increment(static_cast<uint64_t>(m.reuse_slices));
    // The scaler runs on the tensor's copy: the cache keeps raw rows.
    std::vector<core::EmbeddingSequence> seqs(1);
    seqs[0].embeddings = tensor::Tensor({num_slices, embed_dim_}, m.rows);
    classifier_->scaler().Apply(&seqs);
    const int predicted =
        classifier_->aggregator().Predict(seqs[0].embeddings);
    CacheEntry entry;
    entry.tx_count = m.tx_count;
    entry.slice_embeddings = std::move(m.rows);
    entry.predicted = predicted;
    StoreEntry(batch, &m, std::move(entry));
    const auto now = SteadyClock::now();
    for (Request* req : m.reqs) {
      if (req->expired(now) && !req->allow_degraded) {
        req->status = Status::DeadlineExceeded(
            "InferenceEngine: deadline expired during embedding");
        continue;
      }
      req->result.predicted = predicted;
      req->result.slices_reused = m.reuse_slices;
      req->result.slices_built = built;
      req->result.tx_count = m.tx_count;
      if (req->expired(now)) {
        req->result.degraded = true;
        req->result.epoch_lag = 0;
        stats_.degraded_late.Increment();
      }
    }
  }
  const auto aggregated = SteadyClock::now();
  for (const Miss& m : batch->misses) {
    for (Request* req : m.reqs) {
      req->tl.aggregate_ns = req->SinceSubmitNs(aggregated);
    }
  }
  agg_sw.Stop();
  stats_.aggregate_seconds.AddSeconds(agg_sw.ElapsedSeconds());
}

void InferenceEngine::DeliverBatch(Batch* batch) {
  backlog_gauge_->Set(static_cast<int64_t>(pool_->in_flight()));
  queue_depth_gauge_->Set(queue_depth_.load(std::memory_order_relaxed));
  std::vector<Request*>& out = batch->requests;
  out.insert(out.end(), batch->adopted.begin(), batch->adopted.end());
  const int64_t async_done = std::count_if(
      out.begin(), out.end(), [](const Request* req) { return req->async; });
  // Blocking requests leave the backlog before their callers wake, so a
  // caller's next submit never sees its own finished request.
  const int64_t blocking_done = static_cast<int64_t>(out.size()) - async_done;
  if (blocking_done > 0) {
    blocking_backlog_.fetch_sub(blocking_done, std::memory_order_relaxed);
  }
  for (Request* req : out) FinishRequest(req);
  if (async_done == 0) return;
  std::lock_guard<std::mutex> lock(drain_mu_);
  inflight_requests_ -= async_done;
  done_cv_.notify_all();
}

void InferenceEngine::AdoptJoiners(Batch* batch, Miss* miss, bool close) {
  if (!miss->owns_flight) return;
  auto it = flights_.find(miss->address);
  for (Request* req : it->second.joiners) {
    // Once the build is done a joiner's build stage is done too: at the
    // build's end, or at its own lookup when it joined after that.
    if (batch->built != std::chrono::steady_clock::time_point{}) {
      req->tl.build_ns =
          std::max(req->SinceSubmitNs(batch->built), req->tl.lookup_ns);
    }
    miss->reqs.push_back(req);
    miss->no_promote =
        miss->no_promote && req->cache_mode == CacheMode::kNoPromote;
    batch->adopted.push_back(req);
  }
  it->second.joiners.clear();
  if (close) {
    flights_.erase(it);
    miss->owns_flight = false;
  }
}

void InferenceEngine::FailUndecided(Batch* batch, const char* point) {
  const Status st = InjectedFault(point);
  if (!batch->misses.empty()) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    for (Miss& m : batch->misses) AdoptJoiners(batch, &m, /*close=*/true);
  }
  for (const Miss& m : batch->misses) {
    for (Request* req : m.reqs) req->status = st;
  }
  batch->misses.clear();
  // Failed before the lookup, they are delivered as the batch's own.
  for (Request* req : batch->pending) req->status = st;
  batch->requests.insert(batch->requests.end(), batch->pending.begin(),
                         batch->pending.end());
  batch->pending.clear();
}

void InferenceEngine::StoreEntry(Batch* batch, Miss* miss, CacheEntry entry) {
  const chain::AddressId address = miss->address;
  std::vector<std::pair<uint64_t, chain::AddressId>> order;
  size_t want_evicted = 0;
  {
    std::unique_lock<std::mutex> lock(cache_mu_);
    // Retiring the flight here lets the requests that joined during the
    // build both get a say in no_promote and be delivered by this batch.
    AdoptJoiners(batch, miss, /*close=*/true);
    if (miss->no_promote) {
      // Sweep traffic: refresh an entry the hot set already earned
      // (same recency — reading it was not a working-set signal), but
      // never insert, so a full-chain scan cannot trigger eviction.
      auto it = cache_.find(address);
      if (it == cache_.end()) return;
      const uint64_t last_used = it->second.last_used;
      it->second = std::move(entry);
      it->second.last_used = last_used;
      return;
    }
    entry.last_used = ++lru_tick_;
    cache_[address] = std::move(entry);
    if (cache_.size() <= options_.cache_capacity) return;
    // Evict the least-recently-used ~10% in one sweep so the scan cost
    // amortizes over many inserts instead of paying O(size) per
    // insert. Only the O(size) candidate *copy* runs under the lock;
    // the nth_element ordering runs after release so concurrent
    // lookups never stall behind it.
    const size_t target =
        std::max<size_t>(1, options_.cache_capacity -
                                options_.cache_capacity / 10);
    // The entry just stored for the current request is structurally
    // excluded from the candidate list: it must survive its own insert
    // even at cache_capacity = 1, where it is also the freshest entry.
    order.reserve(cache_.size() - 1);
    for (const auto& [addr, e] : cache_) {
      if (addr == address) continue;
      order.emplace_back(e.last_used, addr);
    }
    want_evicted = std::min(order.size(), cache_.size() - target);
  }
  if (want_evicted == 0) return;
  std::nth_element(order.begin(),
                   order.begin() + static_cast<ptrdiff_t>(want_evicted),
                   order.end());
  uint64_t evicted = 0;
  {
    std::unique_lock<std::mutex> lock(cache_mu_);
    for (size_t i = 0; i < want_evicted; ++i) {
      // A candidate touched (or replaced) between the scan and this
      // erase earned a reprieve: evict only entries whose recency
      // still matches what the scan saw.
      auto it = cache_.find(order[i].second);
      if (it == cache_.end() || it->second.last_used != order[i].first) {
        continue;
      }
      cache_.erase(it);
      ++evicted;
    }
  }
  stats_.cache_evictions.Increment(evicted);
}

size_t InferenceEngine::CacheSize() const {
  std::unique_lock<std::mutex> lock(cache_mu_);
  return cache_.size();
}

void InferenceEngine::ClearCache() {
  std::unique_lock<std::mutex> lock(cache_mu_);
  cache_.clear();
}

Status InferenceEngine::SaveCache() const {
  if (options_.cache_path.empty()) return Status::OK();
  return util::RetryWithBackoff(options_.save_retry, "serve cache save",
                                [this] { return SaveCacheOnce(); });
}

Status InferenceEngine::SaveCacheOnce() const {
  if (util::FaultInjector::Instance().ShouldFail(kFaultCacheSave)) {
    return InjectedFault(kFaultCacheSave);
  }
  // Snapshot under the lock, serialize and write outside it so queries
  // keep flowing during the (possibly slow) disk write.
  std::vector<std::pair<chain::AddressId, CacheEntry>> entries;
  {
    std::unique_lock<std::mutex> lock(cache_mu_);
    entries.assign(cache_.begin(), cache_.end());
  }
  // Least recently used first: a warm start replays the file in order,
  // so it restores the recency order and a resave writes the same bytes.
  std::ranges::sort(entries, {},
                    [](const auto& e) { return e.second.last_used; });
  using util::AppendPod;
  std::string body;
  AppendPod(&body, static_cast<int32_t>(slice_size_));
  AppendPod(&body, static_cast<int32_t>(k_hops_));
  AppendPod(&body, static_cast<int64_t>(embed_dim_));
  AppendPod(&body, static_cast<uint8_t>(options_.precision));
  AppendPod(&body, static_cast<uint64_t>(entries.size()));
  for (const auto& [address, entry] : entries) {
    AppendPod(&body, static_cast<uint64_t>(address));
    AppendPod(&body, entry.tx_count);
    AppendPod(&body, static_cast<int32_t>(entry.predicted));
    AppendPod(&body, static_cast<uint32_t>(entry.slice_embeddings.size() /
                                           embed_dim_));
    body.append(reinterpret_cast<const char*>(entry.slice_embeddings.data()),
                entry.slice_embeddings.size() * sizeof(float));
  }
  util::SealedFileWriter out(options_.cache_path, kCacheFormat);
  BA_RETURN_NOT_OK(out.Open());
  BA_RETURN_NOT_OK(out.Append(body));
  return out.Commit();
}

Status InferenceEngine::LoadCacheFile(const std::string& path) {
  if (util::FaultInjector::Instance().ShouldFail(kFaultCacheLoad)) {
    return InjectedFault(kFaultCacheLoad);
  }
  BA_ASSIGN_OR_RETURN(const std::string buf, util::ReadFileToString(path));
  BA_ASSIGN_OR_RETURN(util::SealedBody body,
                      util::OpenSealed(buf, kCacheFormat, path));
  int32_t slice_size = 0;
  int32_t k_hops = 0;
  int64_t embed_dim = 0;
  uint8_t precision = 0;
  uint64_t count = 0;
  if (!body.ReadPod(&slice_size) || !body.ReadPod(&k_hops) ||
      !body.ReadPod(&embed_dim) || !body.ReadPod(&precision) ||
      !body.ReadPod(&count)) {
    return body.Corrupt("truncated header");
  }
  if (precision != static_cast<uint8_t>(options_.precision)) {
    return body.Corrupt(
        "built under a different precision (cache " +
        std::to_string(precision) + ", engine " +
        std::string(PrecisionName(options_.precision)) +
        "); fp32 and int8 embeddings must not mix");
  }
  if (slice_size != slice_size_ || k_hops != k_hops_ ||
      embed_dim != embed_dim_) {
    return body.Corrupt(
        "built under different options (slice_size=" +
        std::to_string(slice_size) + ", k_hops=" + std::to_string(k_hops) +
        ", embed_dim=" + std::to_string(embed_dim) + "; engine has " +
        std::to_string(slice_size_) + ", " + std::to_string(k_hops_) +
        ", " + std::to_string(embed_dim_) + ")");
  }
  if (!body.CanHold(count, kCacheEntryHeaderBytes)) {
    return body.Corrupt("implausible entry count " + std::to_string(count));
  }
  const size_t row_bytes = static_cast<size_t>(embed_dim_) * sizeof(float);
  const uint64_t slice = static_cast<uint64_t>(slice_size_);
  const int num_classes = classifier_->options().aggregator.num_classes;
  std::vector<std::pair<chain::AddressId, CacheEntry>> loaded(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t address = 0;
    CacheEntry& entry = loaded[i].second;
    int32_t predicted = 0;
    uint32_t num_slices = 0;
    if (!body.ReadPod(&address) || !body.ReadPod(&entry.tx_count) ||
        !body.ReadPod(&predicted) || !body.ReadPod(&num_slices)) {
      return body.Corrupt("truncated entry " + std::to_string(i));
    }
    // A lookup copies tx_count / slice_size rows out of an entry and
    // serves `predicted` as a class, so both must be what a build makes.
    const std::string what = "entry " + std::to_string(i) + " ";
    if (entry.tx_count == 0 || num_slices != (entry.tx_count - 1) / slice + 1 ||
        predicted < 0 || predicted >= num_classes) {
      return body.Corrupt(what + "holds " + std::to_string(num_slices) +
                          " slices of " + std::to_string(entry.tx_count) +
                          " transactions and class " +
                          std::to_string(predicted) + ": not a built entry");
    }
    if (!body.CanHold(num_slices, row_bytes)) {
      return body.Corrupt(what + "claims " + std::to_string(num_slices) +
                          " slices, more than the remaining bytes hold");
    }
    loaded[i].first = static_cast<chain::AddressId>(address);
    entry.predicted = predicted;
    entry.slice_embeddings.resize(num_slices * static_cast<size_t>(embed_dim_));
    body.ReadBytes(entry.slice_embeddings.data(), num_slices * row_bytes);
  }
  BA_RETURN_NOT_OK(body.ExpectEnd());
  std::unique_lock<std::mutex> lock(cache_mu_);
  for (auto& [address, entry] : loaded) {
    entry.last_used = ++lru_tick_;
    cache_[address] = std::move(entry);
  }
  return Status::OK();
}

InferenceMetricsSnapshot InferenceEngine::Metrics() const {
  InferenceMetricsSnapshot s;
#define BA_SERVE_COPY(kind, name) s.name = obs::ValueOf(stats_.name);
  BA_SERVE_ENGINE_METRICS(BA_SERVE_COPY)
#undef BA_SERVE_COPY
  s.cache_entries = CacheSize();
  s.pool_backlog = pool_->in_flight();
  s.queue_depth = static_cast<uint64_t>(
      std::max<int64_t>(0, queue_depth_.load(std::memory_order_relaxed)));
  s.admission_state =
      admission_ == nullptr
          ? "disabled"
          : AdmissionController::StateName(admission_->state());
  backlog_gauge_->Set(static_cast<int64_t>(s.pool_backlog));
  queue_depth_gauge_->Set(static_cast<int64_t>(s.queue_depth));
  const uint64_t classified =
      s.requests >= s.empty_history ? s.requests - s.empty_history : 0;
  // Coalesced requests avoided their own computation, so they count as
  // hits too.
  s.hit_rate =
      classified == 0
          ? 0.0
          : static_cast<double>(s.full_hits + s.partial_hits + s.coalesced) /
                static_cast<double>(classified);
  return s;
}

std::string InferenceEngine::SlowlogJson(size_t max_entries) const {
  std::ostringstream os;
  os << "{\"threshold_seconds\":" << options_.slow_request_threshold
     << ",\"slow\":"
     << (slow_recorder_ != nullptr ? slow_recorder_->ToJson(max_entries)
                                   : "[]")
     << ",\"recent\":"
     << (recorder_ != nullptr ? recorder_->ToJson(max_entries) : "[]")
     << "}";
  return os.str();
}

std::optional<FlightRecorder::Entry> InferenceEngine::FindTimeline(
    uint64_t trace_id) const {
  // Most recent entry wins; the slow ring keeps entries alive after the
  // main ring has wrapped past them.
  std::optional<FlightRecorder::Entry> hit;
  if (recorder_ != nullptr) hit = recorder_->Find(trace_id);
  if (!hit.has_value() && slow_recorder_ != nullptr) {
    hit = slow_recorder_->Find(trace_id);
  }
  return hit;
}

namespace {

// Per-type renderings of one snapshot field: counters as integers,
// accumulated time in seconds, histograms through obs::HistogramSnapshot.
std::string FieldText(uint64_t v) { return std::to_string(v); }
std::string FieldText(double seconds) { return obs::FormatSeconds(seconds); }
std::string FieldText(const obs::HistogramSnapshot& h) { return h.ToString(); }

template <typename T>
void AppendFieldJson(std::ostringstream* os, const char* name, const T& v) {
  *os << "\"" << name << "\":" << v << ",";
}
void AppendFieldJson(std::ostringstream* os, const char* name,
                     const obs::HistogramSnapshot& h) {
  *os << "\"" << name << "\":" << h.ToJson() << ",";
}

}  // namespace

std::string InferenceMetricsSnapshot::ToString() const {
  std::ostringstream os;
#define BA_SERVE_TEXT(kind, name) os << #name " " << FieldText(name) << "\n";
  BA_SERVE_ENGINE_METRICS(BA_SERVE_TEXT)
#undef BA_SERVE_TEXT
  os << "cache_entries " << cache_entries << "\npool_backlog " << pool_backlog
     << "\nqueue_depth " << queue_depth << "\nadmission_state "
     << admission_state << "\nhit_rate " << hit_rate << "\n";
  return os.str();
}

std::string InferenceMetricsSnapshot::ToJson() const {
  std::ostringstream os;
  os << "{";
#define BA_SERVE_JSON(kind, name) AppendFieldJson(&os, #name, name);
  BA_SERVE_ENGINE_METRICS(BA_SERVE_JSON)
#undef BA_SERVE_JSON
  os << "\"cache_entries\":" << cache_entries
     << ",\"pool_backlog\":" << pool_backlog
     << ",\"queue_depth\":" << queue_depth << ",\"admission_state\":\""
     << admission_state << "\",\"hit_rate\":" << hit_rate << "}";
  return os.str();
}

}  // namespace ba::serve
