#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chain/ledger.h"
#include "core/classifier.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/flight_recorder.h"
#include "serve/protocol.h"
#include "serve/sweep_detector.h"
#include "util/retry.h"
#include "util/status.h"
#include "util/thread_pool.h"

/// \file inference_engine.h
/// \brief Concurrent serving layer over a trained BaClassifier.
///
/// A monitoring deployment of the paper's system (think: watch every
/// address that touched the mempool this block) issues many small
/// classification queries against a slowly growing ledger, with heavy
/// repetition — the same addresses come back block after block. The
/// engine exploits all three properties:
///
///  * **Caller-led micro-batching.** A blocking Classify() /
///    ClassifyBatch() caller leads the batches that hold its own
///    requests (up to 32 each), on its own thread, and fans the
///    expensive graph construction + encoder forward passes out over a
///    `util::ThreadPool` whose ParallelFor also works on the calling
///    thread — so concurrent callers build their misses in parallel.
///    ClassifyAsync looks its request up on the submitting thread and
///    answers a hit there; each miss becomes one pool task that runs
///    it as a one-request batch, so the pool is the engine's only
///    scheduler and async misses build on as many workers as it has.
///    Duplicate addresses within a batch coalesce onto one computation,
///    and a miss that another batch is already building joins that
///    build (single flight): the building batch delivers it, so no
///    answer is built twice and no thread blocks on another batch's
///    build.
///
///  * **Incremental caching.** Results are cached per address, keyed on
///    the length of the address's transaction history (a proxy for
///    ledger height that is exact for that address). Because the ledger
///    is append-only and graph slices are fixed-size chronological
///    chunks, every *complete* slice of a cached history is immutable:
///    a repeat query is answered from cache outright, and a query after
///    the address gained transactions reuses the cached per-slice
///    embeddings and rebuilds only the tail (GraphConstructor::
///    BuildGraphsFrom). The cache persists to disk through the
///    crash-safe AtomicFileWriter, so a killed server restarts warm.
///
///  * **Observability.** Counters, per-stage wall-clock accumulators
///    and latency histograms (p50/p95/p99), each declared once in
///    `BA_SERVE_ENGINE_METRICS`, are collected into an
///    `InferenceMetricsSnapshot`, printable or JSON-exportable. Each
///    engine also publishes that snapshot as a JSON provider named
///    `serve.engine.<n>` in the process-wide obs::MetricsRegistry, and
///    the batch lifecycle emits trace spans (`serve.request`,
///    `serve.batch` + per-stage children) when tracing is enabled — see
///    DESIGN.md §6.
///
///  * **Sweep defence.** A `SweepDetector` keyed on
///    `ClassifyOptions::client_id` (the net server stamps its
///    connection id) marks a client whose answers keep computing from
///    scratch as sweeping; its later requests are stamped
///    `CacheMode::kNoPromote`, so a mixer_hunt-style scan over the whole
///    address space reads the cache but cannot evict the hot set.
///
/// Thread-safety contract (snapshot model):
/// Classify/ClassifyBatch/ClassifyAsync/Metrics/SaveCache may be called
/// concurrently
/// from any number of threads, and — new with the epoch layer — the
/// ledger's single writer may grow the chain (NewAddress /
/// ApplyTransaction / SealBlock) at any time with **no external
/// ordering**. Each micro-batch pins a `chain::LedgerSnapshot` when it
/// starts processing; every result in the batch is computed against
/// that pinned epoch, reported in `ClassifyResult::tx_count`. A request
/// that joins another batch's build is answered at that batch's epoch,
/// which has the same capped tx count for the address and therefore
/// the same answer (the key the cache relies on too).
/// Queries are therefore not linearizable across a concurrent seal — a
/// request racing a seal may be answered from the epoch just before or
/// just after it — but every answer is exactly what a quiesced engine
/// would have produced at some epoch the chain actually passed through
/// between enqueue and completion. The cache needs no notification:
/// keys are snapshot-clamped tx counts, so entries from older epochs
/// are reused only for their immutable complete slices.
///
/// Resilience contract (see DESIGN.md "Overload & failure model"):
/// every request ends in exactly one of four explicit outcomes —
///
///  * **nominal**: the exact answer at the batch's pinned epoch;
///  * **degraded** (`ClassifyResult::degraded`, only with
///    `ClassifyOptions::allow_degraded`): a labeled non-nominal answer —
///    a stale cached prediction at its last pinned epoch
///    (`epoch_lag` > 0), a flat-feature fallback, or a fresh result
///    delivered past its deadline;
///  * **DeadlineExceeded**: the per-request deadline expired and no
///    degraded answer was allowed/available. Deadlines are checked at
///    submit, at cache lookup (before any graph construction) and again
///    at every batch-stage boundary;
///  * **ResourceExhausted**: the `AdmissionController` shed the request
///    in well under a millisecond because the engine is overloaded.
///
/// Nothing hangs, nothing is silently dropped, and every degraded
/// answer is counted (`degraded_{stale,fallback,late}` in the snapshot
/// and its `serve.engine.<n>` provider).

namespace ba::serve {

/// \brief Numeric precision of the engine's embed stage.
enum class Precision {
  kFp32,  ///< the trained model's native path (default)
  kInt8,  ///< quantized node-MLP path — requires a calibrated
          ///< (BaClassifier::Quantize) classifier
};

const char* PrecisionName(Precision p);

/// \brief Engine tunables.
struct InferenceEngineOptions {
  /// Embed-stage precision. kInt8 runs the quantized encoder path;
  /// Create() fails when the classifier has not been quantized. Cached
  /// embeddings are precision-specific (the cache file records which
  /// path produced it and refuses a mismatched warm start).
  Precision precision = Precision::kFp32;
  /// Pool workers that run async misses and help a blocking caller's
  /// batch with graph construction + encoder passes. The blocking
  /// caller works alongside them, so N concurrent blocking callers can
  /// keep up to N + num_threads cores busy, and a one-miss batch never
  /// leaves its own thread; an async miss builds on the worker that
  /// runs it. 0 draws on the process-wide `util::SharedPool()` instead
  /// of creating a private pool — the right choice when an engine
  /// coexists with training or other engines in one process (no
  /// oversubscription).
  int num_threads = 2;
  /// Maximum cached addresses; least-recently-used entries are evicted
  /// beyond it.
  size_t cache_capacity = 1 << 16;
  /// Cache persistence file. Empty disables persistence; otherwise
  /// Create() warm-starts from an existing file and SaveCache() writes
  /// it atomically.
  std::string cache_path;
  /// Retry policy for SaveCache(). The default (max_attempts = 1)
  /// keeps fail-fast semantics; a multi-attempt policy rides out
  /// transient write failures.
  util::RetryPolicy save_retry;
  /// Enables the AdmissionController: overloaded engines shed requests
  /// fast with ResourceExhausted instead of queueing without bound.
  /// Its backlog signal counts blocking requests until delivery, so it
  /// also bounds how many blocking callers build at once. Off by
  /// default — an engine without an operator-chosen budget accepts
  /// everything, as before.
  bool enable_admission = false;
  /// Budget and watermarks (used only with enable_admission).
  AdmissionOptions admission;
  /// Optional flat-feature fallback: when a request is shed or past
  /// deadline with `allow_degraded` and no cached answer exists, this
  /// hook supplies a cheap prediction (labeled degraded, epoch_lag 0).
  /// Must be thread-safe; called outside engine locks.
  std::function<int(chain::AddressId)> degraded_fallback;
  /// Flight-recorder capacity: the last N request timelines stay
  /// queryable (admin `slowlog` / `timeline <trace_id>`). Cheap enough
  /// to leave on (see flight_recorder.h); 0 disables recording.
  size_t flight_recorder_capacity = 1024;
  /// Requests whose total latency reaches this many seconds are copied
  /// into a separate slow ring and logged as one structured
  /// `BA_LOG(Warn, serve.slowlog)` line. 0 disables slow-request
  /// capture (the main recorder still records everything).
  double slow_request_threshold = 0.0;
  /// Consecutive computed-from-scratch answers before a client
  /// (`ClassifyOptions::client_id` != 0) is classified as sweeping and
  /// its requests stop promoting into the cache (see SweepDetector);
  /// < 1 disables sweep detection.
  int sweep_miss_streak = 32;

  /// \brief Returns OK when every field is usable, or a descriptive
  /// InvalidArgument naming the offending field and value.
  Status Validate() const;
};

// ClassifyOptions / ClassifyResult moved to serve/protocol.h (the
// versioned wire-stable protocol surface shared with the network
// layer); including it here keeps every existing caller compiling
// unchanged.

/// \brief Completion hook of `ClassifyAsync`. Invoked exactly once per
/// submitted request — either synchronously on the submitting thread,
/// before ClassifyAsync returns, for every outcome decided at submit
/// (unknown address, shed, deadline expired at submit, and whatever the
/// submit-side cache lookup settles: a full hit, an empty history, an
/// expired request's stale / fallback / DeadlineExceeded answer, or an
/// injected lookup fault) — or later on the thread running the batch
/// that delivers it: the pool task of its own miss, or the thread of
/// any batch (blocking caller or pool task) whose build it joined.
/// The second argument is the request's timeline — identical to
/// `result.timeline` on ok outcomes, and the only way to observe the
/// timeline of an error outcome (a Status cannot carry one); its
/// `outcome` field always matches the delivered result. Because it may
/// run on the submitting thread, the callback must not take a lock the
/// submitter holds around ClassifyAsync. It must not block and must
/// not call the engine's *blocking* methods (Classify / ClassifyBatch
/// / ~InferenceEngine) — it may run on a thread that is delivering a
/// batch, so blocking there stalls every request that batch still owes
/// an answer (and ~InferenceEngine there deadlocks).
using ClassifyCallback =
    std::function<void(Result<ClassifyResult>, const RequestTimeline&)>;

/// \brief Every metric the engine records, declared once as
/// `X(Kind, name)` where Kind is the obs instrument that records it.
/// The list expands into the engine's live `Stats`, the snapshot's
/// fields (`uint64_t` for a Counter, `double` seconds for a
/// TimeAccumulator, `obs::HistogramSnapshot` for a Histogram), the copy
/// in `Metrics()`, and the lines of `ToJson()` / `ToString()` — a row
/// added here shows up in all of them.
#define BA_SERVE_ENGINE_METRICS(X)                                             \
  X(Counter, requests)                                                         \
  X(Counter, full_hits)    /* answered from cache outright */                  \
  X(Counter, partial_hits) /* tail rebuilt, prefix reused */                   \
  X(Counter, misses)                                                           \
  /* Requests folded onto another request's work: a duplicate in the           \
     same batch, or a miss that joined another batch's build. */               \
  X(Counter, coalesced)                                                        \
  X(Counter, empty_history) /* addresses with no transactions */               \
  X(Counter, batches)                                                          \
  X(Counter, slices_built)                                                     \
  X(Counter, slices_reused)                                                    \
  X(Counter, cache_evictions)                                                  \
  X(Counter, shed)              /* rejected by admission control */            \
  X(Counter, deadline_exceeded) /* rejected on an expired deadline */          \
  X(Counter, degraded_stale)    /* answered from a stale cache entry */        \
  X(Counter, degraded_fallback) /* answered by the fallback hook */            \
  X(Counter, degraded_late)     /* fresh result past its deadline */           \
  /* Requests at or past `slow_request_threshold` (0 when disabled). */        \
  X(Counter, slow_requests)                                                    \
  X(TimeAccumulator, build_seconds)     /* graph construction (all workers) */ \
  X(TimeAccumulator, embed_seconds)     /* tensor prep + encoder forward */    \
  X(TimeAccumulator, aggregate_seconds) /* scaler + LSTM head + cache write */ \
  X(Histogram, request_latency)                                                \
  X(Histogram, batch_latency)

/// \brief Point-in-time view of every engine metric.
struct InferenceMetricsSnapshot {
#define BA_SERVE_SNAPSHOT_FIELD(kind, name) \
  decltype(obs::ValueOf(std::declval<const obs::kind&>())) name{};
  BA_SERVE_ENGINE_METRICS(BA_SERVE_SNAPSHOT_FIELD)
#undef BA_SERVE_SNAPSHOT_FIELD

  // Derived by the engine at scrape time rather than recorded.
  uint64_t cache_entries = 0;
  uint64_t pool_backlog = 0;  ///< thread-pool tasks in flight now
  uint64_t queue_depth = 0;   ///< async misses submitted, not yet started
  /// Admission state name ("accepting"/"shedding"/"recovering"), or
  /// "disabled" when admission control is off.
  std::string admission_state;
  /// (full + partial + coalesced) / (requests - empty_history), 0 when
  /// undefined.
  double hit_rate = 0.0;

  /// One `name value` line per field, the shape of
  /// obs::MetricsRegistry::TextExposition (monitoring loops print it).
  std::string ToString() const;
  /// Single JSON object (same fields; histograms as nested objects).
  std::string ToJson() const;
};

/// \brief Batched, cached, instrumented classification server.
class InferenceEngine {
 public:
  using Options = InferenceEngineOptions;

  /// Fault points of the cache-persist path (see util::FaultInjector):
  /// armed, SaveCache/warm-start fail before touching the filesystem —
  /// on top of the fs.* points inside AtomicFileWriter.
  static constexpr const char* kFaultCacheSave = "serve.cache.save";
  static constexpr const char* kFaultCacheLoad = "serve.cache.load";
  /// Batch-pipeline fault points, each consulted once per micro-batch
  /// at its stage boundary. A firing point fails every request still
  /// undecided in the batch with an explicit injected Internal error
  /// (never a hang or a wrong answer); ArmLatency on one stalls the
  /// stage, which is how chaos tests force deadlines to expire between
  /// stages. The lookup point is also consulted once per ClassifyAsync,
  /// at its submit-side lookup, where it fails that request the same
  /// way but never sleeps: the submitter may be an event loop.
  static constexpr const char* kFaultBatchLookup = "serve.batch.lookup";
  static constexpr const char* kFaultBatchBuild = "serve.batch.build";
  static constexpr const char* kFaultBatchAggregate =
      "serve.batch.aggregate";

  /// \brief Validating factory. Fails on null/untrained classifier,
  /// invalid engine or classifier options, or (when `cache_path` names
  /// an existing file) a cache file that is corrupt (or holds an entry
  /// no build makes) or was built under different model options.
  /// `classifier` and `ledger` must outlive the engine.
  static Result<std::unique_ptr<InferenceEngine>> Create(
      const core::BaClassifier* classifier, const chain::Ledger* ledger,
      Options options);

  /// Blocks until every in-flight request has completed and its
  /// callback returned — an engine is never destroyed out from under a
  /// pending `ClassifyAsync`.
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// \brief Classifies one address, delivering the outcome to `done`
  /// (see ClassifyCallback for the invocation contract). This is the
  /// primitive the network server drives — one epoll thread keeps
  /// thousands of requests in flight without burning a thread per
  /// request. The cache lookup runs on the submitting thread: a request
  /// it settles (a cache hit above all) is delivered before this
  /// returns, a request whose answer another batch is building joins
  /// that build, and only a miss is handed to the pool as a task of
  /// its own — nothing is ever built on the submitting thread. The
  /// blocking Classify/ClassifyBatch do not go through here: each
  /// caller runs its own batches. Caching, deadlines, admission and degraded
  /// answers behave exactly as documented on Classify.
  void ClassifyAsync(chain::AddressId address, const ClassifyOptions& options,
                     ClassifyCallback done);

  /// \brief Classifies one address (blocking). Thread-safe; concurrent
  /// callers are micro-batched. An address with no transactions
  /// predicts class 0 without touching the models. With a deadline or
  /// under overload the call can instead return DeadlineExceeded /
  /// ResourceExhausted, or a labeled degraded answer when
  /// `options.allow_degraded` permits one (see the resilience contract
  /// above). The calling thread leads the batch that holds its request,
  /// so concurrent callers run in parallel; a request for an answer
  /// another batch is building waits for that build instead of
  /// repeating it.
  Result<ClassifyResult> Classify(chain::AddressId address,
                                  const ClassifyOptions& options = {});

  /// \brief Classifies many addresses through the same batching path:
  /// the caller runs the whole list as its own batches, so its misses
  /// build in parallel over the pool. Results align with input;
  /// `options` applies to every request in the list.
  std::vector<Result<ClassifyResult>> ClassifyBatch(
      const std::vector<chain::AddressId>& addresses,
      const ClassifyOptions& options = {});

  /// \brief Persists the cache to `options().cache_path` atomically
  /// (no-op OK when persistence is disabled), least recently used first.
  /// Safe to call while queries run.
  Status SaveCache() const;

  /// Entries currently cached.
  size_t CacheSize() const;

  /// Drops every cached entry (metrics keep counting).
  void ClearCache();

  InferenceMetricsSnapshot Metrics() const;

  /// The admin `slowlog` payload: one JSON object
  /// {"threshold_seconds":…,"slow":[…],"recent":[…]} with up to
  /// `max_entries` timelines per ring.
  std::string SlowlogJson(size_t max_entries) const;

  /// The most recent recorded timeline carrying `trace_id`, searching
  /// the flight and slow rings, or nullopt.
  std::optional<FlightRecorder::Entry> FindTimeline(uint64_t trace_id) const;

  /// A client (`ClassifyOptions::client_id`) went away — the net server
  /// calls this on connection close, so a recycled connection id never
  /// inherits a stale miss streak.
  void ForgetClient(uint64_t client_id) { sweep_.Forget(client_id); }

  /// Clients currently classified as sweeping.
  uint64_t sweeping_clients() const { return sweep_.sweeping_clients(); }

  /// The admission controller, or nullptr when `enable_admission` is
  /// off (monitoring loops report its state).
  const AdmissionController* admission() const { return admission_.get(); }

  /// Ring of the last `flight_recorder_capacity` request timelines —
  /// every outcome, including sheds and deadline rejections. nullptr
  /// when the capacity option is 0.
  const FlightRecorder* flight_recorder() const { return recorder_.get(); }

  /// Ring of requests that crossed `slow_request_threshold`. nullptr
  /// when slow capture is disabled (threshold 0 or no recorder).
  const FlightRecorder* slow_recorder() const {
    return slow_recorder_.get();
  }

  const Options& options() const { return options_; }

 private:
  struct CacheEntry {
    /// Transaction-history length the entry was computed at (after the
    /// max_txs_per_address cap).
    uint64_t tx_count = 0;
    /// Slice embeddings, unscaled: a row-major (num_slices, embed_dim)
    /// matrix, row r for slice r. The first tx_count/slice_size rows
    /// cover complete — hence immutable — slices.
    std::vector<float> slice_embeddings;
    int predicted = 0;
    uint64_t last_used = 0;  ///< LRU tick
  };

  /// One in-flight request. Heap-allocated at submit, owned by the
  /// engine until its callback fires (async callers hold nothing).
  struct Request {
    chain::AddressId address = chain::kInvalidAddress;
    std::chrono::steady_clock::time_point deadline{};
    bool allow_degraded = false;
    /// kNoPromote for sweep traffic (flagged by the sweep detector, or
    /// asked for by the caller): lookups skip the LRU touch and results
    /// never insert new cache entries.
    CacheMode cache_mode = CacheMode::kNormal;
    /// ClassifyOptions::client_id, fed back to the sweep detector.
    uint64_t client_id = 0;
    ClassifyResult result;
    /// Non-OK when the request ended in an explicit error outcome
    /// (DeadlineExceeded, injected Internal) instead of a result.
    Status status;
    /// Completion hook; consumes the request.
    ClassifyCallback done;
    /// True when this request holds an admission slot to release.
    bool admitted = false;
    /// Submitted through ClassifyAsync: counted in inflight_requests_
    /// once it becomes a miss task or joins a build at submit.
    bool async = false;
    /// Submit time, for the request-latency histogram, trace span and
    /// the timeline's stamp origin.
    std::chrono::steady_clock::time_point submitted{};
    /// Stage stamps accumulated as the request crosses the pipeline
    /// (offsets from `submitted`; trace context copied from options).
    RequestTimeline tl;

    bool has_deadline() const {
      return deadline != std::chrono::steady_clock::time_point{};
    }
    bool expired(std::chrono::steady_clock::time_point now) const {
      return has_deadline() && now >= deadline;
    }
    int64_t SinceSubmitNs(std::chrono::steady_clock::time_point now) const {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(
                 now - submitted)
          .count();
    }
  };

  /// A miss some batch is building right now (see `flights_`).
  struct Flight {
    uint64_t tx_count = 0;  ///< the capped history length being built
    /// Requests waiting for this build — duplicates in its batch, or
    /// from other batches and async submits; the batch that owns it
    /// delivers them.
    std::vector<Request*> joiners;
  };

  /// What the lookup decided for one request.
  enum class LookupOutcome {
    kSettled,   ///< answered or failed: `result` / `status` are final
    kFallback,  ///< answered by the fallback hook, outside cache_mu_
    kJoin,      ///< the same answer is being built: park on `flight`
    kMiss,      ///< must be built; `entry` may donate complete slices
  };
  struct Lookup {
    LookupOutcome outcome = LookupOutcome::kMiss;
    Flight* flight = nullptr;           ///< kJoin: the build to join
    const CacheEntry* entry = nullptr;  ///< kMiss: an older entry, or null
  };

  InferenceEngine(const core::BaClassifier* classifier,
                  const chain::Ledger* ledger, Options options);

  /// The one lookup decision, made for `req` at capped history length
  /// `n` by every path that reads the cache: a batch's lookup stage and
  /// its build-boundary deadline re-check, the async submit, and
  /// TryDegradedAnswer. An empty history answers class 0. With `why`
  /// set the request may not start a build (deadline passed, or shed):
  /// it is answered from the cache when `allow_degraded` permits — an
  /// exact entry as a full hit, an older one as a stale answer —
  /// handed to the fallback hook, or failed with `*why`. Otherwise an
  /// exact entry is a full hit, a build of the same answer in flight is
  /// joined, and anything else is a miss. Counts the outcomes it
  /// settles (hits, empty histories, stale answers), never a miss or a
  /// join. Caller holds cache_mu_.
  Lookup LookupLocked(Request* req, uint64_t n, const Status* why);

  /// Answers `req` from the fallback hook, labeled degraded; the lookup
  /// already set its tx_count. Caller must not hold cache_mu_.
  void AnswerFromFallback(Request* req);

  /// Submit-side fast paths (validation, admission, expired-at-submit).
  /// Returns a heap request ready to enqueue, or nullptr after
  /// delivering the early outcome to `done`.
  Request* MakeRequest(chain::AddressId address,
                       const ClassifyOptions& options,
                       ClassifyCallback done);

  /// Async miss: submits one pool task that runs the request as a
  /// one-request batch, so the submitting thread (e.g. an epoll loop)
  /// never blocks on inference. A pool that rejects the task (shut
  /// down) gets it run inline instead of stranding the request.
  void SubmitMiss(Request* req);

  /// Blocking submit: runs the caller's own requests as batches of up
  /// to 32 (`kMaxBatchSize`) on the calling thread. No pool task, so
  /// concurrent callers build in parallel — and a caller that is
  /// itself a pool worker stays deadlock-free.
  void RunOwnBatches(const std::vector<Request*>& requests);

  /// Completes one request: releases its admission slot, records
  /// request metrics, fires the callback and frees it.
  void FinishRequest(Request* req);

  /// One micro-batch's state across its stages, and one address it
  /// builds (both defined in the .cc).
  struct Batch;
  struct Miss;

  /// Runs one micro-batch (no engine lock held) through the stages
  /// below and delivers every request it decided: its own, except
  /// those that joined another batch's build, plus the joiners of its
  /// own builds.
  void ProcessBatch(std::vector<Request*> requests);
  /// Stage 1: the lookup decision per request; each missed address
  /// becomes a `Miss`, which holds the address's flight.
  void LookupStage(Batch* batch);
  /// Lookup -> build: the build fault point, the deadline re-check and
  /// the drop of misses nobody waits for.
  void BuildBoundary(Batch* batch);
  /// Stage 2: one pool task per miss, running its windows in order.
  void BuildStage(Batch* batch);
  /// Builds slices [first_slice, first_slice + kBuildWindowSlices) of
  /// `miss` and writes each embedding at its slice index in its rows.
  void BuildWindow(const chain::LedgerSnapshot& snapshot, Miss* miss,
                   int first_slice);
  /// Stage 3: scaler + LSTM head, cache store and answers per miss.
  void AggregateStage(Batch* batch);
  /// Refreshes the load gauges and completes every request decided.
  void DeliverBatch(Batch* batch);
  /// Moves the joiners parked on `miss`'s flight into the batch; with
  /// `close` the flight is retired too. Caller holds cache_mu_.
  void AdoptJoiners(Batch* batch, Miss* miss, bool close);
  /// A stage fault fired at `point`: fails every request not yet
  /// decided, retiring each miss's flight so its joiners fail too.
  /// Caller must not hold cache_mu_.
  void FailUndecided(Batch* batch, const char* point);

  /// Capped chronological tx count of `address` at the pinned epoch —
  /// the cache key.
  uint64_t TxCountOf(const chain::LedgerSnapshot& snapshot,
                     chain::AddressId address) const;

  /// Inserts/overwrites the entry and evicts past capacity. With
  /// `no_promote` an existing entry is refreshed in place (recency
  /// untouched) and a new address is not inserted at all — sweep
  /// traffic cannot trigger eviction. Candidate ordering for an
  /// eviction sweep runs outside `cache_mu_` so concurrent lookups
  /// never stall behind the O(size) scan's nth_element. The miss's
  /// flight is retired in the same critical section as the store: its
  /// joiners are adopted there (a normal-mode joiner earns the entry a
  /// slot), so a lookup always finds the flight or the entry. Caller
  /// must not hold `cache_mu_`.
  void StoreEntry(Batch* batch, Miss* miss, CacheEntry entry);

  Status LoadCacheFile(const std::string& path);

  /// One save attempt (SaveCache wraps this in `options().save_retry`).
  Status SaveCacheOnce() const;

  /// Best labeled answer for a request that cannot run the nominal
  /// path (shed, or past deadline before any work): the lookup decision
  /// with `why` — a stale cached prediction, the fallback hook, or,
  /// when neither exists, `why` verbatim. An exact-epoch cache hit
  /// comes back non-degraded.
  Result<ClassifyResult> TryDegradedAnswer(chain::AddressId address,
                                           const Status& why,
                                           CacheMode cache_mode);

  /// Completes a submit-side fast path (shed, expired-at-submit,
  /// unknown address) with a timeline: deliver stamp, outcome label,
  /// flight-recorder entry, then the callback. Mirrors FinishRequest
  /// for requests that never got a heap Request.
  void DeliverEarly(chain::AddressId address,
                    std::chrono::steady_clock::time_point submit,
                    const ClassifyOptions& options,
                    Result<ClassifyResult> outcome,
                    const ClassifyCallback& done);

  /// Delivery-side bookkeeping shared by FinishRequest and
  /// DeliverEarly: the sweep detector's feedback for `client_id` (an
  /// answer with history that reused cached state resets its miss
  /// streak, one computed from scratch extends it; errors and empty
  /// histories say nothing about cache temperature), flight recorder,
  /// slow-ring + slowlog line, Perfetto flow event.
  void RecordDelivery(chain::AddressId address, uint64_t client_id,
                      const Result<ClassifyResult>& outcome,
                      const RequestTimeline& tl);

  /// Live backlog signal for admission: blocking requests not yet
  /// delivered, and pool tasks in flight — each async miss once.
  int64_t Backlog() const {
    return blocking_backlog_.load(std::memory_order_relaxed) +
           static_cast<int64_t>(pool_->in_flight());
  }

  const core::BaClassifier* classifier_;
  const chain::Ledger* ledger_;
  Options options_;
  int slice_size_;
  int k_hops_;
  int64_t embed_dim_;
  /// Set only when the engine owns a private pool (num_threads >= 1);
  /// declared before pool_ so pool_ can alias it.
  std::unique_ptr<ThreadPool> owned_pool_;
  /// The pool work actually runs on: owned_pool_ or the shared pool.
  ThreadPool* pool_;

  mutable std::mutex cache_mu_;
  std::unordered_map<chain::AddressId, CacheEntry> cache_;
  /// Single flight, guarded by cache_mu_: at most one build per
  /// address. A lookup that misses the cache but finds its (address,
  /// tx_count) here joins that build instead of starting its own. A
  /// flight is retired only after its result is in the cache, so a
  /// lookup finds one or the other (unless sweep traffic kept the
  /// result out of the cache).
  std::unordered_map<chain::AddressId, Flight> flights_;
  uint64_t lru_tick_ = 0;

  /// Guards the two drain counts below. Taken inside cache_mu_ by an
  /// async submit that joins a build, never the other way round.
  std::mutex drain_mu_;
  /// Signals the destructor: tasks returned, async requests delivered.
  std::condition_variable done_cv_;
  /// Miss tasks submitted and not yet returned. A task whose request
  /// joined another build still delivers its batch, which touches the
  /// engine, so the destructor waits for this to reach zero too.
  int64_t inflight_tasks_ = 0;
  /// Async requests handed to a miss task or parked on a flight and not
  /// yet delivered (callback not returned) — the destructor drains this
  /// to zero before tearing down. Requests the submit-side lookup
  /// settles are delivered before ClassifyAsync returns and never count.
  int64_t inflight_requests_ = 0;
  /// Miss tasks submitted and not yet started: the `queue_depth` metric.
  std::atomic<int64_t> queue_depth_{0};
  /// Blocking requests handed to RunOwnBatches and not yet delivered.
  /// They run no pool task, so this is their share of the backlog
  /// signal.
  std::atomic<int64_t> blocking_backlog_{0};

  /// Set only with options_.enable_admission.
  std::unique_ptr<AdmissionController> admission_;

  /// Last-N timeline ring (null when flight_recorder_capacity is 0).
  std::unique_ptr<FlightRecorder> recorder_;
  /// Timelines at or past the slow threshold (null when disabled).
  std::unique_ptr<FlightRecorder> slow_recorder_;
  /// options_.slow_request_threshold in nanoseconds (0 = disabled).
  int64_t slow_threshold_ns_ = 0;

  /// Per-client miss streaks (options_.sweep_miss_streak).
  SweepDetector sweep_;

  /// Live instruments behind every BA_SERVE_ENGINE_METRICS row.
  struct Stats {
#define BA_SERVE_STATS_FIELD(kind, name) obs::kind name;
    BA_SERVE_ENGINE_METRICS(BA_SERVE_STATS_FIELD)
#undef BA_SERVE_STATS_FIELD
  };
  mutable Stats stats_;

  /// Name this engine's snapshot provider is registered under in
  /// obs::MetricsRegistry ("serve.engine.<n>", unique per process).
  std::string registry_provider_name_;
  /// Registry gauges mirroring live load — "serve.engine.<n>.
  /// pool_backlog" / ".queue_depth" — refreshed per batch and on every
  /// Metrics() scrape.
  obs::Gauge* backlog_gauge_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  /// "serve.sweep.requests": requests the sweep detector stamped
  /// kNoPromote, one process-wide counter shared by every engine.
  obs::Counter* sweep_requests_ = nullptr;
};

/// The serving surface's former abstract name. InferenceEngine is the
/// only engine; the alias keeps code that still spells the type
/// `serve::Engine` (bench_profile's poll client) compiling.
using Engine = InferenceEngine;

}  // namespace ba::serve
