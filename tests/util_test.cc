// Unit tests for src/util: Status/Result, Rng, Stopwatch, ThreadPool,
// ChunkedVector, TablePrinter, CliFlags.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/chunked_vector.h"
#include "util/cli.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace ba {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, FactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::ResourceExhausted("over budget").ToString(),
            "ResourceExhausted: over budget");
  EXPECT_EQ(Status::DeadlineExceeded("too late").ToString(),
            "DeadlineExceeded: too late");
}

TEST(RetryTest, DefaultPolicyRunsExactlyOnce) {
  int calls = 0;
  const Status st = util::RetryWithBackoff(
      util::RetryPolicy{}, "op", [&] {
        ++calls;
        return Status::Internal("transient");
      });
  EXPECT_EQ(calls, 1);
  // Fail-fast default: the status comes back verbatim, unannotated.
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(st.message(), "transient");
}

TEST(RetryTest, RetriesTransientFailuresUntilSuccess) {
  util::RetryPolicy policy = util::RetryPolicy::Standard(5);
  policy.initial_backoff_seconds = 1e-4;
  policy.max_backoff_seconds = 1e-3;
  int calls = 0;
  const Status st = util::RetryWithBackoff(policy, "op", [&] {
    return ++calls < 3 ? Status::ResourceExhausted("busy") : Status::OK();
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(calls, 3);
}

TEST(RetryTest, NonRetryableFailureReturnsImmediately) {
  util::RetryPolicy policy = util::RetryPolicy::Standard(5);
  int calls = 0;
  const Status st = util::RetryWithBackoff(policy, "op", [&] {
    ++calls;
    return Status::InvalidArgument("permanent");
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "permanent");
}

TEST(RetryTest, ExhaustedBudgetAnnotatesLastError) {
  util::RetryPolicy policy = util::RetryPolicy::Standard(3);
  policy.initial_backoff_seconds = 1e-5;
  policy.max_backoff_seconds = 1e-4;
  int calls = 0;
  const Status st = util::RetryWithBackoff(policy, "flaky save", [&] {
    ++calls;
    return Status::Internal("disk full");
  });
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("flaky save"), std::string::npos);
  EXPECT_NE(st.message().find("disk full"), std::string::npos);
  EXPECT_NE(st.message().find("max_attempts=3"), std::string::npos);
}

TEST(RetryTest, DeadlineAbandonsRemainingAttempts) {
  util::RetryPolicy policy = util::RetryPolicy::Standard(100);
  policy.initial_backoff_seconds = 0.02;
  policy.max_backoff_seconds = 0.02;
  policy.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
  int calls = 0;
  const Status st = util::RetryWithBackoff(policy, "op", [&] {
    ++calls;
    return Status::Internal("down");
  });
  EXPECT_FALSE(st.ok());
  // Far fewer than 100 attempts: a backoff sleep that would land past
  // the deadline abandons the loop instead.
  EXPECT_LT(calls, 10);
  EXPECT_NE(st.message().find("deadline reached"), std::string::npos);
}

TEST(RetryTest, ValidateRejectsBadPolicies) {
  util::RetryPolicy policy;
  policy.max_attempts = 0;
  EXPECT_EQ(util::RetryWithBackoff(policy, "op", [] {
              return Status::OK();
            }).code(),
            StatusCode::kInvalidArgument);
  policy = util::RetryPolicy{};
  policy.initial_backoff_seconds = -1.0;
  EXPECT_FALSE(policy.Validate().ok());
  policy = util::RetryPolicy{};
  policy.max_backoff_seconds = policy.initial_backoff_seconds / 2.0;
  EXPECT_FALSE(policy.Validate().ok());
  EXPECT_TRUE(util::RetryPolicy::Standard().Validate().ok());
}

TEST(RetryTest, ClassifiesRetryableStatuses) {
  EXPECT_TRUE(util::IsRetryableStatus(Status::Internal("io")));
  EXPECT_TRUE(
      util::IsRetryableStatus(Status::ResourceExhausted("backpressure")));
  EXPECT_FALSE(util::IsRetryableStatus(Status::OK()));
  EXPECT_FALSE(util::IsRetryableStatus(Status::InvalidArgument("bad")));
  EXPECT_FALSE(util::IsRetryableStatus(Status::NotFound("gone")));
  EXPECT_FALSE(
      util::IsRetryableStatus(Status::DeadlineExceeded("expired")));
}

Status FailIfNegative(int v) {
  if (v < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status Propagates(int v) {
  BA_RETURN_NOT_OK(FailIfNegative(v));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(Propagates(1).ok());
  EXPECT_FALSE(Propagates(-1).ok());
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::OutOfRange("not positive");
  return v;
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> good = ParsePositive(5);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 5);
  EXPECT_EQ(*good, 5);

  Result<int> bad = ParsePositive(0);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(bad.ValueOr(-7), -7);
}

Result<int> Doubled(int v) {
  BA_ASSIGN_OR_RETURN(int x, ParsePositive(v));
  return 2 * x;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  ASSERT_TRUE(Doubled(3).ok());
  EXPECT_EQ(Doubled(3).value(), 6);
  EXPECT_FALSE(Doubled(-3).ok());
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 3000; ++i) {
    const uint64_t v = rng.UniformInt(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit
  for (int i = 0; i < 100; ++i) {
    const int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(42);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, PoissonMeanMatches) {
  Rng rng(5);
  for (double mean : {0.5, 3.0, 20.0, 100.0}) {
    double total = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) total += static_cast<double>(rng.Poisson(mean));
    EXPECT_NEAR(total / n, mean, mean * 0.08 + 0.05) << "mean=" << mean;
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(9);
  double total = 0.0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) total += rng.Exponential(2.0);
  EXPECT_NEAR(total / n, 0.5, 0.02);
}

TEST(RngTest, ZipfFavorsSmallIndices) {
  Rng rng(3);
  int first = 0, last = 0;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t v = rng.Zipf(100, 1.2);
    EXPECT_LT(v, 100u);
    if (v == 0) ++first;
    if (v == 99) ++last;
  }
  EXPECT_GT(first, 20 * std::max(last, 1));
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(23);
  std::vector<double> w{0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.WeightedIndex(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.3);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(99);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

TEST(StopwatchTest, AccumulatesAcrossIntervals) {
  Stopwatch w;
  w.Start();
  w.Stop();
  const int64_t first = w.ElapsedNanos();
  EXPECT_GE(first, 0);
  w.Start();
  w.Stop();
  EXPECT_GE(w.ElapsedNanos(), first);
  w.Reset();
  EXPECT_EQ(w.ElapsedNanos(), 0);
}

TEST(StopwatchTest, ScopedTimerAccumulates) {
  Stopwatch w;
  {
    ScopedTimer t(&w);
    volatile int64_t sink = 0;
    for (int i = 0; i < 100000; ++i) sink = sink + i;
  }
  EXPECT_GT(w.ElapsedNanos(), 0);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(pool.Submit([&counter] { counter.fetch_add(1); }));
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(257, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, SubmitAfterShutdownIsRejected) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  EXPECT_TRUE(pool.Submit([&counter] { counter.fetch_add(1); }));
  pool.Shutdown();  // drains the pending task, then joins
  EXPECT_EQ(counter.load(), 1);
  EXPECT_FALSE(pool.Submit([&counter] { counter.fetch_add(1); }));
  EXPECT_EQ(counter.load(), 1);
  pool.Shutdown();  // idempotent
  EXPECT_FALSE(pool.Submit([] {}));
}

TEST(ThreadPoolTest, ParallelForRunsInlineAfterShutdown) {
  ThreadPool pool(2);
  pool.Shutdown();
  std::vector<int> hits(10, 0);  // plain ints: iterations run inline
  pool.ParallelFor(hits.size(), [&hits](size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForOfOneRunsOnTheCallerWithoutThePool) {
  ThreadPool pool(2);
  const obs::Counter* tasks =
      obs::MetricsRegistry::Instance().GetCounter("util.thread_pool.tasks");
  const uint64_t tasks_before = tasks->value();
  std::thread::id ran_on;
  bool marked_parallel = false;
  pool.ParallelFor(1, [&](size_t) {
    ran_on = std::this_thread::get_id();
    marked_parallel = ThreadPool::InWorkerThread();
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(tasks->value(), tasks_before);
  // The iteration still counts as a parallel region (nested GEMMs run
  // serially, as they would on a worker); the caller is unmarked after.
  EXPECT_TRUE(marked_parallel);
  EXPECT_FALSE(ThreadPool::InWorkerThread());
}

TEST(ThreadPoolTest, ParallelForFinishesWhileEveryWorkerIsBusy) {
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  int parked = 0;
  bool release = false;
  for (size_t w = 0; w < pool.num_threads(); ++w) {
    ASSERT_TRUE(pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      ++parked;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }));
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked == 2; });
  }
  // A ParallelFor that needs a worker would wait forever; the watchdog
  // frees the workers after a while so the test fails instead of
  // hanging.
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(10), [&] { return release; });
    release = true;
    cv.notify_all();
  });
  std::vector<std::atomic<int>> hits(8);
  pool.ParallelFor(hits.size(), [&hits](size_t i) { hits[i].fetch_add(1); });
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_FALSE(release) << "ParallelFor waited for a parked worker";
    release = true;
  }
  cv.notify_all();
  watchdog.join();
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

/// Tracks live instances: every constructor adds one, the destructor
/// removes one.
struct Counted {
  static inline int live = 0;
  int value = 0;
  Counted() { ++live; }
  explicit Counted(int v) : value(v) { ++live; }
  Counted(const Counted& other) : value(other.value) { ++live; }
  Counted(Counted&& other) noexcept : value(other.value) { ++live; }
  Counted& operator=(const Counted&) = default;
  ~Counted() { --live; }
};

TEST(ChunkedVectorTest, ConstructsEachElementWhenPublished) {
  Counted::live = 0;
  // Past chunks 0 and 1 (64 + 128 elements) into chunk 2.
  const size_t n = 3 * util::ChunkedVector<Counted>::kFirstChunkElems + 1;
  {
    util::ChunkedVector<Counted> v;
    for (size_t i = 0; i < n; ++i) {
      v.push_back(Counted(static_cast<int>(i)));
      ASSERT_EQ(Counted::live, static_cast<int>(v.size()))
          << "a chunk was constructed ahead of publication";
    }
    v.Append().value = -1;
    EXPECT_EQ(Counted::live, static_cast<int>(n + 1));
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(v[i].value, static_cast<int>(i));
    EXPECT_EQ(v.back().value, -1);

    util::ChunkedVector<Counted> moved(std::move(v));
    EXPECT_EQ(moved.size(), n + 1);
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(Counted::live, static_cast<int>(n + 1));
  }
  EXPECT_EQ(Counted::live, 0) << "constructions and destructions differ";
}

/// Storable only through push_back: there is no default constructor.
struct NoDefault {
  explicit NoDefault(std::string s) : text(std::move(s)) {}
  std::string text;
};

TEST(ChunkedVectorTest, PushBackNeedsNoDefaultConstructor) {
  util::ChunkedVector<NoDefault> v;
  for (int i = 0; i < 200; ++i) v.push_back(NoDefault(std::to_string(i)));
  ASSERT_EQ(v.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(v[static_cast<size_t>(i)].text, std::to_string(i));
  }
}

TEST(TablePrinterTest, RendersAlignedRows) {
  TablePrinter t({"Model", "F1"});
  t.AddRow({"GFN", "0.9769"});
  t.AddRow({"GCN", "0.9514"});
  std::ostringstream os;
  t.Print(os, "Table II");
  const std::string out = os.str();
  EXPECT_NE(out.find("Table II"), std::string::npos);
  EXPECT_NE(out.find("GFN"), std::string::npos);
  EXPECT_NE(out.find("0.9514"), std::string::npos);
}

TEST(TablePrinterTest, NumFormatsFixedPrecision) {
  EXPECT_EQ(TablePrinter::Num(0.97693, 4), "0.9769");
  EXPECT_EQ(TablePrinter::Num(1.0, 2), "1.00");
}

TEST(TablePrinterTest, CountAddsThousandsSeparators) {
  EXPECT_EQ(TablePrinter::Count(912322), "912,322");
  EXPECT_EQ(TablePrinter::Count(133), "133");
  EXPECT_EQ(TablePrinter::Count(2138657), "2,138,657");
  EXPECT_EQ(TablePrinter::Count(-1500), "-1,500");
}

TEST(CliFlagsTest, ParsesFormsAndDefaults) {
  const char* argv[] = {"prog",     "--addresses", "500",  "--seed=9",
                        "--verbose", "--rate",      "0.25"};
  CliFlags flags(7, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("addresses", 0), 500);
  EXPECT_EQ(flags.GetInt("seed", 0), 9);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0.0), 0.25);
  EXPECT_EQ(flags.GetInt("missing", 42), 42);
  EXPECT_EQ(flags.GetString("missing", "dflt"), "dflt");
}

/// Restores the process-wide logger configuration on scope exit.
class LogConfigGuard {
 public:
  LogConfigGuard() : level_(util::log::MinLevel()) {}
  ~LogConfigGuard() {
    util::log::SetMinLevel(level_);
    util::log::SetModuleFilter("");
  }

 private:
  util::log::Level level_;
};

TEST(LoggingTest, ParseLevelAcceptsNamesAndFallsBack) {
  using util::log::Level;
  using util::log::ParseLevel;
  EXPECT_EQ(ParseLevel("debug", Level::kOff), Level::kDebug);
  EXPECT_EQ(ParseLevel("INFO", Level::kOff), Level::kInfo);
  EXPECT_EQ(ParseLevel("Warn", Level::kOff), Level::kWarn);
  EXPECT_EQ(ParseLevel("warning", Level::kOff), Level::kWarn);
  EXPECT_EQ(ParseLevel("error", Level::kOff), Level::kError);
  EXPECT_EQ(ParseLevel("off", Level::kDebug), Level::kOff);
  EXPECT_EQ(ParseLevel("bogus", Level::kInfo), Level::kInfo);
}

TEST(LoggingTest, MinLevelGatesShouldLog) {
  LogConfigGuard guard;
  using util::log::Level;
  util::log::SetMinLevel(Level::kWarn);
  EXPECT_FALSE(util::log::ShouldLog(Level::kDebug, "test"));
  EXPECT_FALSE(util::log::ShouldLog(Level::kInfo, "test"));
  EXPECT_TRUE(util::log::ShouldLog(Level::kWarn, "test"));
  EXPECT_TRUE(util::log::ShouldLog(Level::kError, "test"));
  util::log::SetMinLevel(Level::kOff);
  EXPECT_FALSE(util::log::ShouldLog(Level::kError, "test"));
}

TEST(LoggingTest, ModuleFilterMatchesPrefixes) {
  LogConfigGuard guard;
  using util::log::Level;
  util::log::SetMinLevel(Level::kDebug);
  util::log::SetModuleFilter("core.train, obs");
  EXPECT_TRUE(util::log::ShouldLog(Level::kInfo, "core.train"));
  EXPECT_TRUE(util::log::ShouldLog(Level::kInfo, "core.train.epoch"));
  EXPECT_TRUE(util::log::ShouldLog(Level::kInfo, "obs.trace"));
  EXPECT_FALSE(util::log::ShouldLog(Level::kInfo, "serve"));
  util::log::SetModuleFilter("");
  EXPECT_TRUE(util::log::ShouldLog(Level::kInfo, "serve"));
}

TEST(LoggingTest, FilteredStatementSkipsOperandEvaluation) {
  LogConfigGuard guard;
  util::log::SetMinLevel(util::log::Level::kError);
  int evaluations = 0;
  auto expensive = [&evaluations] {
    ++evaluations;
    return 42;
  };
  BA_LOG(Debug, "test") << "value " << expensive();
  EXPECT_EQ(evaluations, 0);
  BA_LOG(Error, "test") << "value " << expensive();
  EXPECT_EQ(evaluations, 1);
}

}  // namespace
}  // namespace ba
