#!/usr/bin/env bash
# Builds the tier-1 targets under a sanitizer and runs the test suite.
# This is the crash-safety gate: fault-injection and corruption tests
# must pass with zero sanitizer findings.
#
# Four configurations:
#   address (default)  ASan + UBSan over the full suite; a UBSan report
#                      aborts its test (-fno-sanitize-recover=undefined).
#   thread             TSan over the concurrency-sensitive tests
#                      (serve_test drives the batched inference engine
#                      from multiple client threads; snapshot_test
#                      seals blocks while classifying — the ledger
#                      epoch/snapshot layer's acceptance gate;
#                      parallel_train_test exercises data-parallel
#                      training and the shared pool; obs_test hammers
#                      the metrics registry and tracer concurrently;
#                      graph_builder_test and flat_construction_test
#                      build graphs on several threads at once through
#                      the construction's thread-local scratch).
#                      Then it repeats
#                      LedgerSnapshotTest.ConcurrentWriterAndSnapshotReaders
#                      200 times: a guard for Snapshot() pinning one
#                      moment (no pinned transaction above the pinned
#                      height while the writer seals).
#   trace              Smoke-tests the observability subsystem: runs the
#                      serve_monitor example with BA_TRACE_OUT set and
#                      validates that the emitted file is well-formed
#                      Chrome trace-event JSON containing spans from the
#                      core, serve and util.thread_pool subsystems.
#   chaos              TSan over the chaos/resilience suite: randomized
#                      fault injection, injected latency, deadlines and
#                      admission-controlled overload driven against the
#                      serving engine while blocks seal concurrently
#                      (chaos_test, resilience_test), plus the fault
#                      injector's own concurrency hammer and the atomic
#                      file writer under concurrent writers (fs_test).
#   net                Release-build network smoke: starts the ba_serve
#                      daemon on ephemeral ports (--port-file handshake),
#                      drives it over real sockets with bench_net_loadgen
#                      in external mode (fleet, churn and the protocol
#                      abuse suite — no lost or hung connections
#                      tolerated), scrapes health/metrics through the
#                      admin port via serve_monitor's scrape subcommand
#                      (the metrics scrape must carry the engine's
#                      serve.sweep.requests counter and its provider's
#                      degraded_stale / slow_requests keys), then shuts
#                      the daemon down with an admin quit and requires a
#                      clean exit.
#   perf               Release-build perf smoke: bench_gemm (fp32 +
#                      int8 kernel parity, single-thread speedup), the
#                      training throughput bench at 1 and N lanes, and
#                      the int8 serving comparison (quantized engine
#                      must hold >= 1.3x fp32 qps with label accuracy
#                      within 0.5 points). Fails on any kernel parity
#                      mismatch, serial/threaded loss divergence, or a
#                      missed int8 gate; the JSON outputs land in the
#                      build dir, not the repo root.
#   profile            Release build of the repo benchmark's own project
#                      (bench_profile/, into its own build dir) and that
#                      build's ctest: latency_recorder_test plus
#                      `bench_profile --smoke`, which runs all five
#                      workloads briefly and checks every answer against
#                      BaClassifier::Predict. Runs the benchmark only;
#                      nothing under bench_profile/ is modified.
#
# Usage: scripts/check.sh [address|thread|trace|chaos|net|perf|profile] [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
MODE="${1:-address}"

# Static gate, every mode: instrument/span names must follow the
# <subsystem>.<stage> convention (scripts/lint_metric_names.sh).
scripts/lint_metric_names.sh

# Every tier-1 test registered in tests/CMakeLists.txt must exist in
# the build dir after a build — a test that silently fails to build
# (or gets dropped from the target list) must fail the gate, not skip.
require_test_binaries() {
  local build_dir="$1"
  local missing=0
  while read -r name; do
    if [ ! -x "$build_dir/tests/$name" ]; then
      echo "check.sh: MISSING TEST BINARY: $build_dir/tests/$name" >&2
      missing=1
    fi
  done < <(sed -n 's/^ba_add_test(\([a-z_0-9]*\)[ )].*/\1/p' tests/CMakeLists.txt)
  if [ "$missing" -ne 0 ]; then
    echo "check.sh: tier-1 test binaries missing after build; failing" >&2
    exit 1
  fi
}

case "$MODE" in
  address)
    BUILD_DIR="${2:-build-sanitize}"
    cmake -B "$BUILD_DIR" -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DBA_SANITIZE=address \
      -DBA_BUILD_BENCHMARKS=OFF \
      -DBA_BUILD_EXAMPLES=OFF
    cmake --build "$BUILD_DIR" -j "$(nproc)"
    require_test_binaries "$BUILD_DIR"
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
    ;;
  thread)
    BUILD_DIR="${2:-build-tsan}"
    cmake -B "$BUILD_DIR" -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DBA_SANITIZE=thread \
      -DBA_BUILD_BENCHMARKS=OFF \
      -DBA_BUILD_EXAMPLES=OFF
    TSAN_TESTS="serve_test snapshot_test util_test obs_test parallel_train_test resilience_test chaos_test protocol_test net_test async_classify_test graph_builder_test flat_construction_test"
    # shellcheck disable=SC2086
    cmake --build "$BUILD_DIR" -j "$(nproc)" \
      --target $TSAN_TESTS
    for t in $TSAN_TESTS; do
      if [ ! -x "$BUILD_DIR/tests/$t" ]; then
        echo "check.sh: MISSING TEST BINARY: $BUILD_DIR/tests/$t" >&2
        exit 1
      fi
    done
    for t in $TSAN_TESTS; do
      "$BUILD_DIR/tests/$t"
    done
    "$BUILD_DIR/tests/snapshot_test" \
      --gtest_filter=LedgerSnapshotTest.ConcurrentWriterAndSnapshotReaders \
      --gtest_repeat=200 --gtest_brief=1
    ;;
  chaos)
    BUILD_DIR="${2:-build-tsan}"
    cmake -B "$BUILD_DIR" -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DBA_SANITIZE=thread \
      -DBA_BUILD_BENCHMARKS=OFF \
      -DBA_BUILD_EXAMPLES=OFF
    CHAOS_TESTS="chaos_test resilience_test fs_test"
    # shellcheck disable=SC2086
    cmake --build "$BUILD_DIR" -j "$(nproc)" \
      --target $CHAOS_TESTS
    for t in $CHAOS_TESTS; do
      if [ ! -x "$BUILD_DIR/tests/$t" ]; then
        echo "check.sh: MISSING TEST BINARY: $BUILD_DIR/tests/$t" >&2
        exit 1
      fi
    done
    for t in $CHAOS_TESTS; do
      "$BUILD_DIR/tests/$t"
    done
    ;;
  trace)
    BUILD_DIR="${2:-build}"
    TRACE_FILE="$(mktemp /tmp/ba_trace_smoke_XXXXXX.json)"
    CACHE_FILE="$(mktemp -u /tmp/ba_trace_smoke_cache_XXXXXX.basv)"
    trap 'rm -f "$TRACE_FILE" "$CACHE_FILE"' EXIT
    cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build "$BUILD_DIR" -j "$(nproc)" --target serve_monitor
    # A short serving run exercises training, graph construction, the
    # micro-batching engine and the thread pool in one process.
    BA_TRACE_OUT="$TRACE_FILE" "$BUILD_DIR"/examples/serve_monitor \
      --blocks 60 --stream 3 --clients 2 --trace-out "$TRACE_FILE" \
      --cache "$CACHE_FILE"
    python3 - "$TRACE_FILE" <<'EOF'
import json, sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)

events = doc["traceEvents"]
assert isinstance(events, list) and events, "no trace events"
names = {e["name"] for e in events}
spans = [e for e in events if e.get("ph") == "X"]
assert spans, "no complete ('X') spans"
for e in spans:
    assert e["dur"] >= 0, f"negative duration: {e}"
    assert {"name", "ph", "ts", "pid", "tid"} <= e.keys(), f"missing keys: {e}"

for prefix in ("core.", "serve.", "util.thread_pool."):
    assert any(n.startswith(prefix) for n in names), \
        f"no span from subsystem {prefix!r}; saw {sorted(names)[:20]}"

print(f"trace OK: {len(events)} events, "
      f"{len({e['tid'] for e in events})} threads, "
      f"subsystems core/serve/util.thread_pool all present")
EOF
    ;;
  net)
    BUILD_DIR="${2:-build}"
    PORT_FILE="$(mktemp -u /tmp/ba_net_smoke_port_XXXXXX)"
    LOADGEN_OUT="$(mktemp -u /tmp/ba_net_smoke_bench_XXXXXX.json)"
    DAEMON_LOG="$(mktemp /tmp/ba_net_smoke_daemon_XXXXXX.log)"
    METRICS_OUT="$(mktemp /tmp/ba_net_smoke_metrics_XXXXXX.json)"
    DAEMON_PID=""
    cleanup_net() {
      if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill "$DAEMON_PID" 2>/dev/null || true
        wait "$DAEMON_PID" 2>/dev/null || true
      fi
      rm -f "$PORT_FILE" "$LOADGEN_OUT" "$DAEMON_LOG" "$METRICS_OUT"
    }
    trap cleanup_net EXIT
    cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build "$BUILD_DIR" -j "$(nproc)" \
      --target ba_serve_daemon bench_net_loadgen serve_monitor
    for bin in examples/ba_serve bench/bench_net_loadgen \
               examples/serve_monitor; do
      if [ ! -x "$BUILD_DIR/$bin" ]; then
        echo "check.sh: MISSING BINARY: $BUILD_DIR/$bin" >&2
        exit 1
      fi
    done
    # Ephemeral ports + port-file handshake: no fixed port to collide
    # with a parallel CI job.
    "$BUILD_DIR"/examples/ba_serve --port 0 --admin-port 0 \
      --port-file "$PORT_FILE" --blocks 60 --seal-every-ms 200 \
      > "$DAEMON_LOG" 2>&1 &
    DAEMON_PID="$!"
    for _ in $(seq 1 300); do
      [ -s "$PORT_FILE" ] && break
      if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
        echo "check.sh: ba_serve died during startup:" >&2
        cat "$DAEMON_LOG" >&2
        exit 1
      fi
      sleep 0.2
    done
    if [ ! -s "$PORT_FILE" ]; then
      echo "check.sh: ba_serve never wrote $PORT_FILE" >&2
      cat "$DAEMON_LOG" >&2
      exit 1
    fi
    read -r DATA_PORT ADMIN_PORT < "$PORT_FILE"
    echo "check.sh: ba_serve up (data $DATA_PORT, admin $ADMIN_PORT)"
    # Admin scrape first: health must report ok before any load.
    "$BUILD_DIR"/examples/serve_monitor scrape --admin "$ADMIN_PORT" \
      --cmd health | grep -q '"status":"ok"' \
      || { echo "check.sh: health scrape failed" >&2; exit 1; }
    # External-mode loadgen: fleet + churn + abuse against the live
    # daemon; exits non-zero when any connection is lost or hung.
    "$BUILD_DIR"/bench/bench_net_loadgen --connect "$DATA_PORT" \
      --address-max 50 --connections 8 --seconds 1 --churn-rounds 20 \
      --out "$LOADGEN_OUT"
    # The daemon served real traffic: the registry scrape must show it,
    # and the engine's sweep detector must publish its counter.
    "$BUILD_DIR"/examples/serve_monitor scrape --admin "$ADMIN_PORT" \
      --cmd metrics > "$METRICS_OUT" \
      || { echo "check.sh: metrics scrape failed" >&2; exit 1; }
    grep -q 'net.requests' "$METRICS_OUT" \
      || { echo "check.sh: no net.requests in scrape" >&2; exit 1; }
    grep -q 'serve.sweep.requests' "$METRICS_OUT" \
      || { echo "check.sh: no serve.sweep.requests in scrape" >&2; exit 1; }
    # Degraded answers and slow requests are counted only in the
    # serve.engine.<n> provider: the scrape must carry its keys.
    for key in degraded_stale slow_requests; do
      grep -q "\"$key\"" "$METRICS_OUT" \
        || { echo "check.sh: no $key in scrape" >&2; exit 1; }
    done
    # Admin quit: the daemon must exit 0 on its own, no signal needed.
    "$BUILD_DIR"/examples/serve_monitor scrape --admin "$ADMIN_PORT" \
      --cmd quit | grep -q 'bye' \
      || { echo "check.sh: quit scrape failed" >&2; exit 1; }
    if ! wait "$DAEMON_PID"; then
      echo "check.sh: ba_serve exited non-zero after quit:" >&2
      cat "$DAEMON_LOG" >&2
      exit 1
    fi
    DAEMON_PID=""
    echo "net smoke OK (data $DATA_PORT, admin $ADMIN_PORT)"
    ;;
  perf)
    BUILD_DIR="${2:-build}"
    THREADS="${BA_THREADS:-$(nproc)}"
    cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build "$BUILD_DIR" -j "$(nproc)" \
      --target bench_gemm bench_train_throughput bench_serve_throughput
    # Kernel parity + single-thread speedup (the acceptance gate), then
    # the row-panel split at N threads. bench_gemm exits non-zero on any
    # parity mismatch — fp32 tolerance parity, and bit-exact int8
    # parity across ISA variants.
    "$BUILD_DIR"/bench/bench_gemm --threads 1 --reps-ms 80 \
      --out "$BUILD_DIR/BENCH_gemm.json"
    "$BUILD_DIR"/bench/bench_gemm --threads "$THREADS" --reps-ms 80 \
      --out "$BUILD_DIR/BENCH_gemm_mt.json"
    # Serial vs data-parallel training on a reduced economy; exits
    # non-zero when per-epoch losses diverge between lane counts.
    "$BUILD_DIR"/bench/bench_train_throughput --threads "$THREADS" \
      --blocks 150 --addresses 200 --epochs 2 \
      --out "$BUILD_DIR/BENCH_train.json"
    # Int8 serving gates: the quantized engine must hold >= 1.3x the
    # fp32 engine's cold-cache qps, with label accuracy within 0.5
    # points (bench_serve_throughput exits non-zero on either miss).
    "$BUILD_DIR"/bench/bench_serve_throughput --precision int8 \
      --out "$BUILD_DIR/BENCH_serve_int8.json"
    echo "perf smoke OK (threads=$THREADS)"
    ;;
  profile)
    BUILD_DIR="${2:-build-profile}"
    cmake -S bench_profile -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release
    cmake --build "$BUILD_DIR" -j "$(nproc)"
    for bin in bench_profile latency_recorder_test; do
      if [ ! -x "$BUILD_DIR/$bin" ]; then
        echo "check.sh: MISSING BINARY: $BUILD_DIR/$bin" >&2
        exit 1
      fi
    done
    ctest --test-dir "$BUILD_DIR" --output-on-failure --no-tests=error
    echo "profile smoke OK"
    ;;
  *)
    echo "usage: scripts/check.sh [address|thread|trace|chaos|net|perf|profile] [build-dir]" >&2
    exit 2
    ;;
esac
