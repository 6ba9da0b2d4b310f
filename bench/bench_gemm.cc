// GEMM kernel bench: parity + throughput of the blocked/vectorized
// kernels (tensor/gemm.cc) against the pre-PR naive reference loops,
// for all three layouts (normal, Aᵀ·B, A·Bᵀ), plus the int8 inference
// kernel family (tensor/quant.h). Writes BENCH_gemm.json.
//
//   ./build/bench/bench_gemm [--threads 1] [--reps-ms 150]
//       [--out BENCH_gemm.json] [--trace-out trace.json]
//
// Run with --threads 1 for the single-thread kernel comparison (the
// acceptance gate), and --threads N to exercise the row-panel split.
// Exits non-zero on any parity mismatch (fp32 tolerance, int8
// fp32-tolerance, or int8 dispatch-vs-scalar bit parity).

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "tensor/gemm.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"

namespace {

using ba::Rng;
using ba::tensor::Tensor;

using MatMulFn = Tensor (*)(const Tensor&, const Tensor&);

struct Layout {
  const char* name;
  MatMulFn optimized;
  MatMulFn reference;
  /// Shapes of (a, b) for an m×k×n problem under this layout.
  std::vector<int64_t> (*a_shape)(int64_t m, int64_t k);
  std::vector<int64_t> (*b_shape)(int64_t k, int64_t n);
};

const Layout kLayouts[] = {
    {"ab", ba::tensor::MatMulValue, ba::tensor::MatMulReferenceValue,
     [](int64_t m, int64_t k) { return std::vector<int64_t>{m, k}; },
     [](int64_t k, int64_t n) { return std::vector<int64_t>{k, n}; }},
    {"atb", ba::tensor::MatMulTransposeAValue,
     ba::tensor::MatMulReferenceTransposeAValue,
     [](int64_t m, int64_t k) { return std::vector<int64_t>{k, m}; },
     [](int64_t k, int64_t n) { return std::vector<int64_t>{k, n}; }},
    {"abt", ba::tensor::MatMulTransposeBValue,
     ba::tensor::MatMulReferenceTransposeBValue,
     [](int64_t m, int64_t k) { return std::vector<int64_t>{m, k}; },
     [](int64_t k, int64_t n) { return std::vector<int64_t>{n, k}; }},
};

/// Worst mismatch between two same-shaped results, carrying enough to
/// diagnose a kernel regression from the CI log alone: the offending
/// (i, j) index and the absolute difference there, alongside the
/// relative metric the gate thresholds.
struct ParityError {
  double rel_err = 0.0;
  double abs_err = 0.0;
  int64_t i = -1;
  int64_t j = -1;
};

/// Largest relative mismatch between optimized and reference results.
/// The kernels contract mul+add into FMA, so a small tolerance (not
/// bit-equality) is the correct parity notion. The denominator floors
/// at sqrt(k) — the natural magnitude of a k-term dot product of O(1)
/// inputs — so cancellation-near-zero outputs don't blow up a purely
/// relative metric.
ParityError MaxError(const Tensor& got, const Tensor& want, int64_t k) {
  BA_CHECK(got.SameShape(want));
  const double floor_mag =
      std::sqrt(static_cast<double>(std::max<int64_t>(k, 1)));
  const int64_t cols = got.rank() == 2 ? got.dim(1) : 1;
  ParityError worst;
  for (int64_t e = 0; e < got.numel(); ++e) {
    const double g = got.data()[e], w = want.data()[e];
    const double denom = std::max({std::abs(g), std::abs(w), floor_mag});
    const double rel = std::abs(g - w) / denom;
    if (rel > worst.rel_err) {
      worst.rel_err = rel;
      worst.abs_err = std::abs(g - w);
      worst.i = e / cols;
      worst.j = e % cols;
    }
  }
  return worst;
}

void PrintParityFailure(const char* family, const char* layout, int64_t m,
                        int64_t k, int64_t n, const ParityError& err,
                        double tol) {
  std::cout << "[parity] FAIL " << family << " layout=" << layout << " size="
            << m << "x" << k << "x" << n << " at (i=" << err.i
            << ",j=" << err.j << ") max_abs_diff=" << err.abs_err
            << " rel_err=" << err.rel_err << " tol=" << tol << "\n";
}

/// Times an arbitrary kernel invocation and reports GFLOP/s (or int8
/// GOP/s — same 2·m·k·n operation count). Takes the best of
/// `attempts` measured windows: this host is a shared VM whose
/// effective clock wanders run to run, and the gates compare ratios of
/// measurements taken at different times, so "best sustained rate"
/// is the stable notion of kernel capability.
double TimeGflops(const std::function<void()>& fn, double flops_per_call,
                  double target_ms, int attempts = 3) {
  // Warm up (page faults, ifunc resolution), then calibrate rep count
  // so each measured window is ~target_ms.
  fn();
  ba::Stopwatch watch;
  watch.Start();
  fn();
  watch.Stop();
  const double once = std::max(watch.ElapsedSeconds(), 1e-7);
  const int reps = std::max(1, static_cast<int>(target_ms / 1000.0 / once));
  double best = 0.0;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    watch.Reset();
    watch.Start();
    for (int r = 0; r < reps; ++r) fn();
    watch.Stop();
    best = std::max(best,
                    flops_per_call * reps / watch.ElapsedSeconds() / 1e9);
  }
  return best;
}

/// Documented int8-vs-fp32 tolerance (DESIGN.md §7 "Quantized
/// inference"): each of the k products carries quantization error of
/// at most e1 = (s_a·|w|_max + s_w·|x|_max)/2 + s_a·s_w/4; the errors
/// are independent half-grid roundings, so the max over the m·n output
/// sums concentrates near √k·e1 with a sub-Gaussian tail. The factor 4
/// covers the tail at bench sizes (observed maxima sit near 2·√k·e1);
/// a kernel bug lands orders of magnitude above it.
double Int8Tolerance(int64_t k, float a_scale, float w_scale_max,
                     float x_absmax, float w_absmax) {
  const double e1 = 0.5 * (static_cast<double>(a_scale) * w_absmax +
                           static_cast<double>(w_scale_max) * x_absmax) +
                    0.25 * static_cast<double>(a_scale) * w_scale_max;
  return 4.0 * std::sqrt(static_cast<double>(std::max<int64_t>(k, 1))) * e1 +
         1e-6;
}

}  // namespace

int main(int argc, char** argv) {
  ba::CliFlags flags(argc, argv);
  ba::bench::MaybeEnableTracing(flags);
  ba::bench::MaybeSetSharedPoolThreads(ba::bench::ThreadsFlag(flags));
  const double target_ms = flags.GetDouble("reps-ms", 150.0);
  Rng rng(17);

  // Parity sweep: tile-aligned, ragged, degenerate and empty shapes,
  // plus rectangular / tall-skinny cases that force the row-fringe
  // (m % MR), column-fringe (n % NR) and k-chunk remainder paths for
  // every layout.
  const std::vector<std::vector<int64_t>> parity_shapes = {
      {1, 1, 1},    {1, 7, 1},     {7, 1, 5},     {1, 16, 16},  {4, 16, 16},
      {5, 7, 9},    {17, 33, 65},  {12, 8, 16},   {64, 64, 64}, {3, 128, 2},
      {0, 4, 4},    {4, 0, 4},     {4, 4, 0},     {1, 512, 512},
      {7, 130, 33}, {512, 64, 512}, {33, 300, 17}, {2, 511, 129},
  };
  constexpr double kTol = 1e-4;
  bool parity_ok = true;
  for (const auto& layout : kLayouts) {
    for (const auto& shape : parity_shapes) {
      const int64_t m = shape[0], k = shape[1], n = shape[2];
      const Tensor a = Tensor::RandomUniform(layout.a_shape(m, k), &rng);
      const Tensor b = Tensor::RandomUniform(layout.b_shape(k, n), &rng);
      const ParityError err =
          MaxError(layout.optimized(a, b), layout.reference(a, b), k);
      if (err.rel_err > kTol) {
        parity_ok = false;
        PrintParityFailure("fp32", layout.name, m, k, n, err, kTol);
      }
    }
  }
  std::cout << "[parity] fp32 " << (parity_ok ? "OK" : "FAILED") << " over "
            << parity_shapes.size() << " shapes x " << 3 << " layouts\n";

  // Int8 parity: the quantize→pack→int8-GEMM→dequant pipeline against
  // the fp32 product (documented statistical tolerance), and the
  // dispatched variant against the forced-scalar reference
  // (bit-exact — the integer core is exact in every variant).
  bool int8_parity_ok = true;
  for (const auto& shape : parity_shapes) {
    const int64_t m = shape[0], k = shape[1], n = shape[2];
    const Tensor x = Tensor::RandomUniform({m, k}, &rng);
    const Tensor w = Tensor::RandomUniform({k, n}, &rng);
    const Tensor bias = Tensor::RandomUniform({n}, &rng);
    const ba::tensor::QuantizedWeights qw =
        ba::tensor::QuantizeWeights(w, &bias);
    ba::tensor::ActivationObserver obs;
    obs.Observe(x);
    const float a_scale = obs.scale();

    Tensor want = ba::tensor::MatMulReferenceValue(x, w);
    for (int64_t i = 0; i < m; ++i)
      for (int64_t j = 0; j < n; ++j) want.at(i, j) += bias[j];
    const Tensor got = ba::tensor::Int8LinearValue(x, qw, a_scale);

    float w_scale_max = 0.0f;
    for (float s : qw.scales) w_scale_max = std::max(w_scale_max, s);
    const double tol =
        Int8Tolerance(k, a_scale, w_scale_max, x.AbsMax(), w.AbsMax());
    const ParityError err = MaxError(got, want, k);
    if (err.abs_err > tol) {
      int8_parity_ok = false;
      PrintParityFailure("int8-vs-fp32", "ab", m, k, n, err, tol);
    }

    // Bit parity: dispatched kernel vs forced-scalar reference.
    std::vector<uint8_t> qx;
    ba::tensor::QuantizeActivations(x, a_scale, &qx);
    Tensor scalar_ref({m, n});
    ba::tensor::internal::Int8GemmReference(
        qx.data(), qw.packed.data(), qw.colsums.data(), qw.scales.data(),
        qw.bias.data(), a_scale, scalar_ref.data(), m, qw.packed_k, n);
    if (std::memcmp(got.data(), scalar_ref.data(),
                    static_cast<size_t>(got.numel()) * sizeof(float)) != 0) {
      int8_parity_ok = false;
      const ParityError bit_err = MaxError(got, scalar_ref, k);
      PrintParityFailure("int8-bit-vs-scalar", "ab", m, k, n, bit_err, 0.0);
    }
  }
  std::cout << "[parity] int8 " << (int8_parity_ok ? "OK" : "FAILED")
            << " over " << parity_shapes.size() << " shapes (variant "
            << ba::tensor::internal::Int8GemmVariantName() << ")\n";

  // Throughput sweep.
  struct Row {
    std::string layout;
    int64_t size;
    double ref_gflops;
    double opt_gflops;
    double speedup;
  };
  std::vector<Row> rows;
  const std::vector<int64_t> sizes = {64, 128, 256, 512};
  double speedup_256 = 0.0;
  double fp32_opt_256 = 0.0;
  for (const auto& layout : kLayouts) {
    for (int64_t s : sizes) {
      const Tensor a = Tensor::RandomUniform(layout.a_shape(s, s), &rng);
      const Tensor b = Tensor::RandomUniform(layout.b_shape(s, s), &rng);
      const double flops = 2.0 * static_cast<double>(s) * s * s;
      Row row;
      row.layout = layout.name;
      row.size = s;
      row.ref_gflops = TimeGflops([&] { layout.reference(a, b); }, flops,
                                  target_ms);
      row.opt_gflops = TimeGflops([&] { layout.optimized(a, b); }, flops,
                                  target_ms);
      row.speedup = row.opt_gflops / row.ref_gflops;
      if (layout.optimized == ba::tensor::MatMulValue && s == 256) {
        speedup_256 = row.speedup;
        fp32_opt_256 = row.opt_gflops;
      }
      std::cout << "[gemm] " << row.layout << " " << s << "^3  ref "
                << ba::TablePrinter::Num(row.ref_gflops, 2) << " GFLOP/s  opt "
                << ba::TablePrinter::Num(row.opt_gflops, 2) << " GFLOP/s  ("
                << ba::TablePrinter::Num(row.speedup, 2) << "x)\n";
      rows.push_back(row);
    }
  }

  // Int8 throughput: quantize-activations + packed GEMM per call (the
  // real per-inference cost — weights pack once at deploy).
  struct Int8Row {
    int64_t size;
    double gops;
  };
  std::vector<Int8Row> int8_rows;
  double int8_gops_256 = 0.0;
  for (int64_t s : sizes) {
    const Tensor x = Tensor::RandomUniform({s, s}, &rng);
    const Tensor w = Tensor::RandomUniform({s, s}, &rng);
    const Tensor bias = Tensor::RandomUniform({s}, &rng);
    const ba::tensor::QuantizedWeights qw =
        ba::tensor::QuantizeWeights(w, &bias);
    ba::tensor::ActivationObserver obs;
    obs.Observe(x);
    const float a_scale = obs.scale();
    const double ops = 2.0 * static_cast<double>(s) * s * s;
    const double gops = TimeGflops(
        [&] { ba::tensor::Int8LinearValue(x, qw, a_scale); }, ops, target_ms);
    if (s == 256) int8_gops_256 = gops;
    std::cout << "[gemm] int8 " << s << "^3  " << ba::TablePrinter::Num(gops, 2)
              << " GOP/s\n";
    int8_rows.push_back({s, gops});
  }
  const double int8_speedup_256 =
      fp32_opt_256 > 0.0 ? int8_gops_256 / fp32_opt_256 : 0.0;
  std::cout << "[gemm] int8 256^3 vs fp32 ab opt: "
            << ba::TablePrinter::Num(int8_speedup_256, 2) << "x\n";

  const std::string out_path = flags.GetString("out", "BENCH_gemm.json");
  std::ofstream out(out_path, std::ios::trunc);
  out << "{\"parity_ok\":" << (parity_ok ? "true" : "false")
      << ",\"int8_parity_ok\":" << (int8_parity_ok ? "true" : "false")
      << ",\"speedup_256\":" << speedup_256
      << ",\"int8_speedup_256\":" << int8_speedup_256 << ",\"results\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i) out << ",";
    out << "{\"layout\":\"" << rows[i].layout << "\",\"size\":" << rows[i].size
        << ",\"ref_gflops\":" << rows[i].ref_gflops
        << ",\"opt_gflops\":" << rows[i].opt_gflops
        << ",\"speedup\":" << rows[i].speedup << "}";
  }
  out << "],\"int8_results\":[";
  for (size_t i = 0; i < int8_rows.size(); ++i) {
    if (i) out << ",";
    out << "{\"size\":" << int8_rows[i].size
        << ",\"gops\":" << int8_rows[i].gops << "}";
  }
  out << "],\"meta\":"
      << ba::bench::BenchMetaJson(
             "gemm", static_cast<int>(ba::util::SharedPoolThreads()))
      << "}\n";
  std::cout << "wrote " << out_path << "\n";
  return (parity_ok && int8_parity_ok) ? 0 : 1;
}
