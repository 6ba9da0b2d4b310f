#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

/// \file gemm.h
/// \brief Blocked, auto-vectorization-friendly GEMM kernels behind the
/// `MatMulValue` / `MatMulTransposeAValue` / `MatMulTransposeBValue`
/// entry points in tensor.h, plus the original scalar loops kept as
/// `MatMulReference*` for parity tests and bench baselines, plus the
/// int8 inference kernel family behind `tensor/quant.h`.
///
/// Kernel contract (see DESIGN.md §7):
///  - register tiling: MR×NR = 4×16 accumulator tile, B rows accessed
///    contiguously so the inner loop vectorizes without -ffast-math;
///    a lone last row runs one-row kernels (up to four panels per
///    pass, a ragged panel in four-float windows) with the same
///    per-element chain, so a row's bits do not depend on the tile it
///    lands in;
///  - k-blocking: the shared dimension is walked in kKc-sized chunks
///    so the per-chunk working set (A chunk + C + one B column panel)
///    stays inside L2 at 512³ and above;
///  - A-panel packing: when A arrives column-strided (the transposed-A
///    layout), each k-chunk of the row panel is packed into a
///    contiguous row-major scratch panel before the tile sweep, so the
///    micro-kernels always stream A at unit stride;
///  - one accumulation chain per output element: within a chunk the
///    chain ascends over the shared dimension, and chunks fold into C
///    in ascending chunk order — blocking, packing and the row-panel
///    thread split never reorder a chain, so results are bit-identical
///    at any thread count (they may differ from the reference loops by
///    FMA-contraction rounding, which parity tests bound by tolerance);
///  - large shapes split into row panels over `util::SharedPool()`
///    unless the caller is already a pool worker (nested parallelism
///    degrades to serial rather than deadlocking).
///
/// Int8 contract (see DESIGN.md §7 "Quantized inference"):
///  - A is u8 row-major m×kp with zero-point 128, B is s8 packed one
///    output channel per row (n×kp), kp = k rounded up to kInt8KAlign
///    with zero-padded B so padding cancels exactly;
///  - the integer core is exact: every variant (scalar / AVX2 /
///    AVX-512 VNNI) produces bit-identical int32 dot products, so ISA
///    dispatch is unobservable;
///  - the epilogue fuses zero-point compensation, per-channel dequant
///    and bias: c[i][j] = a_scale·scale[j]·(acc − 128·colsum[j]) +
///    bias[j].

namespace ba::tensor {

/// Pre-PR naive kernels, retained as the semantic reference.
Tensor MatMulReferenceValue(const Tensor& a, const Tensor& b);
Tensor MatMulReferenceTransposeAValue(const Tensor& a, const Tensor& b);
Tensor MatMulReferenceTransposeBValue(const Tensor& a, const Tensor& b);

namespace internal {

/// C(m,n) += A·B with A read through strides (`a[i*as_i + p*as_p]`,
/// covering both normal and transposed-A layouts) and B (k,n)
/// row-major. Rows [i_begin, i_end) of C are produced; C is assumed
/// zero-initialized in that range. Exposed for the bench harness and
/// kernel-level tests; model code goes through MatMul*Value.
void GemmRowRange(const float* a, int64_t as_i, int64_t as_p, const float* b,
                  float* c, int64_t i_begin, int64_t i_end, int64_t k,
                  int64_t n);

/// Full dispatch: serial for small shapes, row-panel split over
/// `util::SharedPool()` above kParallelFlops (with a `tensor.gemm`
/// span when tracing).
void GemmDispatch(const float* a, int64_t as_i, int64_t as_p, const float* b,
                  float* c, int64_t m, int64_t k, int64_t n);

/// m·k·n above which GemmDispatch fans row panels across the shared
/// pool (when not already inside a pool worker).
inline constexpr int64_t kParallelFlops = int64_t{1} << 21;

/// k-chunk length for the fp32 kernels. 256 keeps the per-chunk
/// working set (m×kKc A chunk + C + a kNr-wide B panel) inside a 2 MB
/// L2 up to m = n = 1024.
inline constexpr int64_t kKc = 256;

/// Int8 operands are padded to this many k-entries (one AVX-512
/// register of bytes); B padding is zero so padded lanes cancel.
inline constexpr int64_t kInt8KAlign = 64;

/// k rounded up to the packed int8 stride.
inline constexpr int64_t Int8PackedK(int64_t k) {
  return (k + kInt8KAlign - 1) / kInt8KAlign * kInt8KAlign;
}

/// Re-lays the canonical channel-major weight codes (channel j's kp
/// codes contiguous at `canonical + j*kp`) into whatever layout the
/// dispatched int8 kernel prefers. Returns an empty vector when the
/// dispatched kernel consumes the canonical layout directly (scalar /
/// AVX2); the AVX-512 VNNI kernel gets 16-column panels with groups of
/// 4 k-bytes interleaved per column so one register load feeds a
/// vpdpbusd that accumulates 16 output columns vertically. Called once
/// per layer by QuantizeWeights; kernels and this packer are resolved
/// by the same dispatcher, so the pair always matches.
std::vector<int8_t> Int8KernelPackedB(const int8_t* canonical, int64_t n,
                                      int64_t kp);

/// Quantizes one activation row to the u8 zero-point-128 grid:
/// out[p] = clamp(round(row[p] · inv_scale), −127, 127) + 128 with
/// half-away-from-zero rounding. Every dispatch variant (scalar /
/// AVX-512) is bit-identical; the wide variant exists because the
/// scalar clamp/round chain refuses to autovectorize and would
/// otherwise dominate small int8 GEMMs.
void Int8QuantizeRow(const float* row, uint8_t* out, int64_t k,
                     float inv_scale);

/// Int8 row-panel kernel. `a` is u8 m×kp row-major (zero-point 128),
/// `b` is the weight-code buffer in the dispatched kernel's layout
/// (`Int8KernelPackedB` result, or the canonical channel-major buffer
/// when that returned empty), `colsum[j]` = Σ_p q[p][j] over the real
/// k (padding is zero), `scale[j]` the per-channel weight scale,
/// `a_scale` the per-tensor activation scale, `bias` fp32 per channel
/// (may be nullptr for none). Writes rows [i_begin, i_end) of fp32
/// C(m,n):
///   c[i][j] = a_scale·scale[j]·(Σ_p a[i][p]·q[p][j] − 128·colsum[j])
///             + bias[j]
/// The int32 accumulation is exact (no wrap) for kp ≤ 2³¹/(255·127),
/// which Int8GemmDispatch enforces.
void Int8GemmRowRange(const uint8_t* a, const int8_t* b,
                      const int32_t* colsum, const float* scale,
                      const float* bias, float a_scale, float* c,
                      int64_t i_begin, int64_t i_end, int64_t kp, int64_t n);

/// Full int8 dispatch: serial for small shapes, row-panel split over
/// the shared pool above kParallelFlops (span `tensor.gemm.int8`).
void Int8GemmDispatch(const uint8_t* a, const int8_t* b, const int32_t* colsum,
                      const float* scale, const float* bias, float a_scale,
                      float* c, int64_t m, int64_t kp, int64_t n);

/// Forced-scalar int8 kernel over the full row range: the semantic
/// (and bit-exact — the integer core is exact in every variant)
/// reference that parity tests and bench gates compare the dispatched
/// kernel against. Takes `b` in the canonical channel-major layout
/// regardless of what the dispatcher prefers.
void Int8GemmReference(const uint8_t* a, const int8_t* b,
                       const int32_t* colsum, const float* scale,
                       const float* bias, float a_scale, float* c, int64_t m,
                       int64_t kp, int64_t n);

/// Name of the fp32 target_clones variant the loader is expected to
/// resolve on this CPU ("x86-64-v4", "x86-64-v3" or "default";
/// suffixed "(sanitizer)" when clones are compiled out).
const char* GemmVariantName();

/// Name of the int8 kernel variant the runtime dispatcher selected
/// ("avx512-vnni", "avx2" or "scalar").
const char* Int8GemmVariantName();

}  // namespace internal

}  // namespace ba::tensor
