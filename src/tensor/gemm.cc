#include "tensor/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "obs/trace.h"
#include "util/thread_pool.h"

namespace ba::tensor {

// ---------------------------------------------------------------------------
// Reference kernels: the original scalar triple loops, unchanged. These
// define the semantics the blocked kernels are tested against and give
// benches a stable pre-optimization baseline.
// ---------------------------------------------------------------------------

Tensor MatMulReferenceValue(const Tensor& a, const Tensor& b) {
  BA_CHECK_EQ(a.rank(), 2);
  BA_CHECK_EQ(b.rank(), 2);
  BA_CHECK_EQ(a.dim(1), b.dim(0));
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  const float* ad = a.data();
  const float* bd = b.data();
  float* cd = c.data();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      const float av = ad[i * k + p];
      if (av == 0.0f) continue;
      const float* brow = bd + p * n;
      float* crow = cd + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor MatMulReferenceTransposeAValue(const Tensor& a, const Tensor& b) {
  BA_CHECK_EQ(a.rank(), 2);
  BA_CHECK_EQ(b.rank(), 2);
  BA_CHECK_EQ(a.dim(0), b.dim(0));
  const int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  const float* ad = a.data();
  const float* bd = b.data();
  float* cd = c.data();
  for (int64_t p = 0; p < k; ++p) {
    const float* arow = ad + p * m;
    const float* brow = bd + p * n;
    for (int64_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = cd + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor MatMulReferenceTransposeBValue(const Tensor& a, const Tensor& b) {
  BA_CHECK_EQ(a.rank(), 2);
  BA_CHECK_EQ(b.rank(), 2);
  BA_CHECK_EQ(a.dim(1), b.dim(1));
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor c({m, n});
  const float* ad = a.data();
  const float* bd = b.data();
  float* cd = c.data();
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = ad + i * k;
    float* crow = cd + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = bd + j * k;
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = acc;
    }
  }
  return c;
}

// ---------------------------------------------------------------------------
// Blocked fp32 kernels.
// ---------------------------------------------------------------------------

namespace internal {

namespace {

/// Register tile: MR output rows × NR output columns held in
/// accumulators across the whole k loop. NR=16 floats is one AVX-512
/// or two AVX2 vectors; MR=4 keeps MR×NR within the 32-register
/// budget of the wide clones.
constexpr int64_t kMr = 4;
constexpr int64_t kNr = 16;

/// Runtime ISA dispatch: one portable binary, resolved once at load to
/// the widest clone the CPU supports (x86-64-v3 = AVX2+FMA,
/// x86-64-v4 = AVX-512). The clones contract mul+add into FMA, which
/// is why optimized-vs-reference parity is tolerance- not bit-based.
/// Disabled under sanitizers: the IFUNC resolvers target_clones emits
/// run before the sanitizer runtime initializes and segfault at load.
#if defined(__x86_64__) && defined(__GNUC__) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define BA_GEMM_CLONES \
  __attribute__((target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#define BA_GEMM_HAVE_CLONES 1
#else
#define BA_GEMM_CLONES
#define BA_GEMM_HAVE_CLONES 0
#endif

/// Full MR×NR tile over one k-chunk: `a` pre-offset to the tile's
/// first row, `b` pre-offset to (chunk row 0, column j) with rows n
/// apart, `c` pre-offset to (i, j). The chunk's contribution to each
/// output element accumulates over ascending p in a single register
/// chain; `accumulate` folds that chain into C for chunks after the
/// first — the chunk fold order is the serial chunk order, so
/// k-blocking never reorders an element's overall chain.
///
/// The A-loads are hoisted out of the jn loop and each output row gets
/// its own accumulator array: with a single acc[MR][NR] array GCC
/// fully unrolls the constant-bound jn loop first, leaving the strided
/// A-load innermost and giving up on vectorization ("complicated
/// access pattern"). In this form the innermost loop is a clean
/// broadcast-FMA over contiguous brow, and the clones vectorize it.
BA_GEMM_CLONES
void MicroKernelFull(const float* __restrict a, int64_t as_i, int64_t as_p,
                     const float* __restrict b, float* __restrict c,
                     int64_t k, int64_t n, bool accumulate) {
  float acc0[kNr] = {}, acc1[kNr] = {}, acc2[kNr] = {}, acc3[kNr] = {};
  for (int64_t p = 0; p < k; ++p) {
    const float* __restrict brow = b + p * n;
    const float a0 = a[0 * as_i + p * as_p];
    const float a1 = a[1 * as_i + p * as_p];
    const float a2 = a[2 * as_i + p * as_p];
    const float a3 = a[3 * as_i + p * as_p];
    for (int64_t jn = 0; jn < kNr; ++jn) {
      const float bv = brow[jn];
      acc0[jn] += a0 * bv;
      acc1[jn] += a1 * bv;
      acc2[jn] += a2 * bv;
      acc3[jn] += a3 * bv;
    }
  }
  if (accumulate) {
    for (int64_t jn = 0; jn < kNr; ++jn) c[0 * n + jn] += acc0[jn];
    for (int64_t jn = 0; jn < kNr; ++jn) c[1 * n + jn] += acc1[jn];
    for (int64_t jn = 0; jn < kNr; ++jn) c[2 * n + jn] += acc2[jn];
    for (int64_t jn = 0; jn < kNr; ++jn) c[3 * n + jn] += acc3[jn];
  } else {
    for (int64_t jn = 0; jn < kNr; ++jn) c[0 * n + jn] = acc0[jn];
    for (int64_t jn = 0; jn < kNr; ++jn) c[1 * n + jn] = acc1[jn];
    for (int64_t jn = 0; jn < kNr; ++jn) c[2 * n + jn] = acc2[jn];
    for (int64_t jn = 0; jn < kNr; ++jn) c[3 * n + jn] = acc3[jn];
  }
}

/// Ragged edge tile (mr ≤ MR, nr ≤ NR): same shape as the full tile —
/// absent rows contribute a broadcast of 0 — with a runtime jn bound.
/// Same per-element accumulation order; only tiles of 2-4 rows on the
/// bottom/right fringe land here (one-row tiles take the row kernels
/// below).
BA_GEMM_CLONES
void MicroKernelEdge(const float* __restrict a, int64_t as_i, int64_t as_p,
                     const float* __restrict b, float* __restrict c,
                     int64_t k, int64_t n, int64_t mr, int64_t nr,
                     bool accumulate) {
  float acc0[kNr] = {}, acc1[kNr] = {}, acc2[kNr] = {}, acc3[kNr] = {};
  for (int64_t p = 0; p < k; ++p) {
    const float* __restrict brow = b + p * n;
    const float a0 = a[0 * as_i + p * as_p];
    const float a1 = mr > 1 ? a[1 * as_i + p * as_p] : 0.0f;
    const float a2 = mr > 2 ? a[2 * as_i + p * as_p] : 0.0f;
    const float a3 = mr > 3 ? a[3 * as_i + p * as_p] : 0.0f;
    for (int64_t jn = 0; jn < nr; ++jn) {
      const float bv = brow[jn];
      acc0[jn] += a0 * bv;
      acc1[jn] += a1 * bv;
      acc2[jn] += a2 * bv;
      acc3[jn] += a3 * bv;
    }
  }
  const float* const accs[kMr] = {acc0, acc1, acc2, acc3};
  for (int64_t im = 0; im < mr; ++im) {
    float* __restrict crow = c + im * n;
    if (accumulate) {
      for (int64_t jn = 0; jn < nr; ++jn) crow[jn] += accs[im][jn];
    } else {
      for (int64_t jn = 0; jn < nr; ++jn) crow[jn] = accs[im][jn];
    }
  }
}

/// One row's column panels per pass of the one-row kernel: four
/// independent accumulator chains hide the FMA latency that a single
/// chain per pass is bound by.
constexpr int64_t kRowPanels = 4;

/// NR floats as one GCC vector: one AVX-512 register, two AVX2 or four
/// SSE registers, depending on the clone. Operands are not 64-byte
/// aligned, so loads and stores go through memcpy (an unaligned move).
typedef float PanelVec __attribute__((vector_size(kNr * sizeof(float))));

inline PanelVec& LoadPanel(PanelVec& v, const float* p) {
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Stores `acc` to `c`, or folds it into what `c` holds.
inline void StorePanel(float* c, PanelVec& acc, bool accumulate) {
  if (accumulate) {
    PanelVec old;
    acc += LoadPanel(old, c);
  }
  std::memcpy(c, &acc, sizeof(acc));
}

/// One-row tile over `panels` (1..kRowPanels) full NR-wide panels in
/// one pass over the k-chunk; `a` is the row's chunk at unit stride.
/// Each output element keeps MicroKernelEdge's row-0 expression — one
/// accumulator over ascending p, folded into C in chunk order — so the
/// result is bit-identical to the row inside a 4-row tile, which spent
/// three quarters of its multiplies on zero rows and ran one panel per
/// pass. Single-row products are the inference forward's common shape:
/// the four LSTM gates each step and the MLP heads. The guards on
/// `panels` are loop-invariant and never read past the last panel.
BA_GEMM_CLONES
void MicroKernelRowFull(const float* __restrict a, const float* __restrict b,
                        float* __restrict c, int64_t k, int64_t n,
                        int64_t panels, bool accumulate) {
  PanelVec acc0 = {}, acc1 = {}, acc2 = {}, acc3 = {}, bv;
  for (int64_t p = 0; p < k; ++p) {
    const float* __restrict brow = b + p * n;
    const float a0 = a[p];
    acc0 += a0 * LoadPanel(bv, brow);
    if (panels > 1) acc1 += a0 * LoadPanel(bv, brow + kNr);
    if (panels > 2) acc2 += a0 * LoadPanel(bv, brow + 2 * kNr);
    if (panels > 3) acc3 += a0 * LoadPanel(bv, brow + 3 * kNr);
  }
  StorePanel(c, acc0, accumulate);
  if (panels > 1) StorePanel(c + kNr, acc1, accumulate);
  if (panels > 2) StorePanel(c + 2 * kNr, acc2, accumulate);
  if (panels > 3) StorePanel(c + 3 * kNr, acc3, accumulate);
}

/// Four floats as one GCC vector (one SSE register in every clone): the
/// window the ragged one-row kernel loads and accumulates.
typedef float QuadVec __attribute__((vector_size(4 * sizeof(float))));

inline QuadVec& LoadQuad(QuadVec& v, const float* p) {
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// One-row tile on a ragged panel (nr < NR) of a row at least 4 wide:
/// the panel is covered by ceil(nr/4) four-float windows, each
/// accumulated in one vector with MicroKernelRowFull's per-element
/// expression. The windows start at the panel's columns 0, 4 and 8,
/// and the last one ends at the row's end, so every load stays inside
/// the row: when nr is not a multiple of 4 the last window overlaps
/// the window (or full panel) before it. An overlapped lane computes
/// the same chain as the column it shadows and is never stored, so
/// each stored element is still one ascending-p chain, folded into C
/// in chunk order. The guards on `windows` are loop-invariant.
BA_GEMM_CLONES
void MicroKernelRowEdge(const float* __restrict a, const float* __restrict b,
                        float* __restrict c, int64_t k, int64_t n, int64_t nr,
                        bool accumulate) {
  const int64_t windows = (nr + 3) / 4;
  const int64_t last = nr - 4;  // last window's offset; -3..11
  QuadVec acc0 = {}, acc1 = {}, acc2 = {}, acc3 = {}, bv;
  for (int64_t p = 0; p < k; ++p) {
    const float* __restrict brow = b + p * n;
    const float a0 = a[p];
    acc0 += a0 * LoadQuad(bv, brow + last);
    if (windows > 1) acc1 += a0 * LoadQuad(bv, brow);
    if (windows > 2) acc2 += a0 * LoadQuad(bv, brow + 4);
    if (windows > 3) acc3 += a0 * LoadQuad(bv, brow + 8);
  }
  const QuadVec* const accs[3] = {&acc1, &acc2, &acc3};
  for (int64_t w = 0; w + 1 < windows; ++w) {
    QuadVec v = *accs[w];
    if (accumulate) {
      QuadVec old;
      v += LoadQuad(old, c + 4 * w);
    }
    std::memcpy(c + 4 * w, &v, sizeof(v));
  }
  // The last window's lanes from the first column no earlier window
  // covered.
  float lanes[4];
  std::memcpy(lanes, &acc0, sizeof(lanes));
  for (int64_t l = 4 * (windows - 1) - last; l < 4; ++l) {
    c[last + l] = accumulate ? c[last + l] + lanes[l] : lanes[l];
  }
}

/// One-row tile of a row narrower than one window (n < 4): a scalar
/// chain per element, the same expression.
BA_GEMM_CLONES
void MicroKernelRowNarrow(const float* a, const float* b, float* c, int64_t k,
                          int64_t n, bool accumulate) {
  float acc[3] = {};
  for (int64_t p = 0; p < k; ++p) {
    for (int64_t jn = 0; jn < n; ++jn) acc[jn] += a[p] * b[p * n + jn];
  }
  for (int64_t jn = 0; jn < n; ++jn) {
    c[jn] = accumulate ? c[jn] + acc[jn] : acc[jn];
  }
}

/// One row across all n columns for one k-chunk: full panels
/// kRowPanels at a time, then the ragged rest; a row under one window
/// wide runs the scalar kernel.
void RowSweep(const float* a, const float* b, float* c, int64_t k, int64_t n,
              bool accumulate) {
  if (n < 4) {
    MicroKernelRowNarrow(a, b, c, k, n, accumulate);
    return;
  }
  const int64_t full = n / kNr * kNr;
  for (int64_t j = 0; j < full; j += kRowPanels * kNr) {
    MicroKernelRowFull(a, b + j, c + j, k, n,
                       std::min(kRowPanels, (full - j) / kNr), accumulate);
  }
  if (full < n) {
    MicroKernelRowEdge(a, b + full, c + full, k, n, n - full, accumulate);
  }
}

/// Square sub-block edge used when packing a strided A chunk: small
/// enough that the strided reads and the unit-stride writes both stay
/// within L1 lines.
constexpr int64_t kPackBlk = 32;

}  // namespace

void GemmRowRange(const float* a, int64_t as_i, int64_t as_p, const float* b,
                  float* c, int64_t i_begin, int64_t i_end, int64_t k,
                  int64_t n) {
  // Scratch for the packed A panel of the transposed-A layout. One
  // panel per worker thread; sized rows×kKc and reused across calls.
  thread_local std::vector<float> packed;
  const bool pack_a = as_p != 1;
  const int64_t rows = i_end - i_begin;
  // k-chunks outer: each chunk touches an A slab of rows×kc floats
  // plus one B column panel at a time, so the resident set stays in L2
  // for 512³+ products instead of thrashing a full k-deep A.
  for (int64_t p0 = 0; p0 < k; p0 += kKc) {
    const int64_t kc = std::min(kKc, k - p0);
    const bool accumulate = p0 > 0;
    const float* achunk;
    int64_t cas_i, cas_p;
    if (pack_a) {
      // Pack A[i_begin:i_end, p0:p0+kc] into a contiguous row-major
      // micro-panel in kPackBlk² sub-blocks (the source reads are
      // i-contiguous for the transposed layout, the destination writes
      // p-contiguous; blocking keeps both footprints in L1).
      packed.resize(static_cast<size_t>(rows) * kc);
      float* dst = packed.data();
      for (int64_t pb = 0; pb < kc; pb += kPackBlk) {
        const int64_t pe = std::min(pb + kPackBlk, kc);
        for (int64_t ib = 0; ib < rows; ib += kPackBlk) {
          const int64_t ie = std::min(ib + kPackBlk, rows);
          for (int64_t p = pb; p < pe; ++p) {
            const float* src = a + (p0 + p) * as_p + i_begin * as_i;
            for (int64_t i = ib; i < ie; ++i)
              dst[i * kc + p] = src[i * as_i];
          }
        }
      }
      achunk = dst;
      cas_i = kc;
      cas_p = 1;
    } else {
      achunk = a + i_begin * as_i + p0;
      cas_i = as_i;
      cas_p = 1;
    }
    const float* bchunk = b + p0 * n;
    // A last tile of one row runs alone after the sweep, on the one-row
    // kernels.
    const int64_t tiled_end = rows % kMr == 1 ? i_end - 1 : i_end;
    // Column panels outer: the NR-wide slice of B streams through
    // cache once per row sweep instead of once per row.
    for (int64_t j = 0; j < n; j += kNr) {
      const int64_t nr = std::min(kNr, n - j);
      for (int64_t i = i_begin; i < tiled_end; i += kMr) {
        const int64_t mr = std::min(kMr, tiled_end - i);
        const float* atile = achunk + (i - i_begin) * cas_i;
        if (mr == kMr && nr == kNr) {
          MicroKernelFull(atile, cas_i, cas_p, bchunk + j, c + i * n + j, kc,
                          n, accumulate);
        } else {
          MicroKernelEdge(atile, cas_i, cas_p, bchunk + j, c + i * n + j, kc,
                          n, mr, nr, accumulate);
        }
      }
    }
    if (tiled_end < i_end) {
      RowSweep(achunk + (tiled_end - i_begin) * cas_i, bchunk,
               c + tiled_end * n, kc, n, accumulate);
    }
  }
}

void GemmDispatch(const float* a, int64_t as_i, int64_t as_p, const float* b,
                  float* c, int64_t m, int64_t k, int64_t n) {
  if (m == 0 || n == 0 || k == 0) return;  // C stays zero
  const int64_t flops = m * k * n;
  if (flops >= kParallelFlops && m > kMr && !ThreadPool::InWorkerThread()) {
    ThreadPool& pool = util::SharedPool();
    if (pool.num_threads() > 1) {
      // Row panels in tile multiples; each worker writes a disjoint
      // slab of C and every accumulation chain is identical to the
      // serial sweep, so the split is bit-exact at any thread count.
      const int64_t panel_rows =
          ((m + static_cast<int64_t>(pool.num_threads()) - 1) /
               static_cast<int64_t>(pool.num_threads()) +
           kMr - 1) /
          kMr * kMr;
      const size_t panels =
          static_cast<size_t>((m + panel_rows - 1) / panel_rows);
      obs::ScopedSpan gemm_span("tensor.gemm");
      gemm_span.AddArg("m", static_cast<double>(m));
      gemm_span.AddArg("k", static_cast<double>(k));
      gemm_span.AddArg("n", static_cast<double>(n));
      gemm_span.AddArg("panels", static_cast<double>(panels));
      pool.ParallelFor(panels, [&](size_t pi) {
        const int64_t i_begin = static_cast<int64_t>(pi) * panel_rows;
        const int64_t i_end = std::min(m, i_begin + panel_rows);
        GemmRowRange(a, as_i, as_p, b, c, i_begin, i_end, k, n);
      });
      return;
    }
  }
  GemmRowRange(a, as_i, as_p, b, c, 0, m, k, n);
}

const char* GemmVariantName() {
#if !BA_GEMM_HAVE_CLONES
  return "default (sanitizer)";
#else
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512cd") && __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl")) {
    return "x86-64-v4";
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
      __builtin_cpu_supports("bmi2")) {
    return "x86-64-v3";
  }
  return "default";
#endif
}

// ---------------------------------------------------------------------------
// Int8 kernels. All variants compute the identical exact int32 dot
// products (u8 in [1,255] × s8 in [-127,127] over kp ≤ 2³¹/(255·127)
// cannot wrap, and the AVX2 16-bit widening path keeps every partial
// in range), so which one the dispatcher picks is unobservable.
// ---------------------------------------------------------------------------

namespace {

/// Fused epilogue shared by every variant: zero-point compensation,
/// per-channel dequant, bias, in the exact algebra and rounding the
/// VNNI vector epilogue uses — float(acc)·mult fma'd onto
/// (bias − 128·colsum·mult). std::fmaf is correctly rounded (single
/// rounding), so scalar and vector variants stay bit-identical.
inline float Int8Dequant(int32_t acc, int32_t colsum, float scale,
                         const float* bias, int64_t j, float a_scale) {
  const float mult = a_scale * scale;
  // −128·colsum is exact in float (|colsum| ≤ 127·kp keeps it under
  // 2²⁴); both fmas are explicit so -ffp-contract can't change the
  // rounding between ISA variants.
  const float add = std::fmaf(-128.0f * static_cast<float>(colsum), mult,
                              bias != nullptr ? bias[j] : 0.0f);
  return std::fmaf(static_cast<float>(acc), mult, add);
}

void Int8KernelScalar(const uint8_t* a, const int8_t* b, const int32_t* colsum,
                      const float* scale, const float* bias, float a_scale,
                      float* c, int64_t i_begin, int64_t i_end, int64_t kp,
                      int64_t n) {
  for (int64_t i = i_begin; i < i_end; ++i) {
    const uint8_t* arow = a + i * kp;
    float* crow = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const int8_t* bcol = b + j * kp;
      int32_t acc = 0;
      for (int64_t p = 0; p < kp; ++p)
        acc += static_cast<int32_t>(arow[p]) * static_cast<int32_t>(bcol[p]);
      crow[j] = Int8Dequant(acc, colsum[j], scale[j], bias, j, a_scale);
    }
  }
}

#if defined(__x86_64__) && defined(__GNUC__)

// GCC's _mm512_reduce_add_epi32 expands through
// _mm256_undefined_si256(), which -Wmaybe-uninitialized flags inside
// the intrinsic header; the lanes are fully written before any read.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/// Exact AVX2 path: widen u8/s8 halves to i16 and pair-sum with
/// vpmaddwd. Each product ≤ 255·127 fits i16-range inputs' i32
/// product, and each vpmaddwd pair sum ≤ 2·255·127 fits i32, so no
/// saturation anywhere.
__attribute__((target("avx2")))
void Int8KernelAvx2(const uint8_t* a, const int8_t* b, const int32_t* colsum,
                    const float* scale, const float* bias, float a_scale,
                    float* c, int64_t i_begin, int64_t i_end, int64_t kp,
                    int64_t n) {
  for (int64_t i = i_begin; i < i_end; ++i) {
    const uint8_t* arow = a + i * kp;
    float* crow = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const int8_t* bcol = b + j * kp;
      __m256i acc = _mm256_setzero_si256();
      for (int64_t p = 0; p < kp; p += 32) {
        const __m256i av =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(arow + p));
        const __m256i bv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bcol + p));
        const __m256i a_lo =
            _mm256_cvtepu8_epi16(_mm256_castsi256_si128(av));
        const __m256i a_hi =
            _mm256_cvtepu8_epi16(_mm256_extracti128_si256(av, 1));
        const __m256i b_lo =
            _mm256_cvtepi8_epi16(_mm256_castsi256_si128(bv));
        const __m256i b_hi =
            _mm256_cvtepi8_epi16(_mm256_extracti128_si256(bv, 1));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a_lo, b_lo));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a_hi, b_hi));
      }
      const __m128i lo = _mm256_castsi256_si128(acc);
      const __m128i hi = _mm256_extracti128_si256(acc, 1);
      __m128i sum = _mm_add_epi32(lo, hi);
      sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, _MM_SHUFFLE(1, 0, 3, 2)));
      sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, _MM_SHUFFLE(2, 3, 0, 1)));
      crow[j] = Int8Dequant(_mm_cvtsi128_si32(sum), colsum[j], scale[j], bias,
                            j, a_scale);
    }
  }
}

/// Columns per interleaved VNNI panel: one zmm of i32 lanes.
constexpr int64_t kVnniPanel = 16;

/// AVX-512 VNNI path over the interleaved layout Int8KernelPackedB
/// builds: panel jb holds, for each group of 4 k-bytes, the 16
/// columns' 4 codes side by side, so a single register load pairs with
/// a 4-byte broadcast of an A row in vpdpbusd (64 u8×s8 MACs per
/// instruction) and each accumulator lane is one output column — the
/// dequant epilogue is a vector cvt+fma+masked-store with no
/// horizontal reductions anywhere.
__attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni")))
void Int8KernelVnni(const uint8_t* a, const int8_t* b, const int32_t* colsum,
                    const float* scale, const float* bias, float a_scale,
                    float* c, int64_t i_begin, int64_t i_end, int64_t kp,
                    int64_t n) {
  constexpr int64_t kTileM = 4;
  for (int64_t j = 0; j < n; j += kVnniPanel) {
    const int64_t jw = std::min(kVnniPanel, n - j);
    const __mmask16 mask = static_cast<__mmask16>((1u << jw) - 1);
    const int8_t* bpanel = b + (j / kVnniPanel) * kVnniPanel * kp;
    // Per-panel dequant vectors: y = acc·mult + add with
    // mult_j = s_a·scale_j and add_j = bias_j − 128·colsum_j·mult_j.
    alignas(64) float mult[kVnniPanel] = {};
    alignas(64) float addv[kVnniPanel] = {};
    for (int64_t jj = 0; jj < jw; ++jj) {
      mult[jj] = a_scale * scale[j + jj];
      // Same explicit-fma algebra as Int8Dequant — keeps every ISA
      // variant bit-identical under -ffp-contract=fast.
      addv[jj] =
          std::fmaf(-128.0f * static_cast<float>(colsum[j + jj]), mult[jj],
                    bias != nullptr ? bias[j + jj] : 0.0f);
    }
    const __m512 multv = _mm512_load_ps(mult);
    const __m512 addvv = _mm512_load_ps(addv);
    int64_t i = i_begin;
    for (; i + kTileM <= i_end; i += kTileM) {
      __m512i acc0 = _mm512_setzero_si512(), acc1 = _mm512_setzero_si512();
      __m512i acc2 = _mm512_setzero_si512(), acc3 = _mm512_setzero_si512();
      const uint8_t* a0 = a + (i + 0) * kp;
      const uint8_t* a1 = a + (i + 1) * kp;
      const uint8_t* a2 = a + (i + 2) * kp;
      const uint8_t* a3 = a + (i + 3) * kp;
      for (int64_t p = 0; p < kp; p += 4) {
        const __m512i bv =
            _mm512_loadu_si512(bpanel + p * kVnniPanel);
        acc0 = _mm512_dpbusd_epi32(
            acc0, _mm512_set1_epi32(*reinterpret_cast<const int32_t*>(a0 + p)),
            bv);
        acc1 = _mm512_dpbusd_epi32(
            acc1, _mm512_set1_epi32(*reinterpret_cast<const int32_t*>(a1 + p)),
            bv);
        acc2 = _mm512_dpbusd_epi32(
            acc2, _mm512_set1_epi32(*reinterpret_cast<const int32_t*>(a2 + p)),
            bv);
        acc3 = _mm512_dpbusd_epi32(
            acc3, _mm512_set1_epi32(*reinterpret_cast<const int32_t*>(a3 + p)),
            bv);
      }
      _mm512_mask_storeu_ps(
          c + (i + 0) * n + j, mask,
          _mm512_fmadd_ps(_mm512_cvtepi32_ps(acc0), multv, addvv));
      _mm512_mask_storeu_ps(
          c + (i + 1) * n + j, mask,
          _mm512_fmadd_ps(_mm512_cvtepi32_ps(acc1), multv, addvv));
      _mm512_mask_storeu_ps(
          c + (i + 2) * n + j, mask,
          _mm512_fmadd_ps(_mm512_cvtepi32_ps(acc2), multv, addvv));
      _mm512_mask_storeu_ps(
          c + (i + 3) * n + j, mask,
          _mm512_fmadd_ps(_mm512_cvtepi32_ps(acc3), multv, addvv));
    }
    for (; i < i_end; ++i) {
      __m512i acc = _mm512_setzero_si512();
      const uint8_t* ar = a + i * kp;
      for (int64_t p = 0; p < kp; p += 4) {
        acc = _mm512_dpbusd_epi32(
            acc, _mm512_set1_epi32(*reinterpret_cast<const int32_t*>(ar + p)),
            _mm512_loadu_si512(bpanel + p * kVnniPanel));
      }
      _mm512_mask_storeu_ps(
          c + i * n + j, mask,
          _mm512_fmadd_ps(_mm512_cvtepi32_ps(acc), multv, addvv));
    }
  }
}

/// Widens one activation row to the u8 zero-point-128 grid, 16 floats
/// per iteration. The clamp/±0.5/truncate sequence mirrors the scalar
/// path exactly (half-away-from-zero), so both variants produce
/// identical codes.
__attribute__((target("avx512f,avx512bw,avx512vl")))
void Int8QuantizeRowAvx512(const float* row, uint8_t* out, int64_t k,
                           float inv_scale) {
  const __m512 vinv = _mm512_set1_ps(inv_scale);
  const __m512 vlo = _mm512_set1_ps(-127.0f);
  const __m512 vhi = _mm512_set1_ps(127.0f);
  const __m512i sign_bit = _mm512_set1_epi32(INT32_MIN);
  const __m512i half_bits = _mm512_castps_si512(_mm512_set1_ps(0.5f));
  const __m512i v128 = _mm512_set1_epi32(128);
  int64_t p = 0;
  for (; p + 16 <= k; p += 16) {
    __m512 v = _mm512_mul_ps(_mm512_loadu_ps(row + p), vinv);
    v = _mm512_min_ps(vhi, _mm512_max_ps(vlo, v));
    const __m512i sign = _mm512_and_si512(_mm512_castps_si512(v), sign_bit);
    const __m512 half = _mm512_castsi512_ps(_mm512_or_si512(half_bits, sign));
    const __m512i q = _mm512_add_epi32(
        _mm512_cvttps_epi32(_mm512_add_ps(v, half)), v128);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + p),
                     _mm512_cvtepi32_epi8(q));
  }
  if (p < k) {
    const __mmask16 mask = static_cast<__mmask16>((1u << (k - p)) - 1);
    __m512 v = _mm512_mul_ps(_mm512_maskz_loadu_ps(mask, row + p), vinv);
    v = _mm512_min_ps(vhi, _mm512_max_ps(vlo, v));
    const __m512i sign = _mm512_and_si512(_mm512_castps_si512(v), sign_bit);
    const __m512 half = _mm512_castsi512_ps(_mm512_or_si512(half_bits, sign));
    const __m512i q = _mm512_add_epi32(
        _mm512_cvttps_epi32(_mm512_add_ps(v, half)), v128);
    _mm512_mask_cvtepi32_storeu_epi8(out + p, mask, q);
  }
}

#pragma GCC diagnostic pop

#endif  // defined(__x86_64__) && defined(__GNUC__)

/// Scalar activation-row quantizer; the semantic definition every wide
/// variant matches bit for bit.
void Int8QuantizeRowScalar(const float* row, uint8_t* out, int64_t k,
                           float inv_scale) {
  for (int64_t p = 0; p < k; ++p) {
    float v = row[p] * inv_scale;
    v = v < -127.0f ? -127.0f : (v > 127.0f ? 127.0f : v);
    const float r = v >= 0.0f ? v + 0.5f : v - 0.5f;
    out[p] = static_cast<uint8_t>(static_cast<int32_t>(r) + 128);
  }
}

using Int8Kernel = void (*)(const uint8_t*, const int8_t*, const int32_t*,
                            const float*, const float*, float, float*, int64_t,
                            int64_t, int64_t, int64_t);
using Int8QuantizeRowFn = void (*)(const float*, uint8_t*, int64_t, float);

struct Int8Dispatch {
  Int8Kernel fn;
  Int8QuantizeRowFn quantize_row;
  const char* name;
  /// True when `fn` consumes the interleaved Int8KernelPackedB layout
  /// instead of the canonical channel-major one.
  bool interleaved_b;
};

/// Manual function-pointer dispatch (not target_clones/ifunc: the int8
/// family must stay dispatchable under sanitizers, where ifunc
/// resolvers run before the sanitizer runtime initializes). Safe here
/// precisely because every variant is bit-identical.
const Int8Dispatch& GetInt8Dispatch() {
  static const Int8Dispatch d = [] {
#if defined(__x86_64__) && defined(__GNUC__)
    if (__builtin_cpu_supports("avx512vnni") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vl")) {
      return Int8Dispatch{Int8KernelVnni, Int8QuantizeRowAvx512, "avx512-vnni",
                          /*interleaved_b=*/true};
    }
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx2")) {
      return Int8Dispatch{Int8KernelAvx2, Int8QuantizeRowAvx512,
                          "avx2+avx512-quant", /*interleaved_b=*/false};
    }
    if (__builtin_cpu_supports("avx2")) {
      return Int8Dispatch{Int8KernelAvx2, Int8QuantizeRowScalar, "avx2",
                          /*interleaved_b=*/false};
    }
#endif
    return Int8Dispatch{Int8KernelScalar, Int8QuantizeRowScalar, "scalar",
                        /*interleaved_b=*/false};
  }();
  return d;
}

/// Largest kp for which the int32 accumulator provably cannot wrap:
/// kp · 255 · 127 ≤ INT32_MAX.
constexpr int64_t kInt8MaxK = INT32_MAX / (255 * 127);

}  // namespace

std::vector<int8_t> Int8KernelPackedB(const int8_t* canonical, int64_t n,
                                      int64_t kp) {
  if (!GetInt8Dispatch().interleaved_b) return {};
  constexpr int64_t kPanel = 16;  // kVnniPanel
  const int64_t panels = (n + kPanel - 1) / kPanel;
  std::vector<int8_t> out(static_cast<size_t>(panels * kPanel * kp), 0);
  for (int64_t j = 0; j < n; ++j) {
    const int64_t jb = j / kPanel, jj = j % kPanel;
    const int8_t* src = canonical + j * kp;
    int8_t* dst = out.data() + jb * kPanel * kp + jj * 4;
    // Group p in fours: dst layout per panel is [p/4][column][p%4].
    for (int64_t p = 0; p < kp; ++p) dst[(p / 4) * kPanel * 4 + (p % 4)] = src[p];
  }
  return out;
}

void Int8QuantizeRow(const float* row, uint8_t* out, int64_t k,
                     float inv_scale) {
  GetInt8Dispatch().quantize_row(row, out, k, inv_scale);
}

void Int8GemmRowRange(const uint8_t* a, const int8_t* b,
                      const int32_t* colsum, const float* scale,
                      const float* bias, float a_scale, float* c,
                      int64_t i_begin, int64_t i_end, int64_t kp, int64_t n) {
  GetInt8Dispatch().fn(a, b, colsum, scale, bias, a_scale, c, i_begin, i_end,
                       kp, n);
}

void Int8GemmDispatch(const uint8_t* a, const int8_t* b, const int32_t* colsum,
                      const float* scale, const float* bias, float a_scale,
                      float* c, int64_t m, int64_t kp, int64_t n) {
  if (m == 0 || n == 0) return;
  BA_CHECK_EQ(kp % kInt8KAlign, 0);
  BA_CHECK_LE(kp, kInt8MaxK);
  const int64_t ops = m * kp * n;
  if (ops >= kParallelFlops && m > kMr && !ThreadPool::InWorkerThread()) {
    ThreadPool& pool = util::SharedPool();
    if (pool.num_threads() > 1) {
      const int64_t panel_rows =
          ((m + static_cast<int64_t>(pool.num_threads()) - 1) /
               static_cast<int64_t>(pool.num_threads()) +
           kMr - 1) /
          kMr * kMr;
      const size_t panels =
          static_cast<size_t>((m + panel_rows - 1) / panel_rows);
      obs::ScopedSpan gemm_span("tensor.gemm.int8");
      gemm_span.AddArg("m", static_cast<double>(m));
      gemm_span.AddArg("kp", static_cast<double>(kp));
      gemm_span.AddArg("n", static_cast<double>(n));
      gemm_span.AddArg("panels", static_cast<double>(panels));
      pool.ParallelFor(panels, [&](size_t pi) {
        const int64_t i_begin = static_cast<int64_t>(pi) * panel_rows;
        const int64_t i_end = std::min(m, i_begin + panel_rows);
        Int8GemmRowRange(a, b, colsum, scale, bias, a_scale, c, i_begin, i_end,
                         kp, n);
      });
      return;
    }
  }
  Int8GemmRowRange(a, b, colsum, scale, bias, a_scale, c, 0, m, kp, n);
}

void Int8GemmReference(const uint8_t* a, const int8_t* b,
                       const int32_t* colsum, const float* scale,
                       const float* bias, float a_scale, float* c, int64_t m,
                       int64_t kp, int64_t n) {
  Int8KernelScalar(a, b, colsum, scale, bias, a_scale, c, 0, m, kp, n);
}

const char* Int8GemmVariantName() { return GetInt8Dispatch().name; }

}  // namespace internal

}  // namespace ba::tensor
