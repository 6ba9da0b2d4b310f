#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "graph/sparse_matrix.h"
#include "tensor/tensor.h"
#include "util/rng.h"

/// \file autograd.h
/// \brief Tape-based reverse-mode automatic differentiation.
///
/// Outside a `NoGradScope`, a differentiable operation with a parent
/// that requires gradients builds a `Node` holding its value, its
/// parents and a backward closure; `Backward(root)` runs a reverse
/// topological sweep accumulating gradients into parameter nodes. This
/// is the training engine behind GFN, GCN, DiffPool, the LSTM
/// classifier and the MLP baselines. Inference runs the same ops under
/// a `NoGradScope`: each op then returns a node holding only its value,
/// so no tape is recorded and every intermediate is freed as soon as
/// the next op has consumed it.

namespace ba::tensor {

class Node;

/// Shared handle to an autograd tape node.
using Var = std::shared_ptr<Node>;

/// \brief One node of the autograd tape.
class Node {
 public:
  Tensor value;
  Tensor grad;  ///< valid when grad_ready; else storage kept for reuse
  bool requires_grad = false;  ///< gradient flows into this node
  bool grad_ready = false;     ///< grad holds this pass's gradient
  std::vector<Var> parents;
  /// Propagates this node's grad into its parents' grads.
  std::function<void(Node&)> backward;

  /// Adds `g` into this node's grad buffer. The first add after
  /// ZeroGrad zero-fills a kept same-shape buffer (or allocates one).
  /// No-op when the node does not require gradients.
  void AccumulateGrad(const Tensor& g);
};

/// \brief RAII guard that stops ops on the calling thread from
/// recording a tape (torch's `NoGradGuard`).
///
/// While any scope is open on a thread, every op that thread runs
/// returns a node with its value only: no parents, no backward closure,
/// `requires_grad` false. Values are bit-identical to the taped
/// forward. The flag is thread-local, so ops on other threads keep
/// their tape, and a scope restores the previous state on exit, so
/// scopes nest. Open it only around work the thread does for its own
/// caller: a pool thread that ran someone else's task under an open
/// scope would drop that task's tape.
class NoGradScope {
 public:
  NoGradScope();
  ~NoGradScope();
  NoGradScope(const NoGradScope&) = delete;
  NoGradScope& operator=(const NoGradScope&) = delete;

 private:
  bool outer_;
};

/// Wraps a value that never receives gradients (inputs, labels).
Var Constant(Tensor value);

/// Wraps a trainable parameter (receives and keeps gradients).
Var Param(Tensor value);

/// \brief Runs reverse-mode differentiation from a scalar root.
/// Seeds d(root)/d(root) = 1 and sweeps the tape once. Gradients
/// accumulate across calls until ZeroGrad. The root must require
/// gradients: a constant, or any value made under a NoGradScope, has
/// no tape to sweep and is a checked error.
void Backward(const Var& root);

/// Marks the given nodes' gradients cleared. Their grad storage is
/// kept, so the next Backward reuses it instead of allocating.
void ZeroGrad(const std::vector<Var>& params);

// ---------------------------------------------------------------------------
// Differentiable operations. All inputs are rank-2 unless noted.
// ---------------------------------------------------------------------------

/// C = A·B, (m,k)x(k,n).
Var MatMul(const Var& a, const Var& b);

/// Element-wise sum. Shapes must match, or `b` may be (1,n) and is then
/// broadcast over rows of (m,n) `a` (bias addition).
Var Add(const Var& a, const Var& b);

/// Element-wise difference of same-shaped tensors.
Var Sub(const Var& a, const Var& b);

/// Element-wise (Hadamard) product of same-shaped tensors.
Var Mul(const Var& a, const Var& b);

/// s·A for a compile-time constant scalar.
Var Scale(const Var& a, float s);

Var Relu(const Var& a);
Var Sigmoid(const Var& a);
Var Tanh(const Var& a);

/// Row-wise (axis=1) or column-wise (axis=0) softmax of a rank-2 input.
Var Softmax(const Var& a, int axis = 1);

/// \brief Mean softmax cross-entropy over rows of `logits` (m,c)
/// against integer labels (size m). Returns a rank-0 scalar.
Var SoftmaxCrossEntropy(const Var& logits, const std::vector<int>& labels);

/// Stacks inputs vertically; all must share the column count.
Var ConcatRows(const std::vector<Var>& parts);

/// Stacks inputs horizontally; all must share the row count.
Var ConcatCols(const std::vector<Var>& parts);

/// Column sums: (m,n) -> (1,n).
Var SumRows(const Var& a);

/// Column means: (m,n) -> (1,n).
Var MeanRows(const Var& a);

/// Column max: (m,n) -> (1,n). Gradient flows to (first) argmax rows.
Var MaxRows(const Var& a);

/// Rows [begin, end) of a rank-2 input.
Var SliceRows(const Var& a, int64_t begin, int64_t end);

/// Aᵀ.
Var Transpose(const Var& a);

/// \brief Y = S·X for a constant sparse matrix S (graph propagation).
/// Backward uses Sᵀ, computed once and cached alongside the op.
Var SpMM(std::shared_ptr<const graph::SparseMatrix> s, const Var& x);

/// \brief Inverted dropout. Identity when !training or p == 0.
Var Dropout(const Var& a, float p, Rng* rng, bool training);

/// Mean of all elements -> rank-0 scalar.
Var MeanAll(const Var& a);

/// \brief Frobenius-norm-squared times 0.5 — L2 regularization helper.
Var L2Penalty(const Var& a);

}  // namespace ba::tensor
