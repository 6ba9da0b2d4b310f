#pragma once

#include <functional>
#include <vector>

#include "tensor/optimizer.h"
#include "util/thread_pool.h"

/// \file data_parallel.h
/// \brief The data-parallel minibatch step shared by GraphModel::Train
/// and AggregatorModel::Train (DESIGN.md §7).

namespace ba::core {

/// \brief Trains minibatches across lanes for the length of one Train
/// call. Per batch, lanes claim examples from one cursor, run forward
/// and backward on their own parameter nodes and swap each example's
/// gradients into its slot. One sweep over ~1k-element chunks of the
/// parameters then sums the slots in ascending example index, scales by
/// 1/batch, applies the Adam update and copies the new values to the
/// replicas. The result is a pure function of the batch, bit-identical
/// at any lane count; one lane runs everything inline.
class DataParallelTrainer {
 public:
  /// Builds example k's scalar loss on lane `lane`'s model.
  using LossFn = std::function<tensor::Var(size_t lane, size_t k)>;
  /// Span names: a batch, its example fan-out, its reduction + update.
  struct Spans { const char *batch, *examples, *update; };

  /// Lane 0 trains `optimizer`'s parameters; each further lane, up to
  /// `num_threads` (0 = the shared pool's size) clamped to [1,
  /// batch_size], trains a same-shaped `make_replica()` result, synced
  /// to lane 0's values here and after every batch.
  DataParallelTrainer(
      tensor::Adam* optimizer, int num_threads, int batch_size,
      const std::function<std::vector<tensor::Var>()>& make_replica,
      Spans spans);

  size_t lanes() const { return lane_params_.size(); }

  /// Trains on examples [0, n) in order, one batch at a time, and
  /// returns their losses summed in ascending example order.
  double RunEpoch(size_t n, const LossFn& loss);

 private:
  struct Slot {
    std::vector<tensor::Tensor> grads;  ///< swapped out of the lane
    std::vector<char> present;          ///< grad_ready at the swap
    double loss = 0.0;
  };

  /// Examples [first, first + bs) as one batch.
  void Step(size_t first, size_t bs, const LossFn& loss);

  std::vector<std::vector<tensor::Var>> lane_params_;
  tensor::Adam* optimizer_;
  size_t batch_size_;
  Spans spans_;
  ThreadPool* pool_;  ///< null for one lane: inline, so GEMMs may fan out
  std::vector<std::pair<size_t, int64_t>> chunks_;  ///< (param, begin)
  std::vector<Slot> slots_;
};

}  // namespace ba::core
