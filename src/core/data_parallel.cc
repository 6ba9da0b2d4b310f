#include "core/data_parallel.h"

#include <algorithm>
#include <atomic>

#include "obs/trace.h"

namespace ba::core {

namespace {
constexpr int64_t kChunk = 1024;  ///< elements per update chunk (L1-sized)

void ForEach(ThreadPool* pool, size_t n,
             const std::function<void(size_t)>& body) {
  if (pool != nullptr) return pool->ParallelFor(n, body);
  for (size_t i = 0; i < n; ++i) body(i);
}
}  // namespace

DataParallelTrainer::DataParallelTrainer(
    tensor::Adam* optimizer, int num_threads, int batch_size,
    const std::function<std::vector<tensor::Var>()>& make_replica,
    Spans spans)
    : lane_params_{optimizer->params()},
      optimizer_(optimizer),
      batch_size_(static_cast<size_t>(batch_size)),
      spans_(spans),
      slots_(batch_size_) {
  const size_t lanes = num_threads == 0 ? util::SharedPoolThreads()
                                        : static_cast<size_t>(num_threads);
  while (lane_params_.size() < std::min(lanes, batch_size_)) {
    lane_params_.push_back(make_replica());
  }
  pool_ = lane_params_.size() > 1 ? &util::SharedPool() : nullptr;
  const std::vector<tensor::Var>& master = lane_params_[0];
  for (size_t pi = 0; pi < master.size(); ++pi) {
    for (int64_t b = 0; b < master[pi]->value.numel(); b += kChunk) {
      chunks_.emplace_back(pi, b);
    }
    for (size_t l = 1; l < lane_params_.size(); ++l) {
      lane_params_[l][pi]->value = master[pi]->value;
    }
  }
}

double DataParallelTrainer::RunEpoch(size_t n, const LossFn& loss) {
  double sum = 0.0;
  for (size_t first = 0; first < n; first += batch_size_) {
    const size_t bs = std::min(batch_size_, n - first);
    obs::ScopedSpan span(spans_.batch);
    span.AddArg("size", static_cast<double>(bs));
    span.AddArg("lanes", static_cast<double>(lane_params_.size()));
    Step(first, bs, loss);
    for (size_t e = 0; e < bs; ++e) sum += slots_[e].loss;
  }
  return sum;
}

void DataParallelTrainer::Step(size_t first, size_t bs, const LossFn& loss) {
  const std::vector<tensor::Var>& master = lane_params_[0];
  const size_t num_params = master.size();
  {
    // Claiming one example at a time keeps every lane busy however
    // skewed the example costs are. The swap hands the lane the slot's
    // old storage, which its next Backward zero-fills and reuses.
    obs::ScopedSpan span(spans_.examples);
    std::atomic<size_t> next{0};
    ForEach(pool_, std::min(lane_params_.size(), bs), [&](size_t lane) {
      const std::vector<tensor::Var>& params = lane_params_[lane];
      for (size_t e; (e = next.fetch_add(1)) < bs;) {
        tensor::ZeroGrad(params);
        const tensor::Var l = loss(lane, first + e);
        tensor::Backward(l);
        Slot& slot = slots_[e];
        slot.loss = static_cast<double>(l->value.item());
        slot.grads.resize(num_params);
        slot.present.resize(num_params);
        for (size_t pi = 0; pi < num_params; ++pi) {
          slot.present[pi] = params[pi]->grad_ready;
          if (slot.present[pi]) std::swap(slot.grads[pi], params[pi]->grad);
        }
      }
    });
  }

  // Fixed-order reduction: each element sums the slots from zero in
  // ascending example index — never in completion order — and is then
  // scaled by 1/batch, independent of lane count and scheduling.
  obs::ScopedSpan span(spans_.update);
  for (size_t pi = 0; pi < num_params; ++pi) {
    tensor::Node& p = *master[pi];
    p.grad_ready = false;
    for (size_t e = 0; e < bs; ++e) p.grad_ready |= slots_[e].present[pi];
    if (p.grad_ready && !p.grad.SameShape(p.value)) {
      p.grad = tensor::Tensor(p.value.shape());
    }
  }
  optimizer_->BeginStep();
  const float scale = 1.0f / static_cast<float>(bs);
  ForEach(pool_, chunks_.size(), [&](size_t c) {
    const auto [pi, begin] = chunks_[c];
    tensor::Node& p = *master[pi];
    if (!p.grad_ready) return;
    const int64_t end = std::min(p.value.numel(), begin + kChunk);
    float* g = p.grad.data();
    std::fill(g + begin, g + end, 0.0f);
    for (size_t e = 0; e < bs; ++e) {
      if (!slots_[e].present[pi]) continue;
      const float* s = slots_[e].grads[pi].data();
      for (int64_t j = begin; j < end; ++j) g[j] += s[j];
    }
    for (int64_t j = begin; j < end; ++j) g[j] *= scale;
    optimizer_->UpdateRange(pi, begin, end);
    for (size_t l = 1; l < lane_params_.size(); ++l) {
      std::copy(p.value.data() + begin, p.value.data() + end,
                lane_params_[l][pi]->value.data() + begin);
    }
  });
}

}  // namespace ba::core
