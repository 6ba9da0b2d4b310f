#include "tensor/autograd.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <unordered_set>
#include <utility>

namespace ba::tensor {

void Node::AccumulateGrad(const Tensor& g) {
  if (!requires_grad) return;
  BA_CHECK(g.SameShape(value));
  if (!grad_ready) {
    if (!grad.SameShape(value)) grad = Tensor(value.shape());
    grad.Fill(0.0f);
    grad_ready = true;
  }
  grad.AddInPlace(g);
}

namespace {

/// Set while a NoGradScope is open on this thread.
thread_local bool t_no_grad = false;

/// Creates an op node whose requires_grad is inherited from parents.
/// Under a NoGradScope the node keeps only its value: the parents are
/// never copied and the closure is never wrapped in a std::function.
template <typename It, typename BackwardFn>
Var MakeOpFrom(Tensor value, It first, It last, BackwardFn&& backward) {
  auto node = std::make_shared<Node>(std::move(value));
  if (t_no_grad) return node;
  node->parents.assign(first, last);
  for (const auto& p : node->parents) {
    if (p->requires_grad) {
      node->requires_grad = true;
      break;
    }
  }
  if (node->requires_grad) {
    node->backward = std::forward<BackwardFn>(backward);
  }
  return node;
}

template <typename BackwardFn>
Var MakeOp(Tensor value, std::initializer_list<Var> parents,
           BackwardFn&& backward) {
  return MakeOpFrom(std::move(value), parents.begin(), parents.end(),
                    std::forward<BackwardFn>(backward));
}

template <typename BackwardFn>
Var MakeOp(Tensor value, const std::vector<Var>& parents,
           BackwardFn&& backward) {
  return MakeOpFrom(std::move(value), parents.begin(), parents.end(),
                    std::forward<BackwardFn>(backward));
}

}  // namespace

NoGradScope::NoGradScope() : outer_(t_no_grad) { t_no_grad = true; }

NoGradScope::~NoGradScope() { t_no_grad = outer_; }

Var Constant(Tensor value) {
  auto node = std::make_shared<Node>(std::move(value));
  node->requires_grad = false;
  return node;
}

Var Param(Tensor value) {
  auto node = std::make_shared<Node>(std::move(value));
  node->requires_grad = true;
  return node;
}

void Backward(const Var& root) {
  BA_CHECK(root->requires_grad);
  BA_CHECK_EQ(root->value.numel(), 1);
  // Iterative post-order DFS to get a topological order.
  std::vector<Node*> topo;
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, size_t>> stack;
  stack.push_back({root.get(), 0});
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      Node* child = node->parents[next_child].get();
      ++next_child;
      if (child->requires_grad && !visited.count(child)) {
        visited.insert(child);
        stack.push_back({child, 0});
      }
    } else {
      topo.push_back(node);
      stack.pop_back();
    }
  }
  root->AccumulateGrad(Tensor::Ones(root->value.shape()));
  // topo is post-order: parents before dependents; traverse reversed.
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    Node* node = *it;
    if (node->backward && node->grad_ready) node->backward(*node);
  }
}

void ZeroGrad(const std::vector<Var>& params) {
  for (const auto& p : params) p->grad_ready = false;
}

Var MatMul(const Var& a, const Var& b) {
  Tensor value = MatMulValue(a->value, b->value);
  return MakeOp(std::move(value), {a, b}, [](Node& n) {
    const Var& a = n.parents[0];
    const Var& b = n.parents[1];
    if (a->requires_grad) {
      a->AccumulateGrad(MatMulTransposeBValue(n.grad, b->value));
    }
    if (b->requires_grad) {
      b->AccumulateGrad(MatMulTransposeAValue(a->value, n.grad));
    }
  });
}

Var Add(const Var& a, const Var& b) {
  const Tensor& av = a->value;
  const Tensor& bv = b->value;
  const bool broadcast = !av.SameShape(bv);
  if (broadcast) {
    BA_CHECK_EQ(av.rank(), 2);
    BA_CHECK_EQ(bv.rank(), 2);
    BA_CHECK_EQ(bv.dim(0), 1);
    BA_CHECK_EQ(bv.dim(1), av.dim(1));
  }
  Tensor value = av;
  if (broadcast) {
    const int64_t m = av.dim(0), n = av.dim(1);
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) value.at(i, j) += bv.at(0, j);
    }
  } else {
    value.AddInPlace(bv);
  }
  return MakeOp(std::move(value), {a, b}, [broadcast](Node& n) {
    const Var& a = n.parents[0];
    const Var& b = n.parents[1];
    if (a->requires_grad) a->AccumulateGrad(n.grad);
    if (b->requires_grad) {
      if (!broadcast) {
        b->AccumulateGrad(n.grad);
      } else {
        const int64_t m = n.grad.dim(0), cols = n.grad.dim(1);
        Tensor gb({1, cols});
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t j = 0; j < cols; ++j) gb.at(0, j) += n.grad.at(i, j);
        }
        b->AccumulateGrad(gb);
      }
    }
  });
}

Var Sub(const Var& a, const Var& b) {
  BA_CHECK(a->value.SameShape(b->value));
  Tensor value = a->value;
  for (int64_t i = 0; i < value.numel(); ++i) value.data()[i] -= b->value.data()[i];
  return MakeOp(std::move(value), {a, b}, [](Node& n) {
    const Var& a = n.parents[0];
    const Var& b = n.parents[1];
    if (a->requires_grad) a->AccumulateGrad(n.grad);
    if (b->requires_grad) {
      Tensor g = n.grad;
      g.ScaleInPlace(-1.0f);
      b->AccumulateGrad(g);
    }
  });
}

Var Mul(const Var& a, const Var& b) {
  BA_CHECK(a->value.SameShape(b->value));
  Tensor value = a->value;
  value.MulInPlace(b->value);
  return MakeOp(std::move(value), {a, b}, [](Node& n) {
    const Var& a = n.parents[0];
    const Var& b = n.parents[1];
    if (a->requires_grad) {
      Tensor g = n.grad;
      for (int64_t i = 0; i < g.numel(); ++i) g.data()[i] *= b->value.data()[i];
      a->AccumulateGrad(g);
    }
    if (b->requires_grad) {
      Tensor g = n.grad;
      for (int64_t i = 0; i < g.numel(); ++i) g.data()[i] *= a->value.data()[i];
      b->AccumulateGrad(g);
    }
  });
}

Var Scale(const Var& a, float s) {
  Tensor value = a->value;
  value.ScaleInPlace(s);
  return MakeOp(std::move(value), {a}, [s](Node& n) {
    Tensor g = n.grad;
    g.ScaleInPlace(s);
    n.parents[0]->AccumulateGrad(g);
  });
}

Var Relu(const Var& a) {
  Tensor value = a->value;
  ReluInPlace(&value);
  return MakeOp(std::move(value), {a}, [](Node& n) {
    Tensor g = n.grad;
    for (int64_t i = 0; i < g.numel(); ++i) {
      if (n.parents[0]->value.data()[i] <= 0.0f) g.data()[i] = 0.0f;
    }
    n.parents[0]->AccumulateGrad(g);
  });
}

Var Sigmoid(const Var& a) {
  Tensor value = a->value;
  SigmoidInPlace(&value);
  return MakeOp(std::move(value), {a}, [](Node& n) {
    Tensor g = n.grad;
    for (int64_t i = 0; i < g.numel(); ++i) {
      const float y = n.value.data()[i];
      g.data()[i] *= y * (1.0f - y);
    }
    n.parents[0]->AccumulateGrad(g);
  });
}

Var Tanh(const Var& a) {
  Tensor value = a->value;
  TanhInPlace(&value);
  return MakeOp(std::move(value), {a}, [](Node& n) {
    Tensor g = n.grad;
    for (int64_t i = 0; i < g.numel(); ++i) {
      const float y = n.value.data()[i];
      g.data()[i] *= 1.0f - y * y;
    }
    n.parents[0]->AccumulateGrad(g);
  });
}

Var Softmax(const Var& a, int axis) {
  BA_CHECK_EQ(a->value.rank(), 2);
  BA_CHECK(axis == 0 || axis == 1);
  const int64_t m = a->value.dim(0), n = a->value.dim(1);
  Tensor value = a->value;
  auto softmax_span = [](float* base, int64_t count, int64_t stride) {
    float max_v = base[0];
    for (int64_t i = 1; i < count; ++i) max_v = std::max(max_v, base[i * stride]);
    float total = 0.0f;
    for (int64_t i = 0; i < count; ++i) {
      base[i * stride] = std::exp(base[i * stride] - max_v);
      total += base[i * stride];
    }
    for (int64_t i = 0; i < count; ++i) base[i * stride] /= total;
  };
  if (axis == 1) {
    for (int64_t i = 0; i < m; ++i) softmax_span(value.data() + i * n, n, 1);
  } else {
    for (int64_t j = 0; j < n; ++j) softmax_span(value.data() + j, m, n);
  }
  return MakeOp(std::move(value), {a}, [axis, m, n](Node& node) {
    // dL/dx_i = y_i * (g_i - sum_j g_j y_j) along the softmax axis.
    Tensor gx({m, n});
    auto backprop_span = [](const float* y, const float* g, float* out,
                            int64_t count, int64_t stride) {
      float dot = 0.0f;
      for (int64_t i = 0; i < count; ++i) dot += g[i * stride] * y[i * stride];
      for (int64_t i = 0; i < count; ++i) {
        out[i * stride] = y[i * stride] * (g[i * stride] - dot);
      }
    };
    if (axis == 1) {
      for (int64_t i = 0; i < m; ++i) {
        backprop_span(node.value.data() + i * n, node.grad.data() + i * n,
                      gx.data() + i * n, n, 1);
      }
    } else {
      for (int64_t j = 0; j < n; ++j) {
        backprop_span(node.value.data() + j, node.grad.data() + j,
                      gx.data() + j, m, n);
      }
    }
    node.parents[0]->AccumulateGrad(gx);
  });
}

Var SoftmaxCrossEntropy(const Var& logits, const std::vector<int>& labels) {
  BA_CHECK_EQ(logits->value.rank(), 2);
  const int64_t m = logits->value.dim(0), c = logits->value.dim(1);
  BA_CHECK_EQ(static_cast<int64_t>(labels.size()), m);
  // Forward: stable log-softmax; loss = -mean(log p[label]).
  auto probs = std::make_shared<Tensor>(Tensor({m, c}));
  double loss = 0.0;
  for (int64_t i = 0; i < m; ++i) {
    const float* row = logits->value.data() + i * c;
    float max_v = row[0];
    for (int64_t j = 1; j < c; ++j) max_v = std::max(max_v, row[j]);
    double total = 0.0;
    for (int64_t j = 0; j < c; ++j) total += std::exp(row[j] - max_v);
    const double log_total = std::log(total);
    const int y = labels[static_cast<size_t>(i)];
    BA_CHECK_GE(y, 0);
    BA_CHECK_LT(y, c);
    loss -= (row[y] - max_v) - log_total;
    for (int64_t j = 0; j < c; ++j) {
      probs->at(i, j) =
          static_cast<float>(std::exp(row[j] - max_v) / total);
    }
  }
  loss /= static_cast<double>(m);
  Tensor value = Tensor::Scalar(static_cast<float>(loss));
  auto labels_copy = std::make_shared<std::vector<int>>(labels);
  return MakeOp(std::move(value), {logits},
                [probs, labels_copy, m, c](Node& n) {
                  const float scale = n.grad.item() / static_cast<float>(m);
                  Tensor g({m, c});
                  for (int64_t i = 0; i < m; ++i) {
                    for (int64_t j = 0; j < c; ++j) {
                      float v = probs->at(i, j);
                      if (j == (*labels_copy)[static_cast<size_t>(i)]) {
                        v -= 1.0f;
                      }
                      g.at(i, j) = v * scale;
                    }
                  }
                  n.parents[0]->AccumulateGrad(g);
                });
}

Var ConcatRows(const std::vector<Var>& parts) {
  BA_CHECK(!parts.empty());
  const int64_t cols = parts[0]->value.dim(1);
  int64_t rows = 0;
  for (const auto& p : parts) {
    BA_CHECK_EQ(p->value.rank(), 2);
    BA_CHECK_EQ(p->value.dim(1), cols);
    rows += p->value.dim(0);
  }
  Tensor value({rows, cols});
  int64_t offset = 0;
  for (const auto& p : parts) {
    std::copy(p->value.data(), p->value.data() + p->value.numel(),
              value.data() + offset * cols);
    offset += p->value.dim(0);
  }
  return MakeOp(std::move(value), parts, [cols](Node& n) {
    int64_t offset = 0;
    for (auto& p : n.parents) {
      const int64_t r = p->value.dim(0);
      if (p->requires_grad) {
        Tensor g({r, cols});
        std::copy(n.grad.data() + offset * cols,
                  n.grad.data() + (offset + r) * cols, g.data());
        p->AccumulateGrad(g);
      }
      offset += r;
    }
  });
}

Var ConcatCols(const std::vector<Var>& parts) {
  BA_CHECK(!parts.empty());
  const int64_t rows = parts[0]->value.dim(0);
  int64_t cols = 0;
  for (const auto& p : parts) {
    BA_CHECK_EQ(p->value.rank(), 2);
    BA_CHECK_EQ(p->value.dim(0), rows);
    cols += p->value.dim(1);
  }
  Tensor value({rows, cols});
  int64_t offset = 0;
  for (const auto& p : parts) {
    const int64_t pc = p->value.dim(1);
    for (int64_t i = 0; i < rows; ++i) {
      std::copy(p->value.data() + i * pc, p->value.data() + (i + 1) * pc,
                value.data() + i * cols + offset);
    }
    offset += pc;
  }
  return MakeOp(std::move(value), parts, [rows, cols](Node& n) {
    int64_t offset = 0;
    for (auto& p : n.parents) {
      const int64_t pc = p->value.dim(1);
      if (p->requires_grad) {
        Tensor g({rows, pc});
        for (int64_t i = 0; i < rows; ++i) {
          std::copy(n.grad.data() + i * cols + offset,
                    n.grad.data() + i * cols + offset + pc,
                    g.data() + i * pc);
        }
        p->AccumulateGrad(g);
      }
      offset += pc;
    }
  });
}

Var SumRows(const Var& a) {
  Tensor value = SumRowsValue(a->value);
  const int64_t m = a->value.dim(0), n = a->value.dim(1);
  return MakeOp(std::move(value), {a}, [m, n](Node& node) {
    Tensor g({m, n});
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) g.at(i, j) = node.grad.at(0, j);
    }
    node.parents[0]->AccumulateGrad(g);
  });
}

Var MeanRows(const Var& a) {
  const int64_t m = a->value.dim(0);
  return Scale(SumRows(a), 1.0f / static_cast<float>(m));
}

Var MaxRows(const Var& a) {
  auto argmax = std::make_shared<std::vector<int64_t>>();
  Tensor value = MaxRowsValue(a->value, argmax.get());
  const int64_t m = a->value.dim(0), n = a->value.dim(1);
  return MakeOp(std::move(value), {a}, [m, n, argmax](Node& node) {
    Tensor g({m, n});
    for (int64_t j = 0; j < n; ++j) {
      g.at((*argmax)[static_cast<size_t>(j)], j) = node.grad.at(0, j);
    }
    node.parents[0]->AccumulateGrad(g);
  });
}

Var SliceRows(const Var& a, int64_t begin, int64_t end) {
  BA_CHECK_EQ(a->value.rank(), 2);
  BA_CHECK_GE(begin, 0);
  BA_CHECK_LE(end, a->value.dim(0));
  BA_CHECK_LT(begin, end);
  const int64_t n = a->value.dim(1);
  const int64_t rows = end - begin;
  Tensor value({rows, n});
  std::copy(a->value.data() + begin * n, a->value.data() + end * n,
            value.data());
  return MakeOp(std::move(value), {a}, [begin, rows, n](Node& node) {
    Tensor g(node.parents[0]->value.shape());
    std::copy(node.grad.data(), node.grad.data() + rows * n,
              g.data() + begin * n);
    node.parents[0]->AccumulateGrad(g);
  });
}

Var Transpose(const Var& a) {
  BA_CHECK_EQ(a->value.rank(), 2);
  const int64_t m = a->value.dim(0), n = a->value.dim(1);
  Tensor value({n, m});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) value.at(j, i) = a->value.at(i, j);
  }
  return MakeOp(std::move(value), {a}, [m, n](Node& node) {
    Tensor g({m, n});
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) g.at(i, j) = node.grad.at(j, i);
    }
    node.parents[0]->AccumulateGrad(g);
  });
}

Var SpMM(std::shared_ptr<const graph::SparseMatrix> s, const Var& x) {
  BA_CHECK_EQ(x->value.rank(), 2);
  BA_CHECK_EQ(s->cols(), x->value.dim(0));
  const int64_t cols = x->value.dim(1);
  Tensor value({s->rows(), cols});
  s->MultiplyDense(x->value.data(), cols, value.data());
  return MakeOp(std::move(value), {x}, [s, cols](Node& node) {
    // gx = Sᵀ · gy; transpose computed lazily per backward call — these
    // matrices are per-slice and small, and Backward runs once per tape.
    const graph::SparseMatrix st = s->Transpose();
    Tensor g({st.rows(), cols});
    st.MultiplyDense(node.grad.data(), cols, g.data());
    node.parents[0]->AccumulateGrad(g);
  });
}

Var Dropout(const Var& a, float p, Rng* rng, bool training) {
  if (!training || p <= 0.0f) return a;
  BA_CHECK_LT(p, 1.0f);
  const float keep = 1.0f - p;
  auto mask = std::make_shared<Tensor>(a->value.shape());
  Tensor value = a->value;
  for (int64_t i = 0; i < value.numel(); ++i) {
    const float m = rng->Bernoulli(keep) ? 1.0f / keep : 0.0f;
    mask->data()[i] = m;
    value.data()[i] *= m;
  }
  return MakeOp(std::move(value), {a}, [mask](Node& n) {
    Tensor g = n.grad;
    for (int64_t i = 0; i < g.numel(); ++i) g.data()[i] *= mask->data()[i];
    n.parents[0]->AccumulateGrad(g);
  });
}

Var MeanAll(const Var& a) {
  const int64_t count = a->value.numel();
  Tensor value = Tensor::Scalar(
      static_cast<float>(a->value.Sum() / static_cast<double>(count)));
  return MakeOp(std::move(value), {a}, [count](Node& n) {
    Tensor g(n.parents[0]->value.shape());
    const float v = n.grad.item() / static_cast<float>(count);
    g.Fill(v);
    n.parents[0]->AccumulateGrad(g);
  });
}

Var L2Penalty(const Var& a) {
  double acc = 0.0;
  for (int64_t i = 0; i < a->value.numel(); ++i) {
    const double v = a->value.data()[i];
    acc += v * v;
  }
  Tensor value = Tensor::Scalar(static_cast<float>(0.5 * acc));
  return MakeOp(std::move(value), {a}, [](Node& n) {
    Tensor g = n.parents[0]->value;
    g.ScaleInPlace(n.grad.item());
    n.parents[0]->AccumulateGrad(g);
  });
}

}  // namespace ba::tensor
