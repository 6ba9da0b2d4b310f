#include "nn/lstm.h"

#include <algorithm>
#include <utility>

namespace ba::nn {

LstmCell::LstmCell(int64_t input_size, int64_t hidden_size, Rng* rng)
    : input_size_(input_size),
      hidden_size_(hidden_size),
      forget_gate_(hidden_size + input_size, hidden_size, rng),
      input_gate_(hidden_size + input_size, hidden_size, rng),
      candidate_(hidden_size + input_size, hidden_size, rng),
      output_gate_(hidden_size + input_size, hidden_size, rng) {}

std::pair<Var, Var> LstmCell::Step(const Var& x, const Var& h,
                                   const Var& c) const {
  using namespace tensor;  // NOLINT(build/namespaces)
  const Var hx = ConcatCols({h, x});                     // [h_{t-1}, x_t]
  const Var f = Sigmoid(forget_gate_.Forward(hx));       // Eq. 16
  const Var i = Sigmoid(input_gate_.Forward(hx));        // Eq. 17
  const Var c_tilde = Tanh(candidate_.Forward(hx));      // Eq. 18
  const Var c_new = Add(Mul(f, c), Mul(i, c_tilde));     // Eq. 19
  const Var o = Sigmoid(output_gate_.Forward(hx));       // Eq. 20
  const Var h_new = Mul(o, Tanh(c_new));                 // Eq. 21
  return {h_new, c_new};
}

void LstmCell::StepValue(const float* x, LstmScratch* s) const {
  using namespace tensor;  // NOLINT(build/namespaces)
  s->hx.Resize(1, hidden_size_ + input_size_);  // [h_{t-1}, x_t]
  std::copy(s->h.data(), s->h.data() + hidden_size_, s->hx.data());
  std::copy(x, x + input_size_, s->hx.data() + hidden_size_);
  forget_gate_.ForwardValue(s->hx, &s->f);  // Eq. 16
  SigmoidInPlace(&s->f);
  input_gate_.ForwardValue(s->hx, &s->i);  // Eq. 17
  SigmoidInPlace(&s->i);
  candidate_.ForwardValue(s->hx, &s->c_tilde);  // Eq. 18
  TanhInPlace(&s->c_tilde);
  // Eq. 19 as Step's Add(Mul(f, c), Mul(i, c_tilde)): each product is
  // rounded into its buffer before the sum. One fused expression could
  // be contracted into an FMA and change the bits.
  s->f.MulInPlace(s->c);
  s->i.MulInPlace(s->c_tilde);
  std::swap(s->c, s->f);
  s->c.AddInPlace(s->i);
  output_gate_.ForwardValue(s->hx, &s->o);  // Eq. 20
  SigmoidInPlace(&s->o);
  s->h = s->c;  // Eq. 21
  TanhInPlace(&s->h);
  s->h.MulInPlace(s->o);
}

std::vector<Var> LstmCell::Parameters() const {
  return CollectParameters(
      {&forget_gate_, &input_gate_, &candidate_, &output_gate_});
}

Var Lstm::InitialState() const {
  return tensor::Constant(tensor::Tensor({1, cell_.hidden_size()}));
}

Var Lstm::ForwardAll(const Var& sequence) const {
  BA_CHECK_EQ(sequence->value.rank(), 2);
  BA_CHECK_EQ(sequence->value.dim(1), cell_.input_size());
  const int64_t t_steps = sequence->value.dim(0);
  BA_CHECK_GT(t_steps, 0);
  Var h = InitialState();
  Var c = InitialState();
  std::vector<Var> hiddens;
  hiddens.reserve(static_cast<size_t>(t_steps));
  for (int64_t t = 0; t < t_steps; ++t) {
    const Var x = tensor::SliceRows(sequence, t, t + 1);
    std::tie(h, c) = cell_.Step(x, h, c);
    hiddens.push_back(h);
  }
  return tensor::ConcatRows(hiddens);
}

Var Lstm::ForwardLast(const Var& sequence) const {
  const Var all = ForwardAll(sequence);
  const int64_t t_steps = all->value.dim(0);
  return tensor::SliceRows(all, t_steps - 1, t_steps);
}

const tensor::Tensor& Lstm::ForwardLastValue(const tensor::Tensor& sequence,
                                             LstmScratch* scratch) const {
  BA_CHECK_EQ(sequence.rank(), 2);
  BA_CHECK_EQ(sequence.dim(1), cell_.input_size());
  const int64_t t_steps = sequence.dim(0);
  BA_CHECK_GT(t_steps, 0);
  scratch->h.Resize(1, cell_.hidden_size());
  scratch->c.Resize(1, cell_.hidden_size());
  for (int64_t t = 0; t < t_steps; ++t) {
    cell_.StepValue(sequence.data() + t * cell_.input_size(), scratch);
  }
  return scratch->h;
}

Var ReverseRows(const Var& sequence) {
  const int64_t t_steps = sequence->value.dim(0);
  std::vector<Var> rows;
  rows.reserve(static_cast<size_t>(t_steps));
  for (int64_t t = t_steps - 1; t >= 0; --t) {
    rows.push_back(tensor::SliceRows(sequence, t, t + 1));
  }
  return tensor::ConcatRows(rows);
}

Var BiLstm::ForwardLast(const Var& sequence) const {
  const Var fwd = forward_.ForwardLast(sequence);
  const Var bwd = backward_.ForwardLast(ReverseRows(sequence));
  return tensor::ConcatCols({fwd, bwd});
}

void BiLstm::ForwardLastValue(const tensor::Tensor& sequence,
                              LstmScratch* scratch,
                              tensor::Tensor* out) const {
  const int64_t hidden = forward_.hidden_size();
  out->Resize(1, 2 * hidden);
  const tensor::Tensor& fwd = forward_.ForwardLastValue(sequence, scratch);
  std::copy(fwd.data(), fwd.data() + hidden, out->data());
  const int64_t t_steps = sequence.dim(0), width = sequence.dim(1);
  scratch->reversed.Resize(t_steps, width);
  for (int64_t t = 0; t < t_steps; ++t) {
    const float* row = sequence.data() + (t_steps - 1 - t) * width;
    std::copy(row, row + width, scratch->reversed.data() + t * width);
  }
  const tensor::Tensor& bwd =
      backward_.ForwardLastValue(scratch->reversed, scratch);
  std::copy(bwd.data(), bwd.data() + hidden, out->data() + hidden);
}

}  // namespace ba::nn
