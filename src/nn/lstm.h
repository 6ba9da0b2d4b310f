#pragma once

#include <vector>

#include "nn/linear.h"
#include "nn/module.h"

/// \file lstm.h
/// \brief LSTM (Eq. 16-21) and bidirectional LSTM sequence encoders for
/// the address-classification stage (§III-C): an address's chronological
/// list of graph embeddings is folded into one vector.

namespace ba::nn {

/// \brief Caller-owned buffers of the value-level LSTM forward; a
/// reused scratch allocates only when a width grows.
struct LstmScratch {
  tensor::Tensor hx;                ///< [h_{t-1}, x_t]
  tensor::Tensor f, i, c_tilde, o;  ///< gate activations
  tensor::Tensor h, c;              ///< the state, updated in place
  tensor::Tensor reversed;          ///< BiLstm's reversed sequence
};

/// \brief A single LSTM cell with the paper's gate structure
/// (forget/input/output gates over [h_{t-1}, x_t], Eq. 16-21).
class LstmCell : public Module {
 public:
  LstmCell(int64_t input_size, int64_t hidden_size, Rng* rng);

  int64_t input_size() const { return input_size_; }
  int64_t hidden_size() const { return hidden_size_; }

  /// One step: consumes x_t (1, input), (h, c) each (1, hidden);
  /// returns the new (h, c).
  std::pair<Var, Var> Step(const Var& x, const Var& h, const Var& c) const;

  /// Value-level inference twin of Step: consumes the `input_size`
  /// floats of x_t and advances `scratch->h`, `scratch->c` in place,
  /// bit-identical to Step.
  void StepValue(const float* x, LstmScratch* scratch) const;

  std::vector<Var> Parameters() const override;

 private:
  int64_t input_size_;
  int64_t hidden_size_;
  // Gate weights over the concatenated [h_{t-1}, x_t] (Eq. 16-18, 20).
  Linear forget_gate_;
  Linear input_gate_;
  Linear candidate_;
  Linear output_gate_;
};

/// \brief Unidirectional LSTM over a (T, input) sequence.
class Lstm : public Module {
 public:
  Lstm(int64_t input_size, int64_t hidden_size, Rng* rng)
      : cell_(input_size, hidden_size, rng) {}

  int64_t hidden_size() const { return cell_.hidden_size(); }

  /// Runs the full sequence; returns all hidden states stacked (T, hidden).
  Var ForwardAll(const Var& sequence) const;

  /// Runs the full sequence; returns the final hidden state (1, hidden).
  Var ForwardLast(const Var& sequence) const;

  /// Value-level inference twin of ForwardLast, bit-identical to it.
  /// Returns `scratch->h`.
  const tensor::Tensor& ForwardLastValue(const tensor::Tensor& sequence,
                                         LstmScratch* scratch) const;

  std::vector<Var> Parameters() const override { return cell_.Parameters(); }

 private:
  Var InitialState() const;

  LstmCell cell_;
};

/// \brief Bidirectional LSTM: forward and reverse passes concatenated,
/// the BiLSTM+MLP comparator of Table III.
class BiLstm : public Module {
 public:
  BiLstm(int64_t input_size, int64_t hidden_size, Rng* rng)
      : forward_(input_size, hidden_size, rng),
        backward_(input_size, hidden_size, rng) {}

  /// Output feature width (2 * hidden).
  int64_t output_size() const { return 2 * forward_.hidden_size(); }

  /// Concatenated [h_fwd_last, h_bwd_last], shape (1, 2*hidden).
  Var ForwardLast(const Var& sequence) const;

  /// Value-level inference twin of ForwardLast into `out`, resized to
  /// (1, 2*hidden), bit-identical to it.
  void ForwardLastValue(const tensor::Tensor& sequence, LstmScratch* scratch,
                        tensor::Tensor* out) const;

  std::vector<Var> Parameters() const override {
    std::vector<Var> out = forward_.Parameters();
    auto b = backward_.Parameters();
    out.insert(out.end(), b.begin(), b.end());
    return out;
  }

 private:
  Lstm forward_;
  Lstm backward_;
};

/// Reverses the row order of a (T, d) sequence (constant-capable op).
Var ReverseRows(const Var& sequence);

}  // namespace ba::nn
