// Minimal dense neural network with manual backpropagation and Adam.
//
// This is the substrate under the Soft Actor-Critic agent of PP-M (the paper
// implements PP-M in PyTorch; we implement the same few-thousand-parameter
// MLPs from scratch — see DESIGN.md §1). Double precision, ReLU hidden
// layers, linear output. Gradients accumulate into per-parameter buffers so a
// caller can sum several loss terms before one optimizer step; correctness is
// pinned by numerical-gradient tests in tests/rl_test.cc.
//
// Every pass works on a batch: row-major `rows × width` activations held in
// a reusable Cache. The kernels are register-blocked across outputs and rows
// but keep each value's operation order fixed, so a row's result does not
// depend on the batch it ran in (DESIGN.md §14.4).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace mtat {

class Mlp {
 public:
  /// `sizes` = {in, hidden..., out}. Weights use He initialization.
  Mlp(std::vector<int> sizes, Rng& rng);

  /// One batch's activations, retained for backward(): act[0] is the input
  /// block, act[L] the output block, each `rows × width` row-major. Buffers
  /// keep their capacity, so a steady batch size allocates nothing.
  struct Cache {
    int rows = 0;
    std::vector<std::vector<double>> act;
    std::vector<double> delta, dprev, scaled;  // backward scratch
    std::vector<int> all_rows;  // 0..rows-1, for whole-batch passes
  };

  /// Sizes `cache` for `rows` samples and returns the `rows × input_dim()`
  /// input block for the caller to fill.
  double* input(Cache& cache, int rows) const;

  /// Runs the input block through the net; returns the `rows × output_dim()`
  /// output block. Each output sums its bias, then its inputs in ascending
  /// order.
  const double* forward(Cache& cache) const;

  /// Plain inference on one sample (a batch of one).
  std::vector<double> forward(const std::vector<double>& x) const;

  /// Backpropagates dLoss/dOutput (`rows × output_dim()`) for every row of
  /// the forward pass in `cache`. Accumulates parameter gradients scaled by
  /// `scale` (e.g. 1/batch), taking rows in order, and returns dLoss/dInput
  /// (`rows × input_dim()`, scaled the same way) — SAC's actor update
  /// differentiates the critic with respect to the action.
  const double* backward(Cache& cache, const double* dout, double scale = 1.0);

  /// dLoss/dInput alone, as backward() returns it, for the rows listed in
  /// `rows` (every row when null); other rows of the result are unspecified.
  /// Writes no parameter gradient.
  const double* input_gradient(Cache& cache, const double* dout, double scale,
                               const std::vector<int>* rows = nullptr) const;

  /// One Adam step over the accumulated gradients, then zero them.
  void adam_step(double lr, double beta1 = 0.9, double beta2 = 0.999, double eps = 1e-8);

  void zero_grad();

  /// Hard-copy parameters (target-network initialization).
  void copy_parameters_from(const Mlp& other);
  /// Polyak update: p = tau * other + (1 - tau) * p.
  void soft_update_from(const Mlp& other, double tau);

  int input_dim() const { return sizes_.front(); }
  int output_dim() const { return sizes_.back(); }
  std::size_t parameter_count() const { return params_.size(); }

  /// Raw parameter access for tests (weights then biases, layer by layer).
  std::vector<double>& parameters() { return params_; }
  const std::vector<double>& parameters() const { return params_; }
  const std::vector<double>& gradients() const { return grads_; }

  /// Checkpoint codec (common/state_archive.h): parameters, gradients and
  /// the Adam moments and step. The shape is the config's.
  template <class Ar>
  void persist(Ar& ar) {
    ar.fixed(params_);
    ar.fixed(grads_);
    ar.fixed(adam_m_);
    ar.fixed(adam_v_);
    ar(adam_t_);
  }

 private:
  struct Layer {
    std::size_t w_off;  // into params_: out x in row-major weights
    std::size_t b_off;  // then out biases
    int in, out;
  };

  void check_shape(const Cache& cache) const;
  const double* backprop(Cache& cache, const double* dout, double scale,
                         const std::vector<int>* rows, double* grads) const;

  std::vector<int> sizes_;
  std::vector<Layer> layers_;
  std::vector<double> params_;
  std::vector<double> grads_;
  std::vector<double> adam_m_, adam_v_;
  std::uint64_t adam_t_ = 0;
};

}  // namespace mtat
