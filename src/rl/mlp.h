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
// and run at the host's widest vector level (common/simd_level.h), but keep
// each value's operation order fixed and never fuse a product into its sum,
// so a row's result depends neither on the batch it ran in nor on the level
// (DESIGN.md §14.4).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/simd_level.h"

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
  /// differentiates the critic with respect to the action. With
  /// `input_grad` false the first layer's input gradient is not formed and
  /// the result is null; the parameter gradients are the same.
  const double* backward(Cache& cache, const double* dout, double scale = 1.0,
                         bool input_grad = true);

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

  /// Parameters (weights then biases, layer by layer), read-only.
  const std::vector<double>& parameters() const { return params_; }
  const std::vector<double>& gradients() const { return grads_; }
  /// Parameter writes for tests; the next pass sees them. set_parameters()
  /// throws std::invalid_argument unless `p` has parameter_count() values.
  void set_parameters(std::vector<double> p);
  void set_parameter(std::size_t i, double v);

  /// The vector level this net's kernels run at: the host's widest unless a
  /// test forced another. Every level gives bit-identical results.
  SimdLevel simd_level() const { return level_; }
  /// Forces `level`; throws std::invalid_argument if the host lacks it.
  void set_simd_level(SimdLevel level);

  /// Checkpoint codec (common/state_archive.h): parameters, gradients and
  /// the Adam moments and step. The shape is the config's.
  template <class Ar>
  void persist(Ar& ar) {
    ar.fixed(params_);
    ar.fixed(grads_);
    ar.fixed(adam_m_);
    ar.fixed(adam_v_);
    ar(adam_t_);
    if (ar.loading()) rebuild_mirror();
  }

 private:
  struct Layer {
    std::size_t w_off;  // into params_: out x in row-major weights
    std::size_t b_off;  // then out biases
    std::size_t t_off;  // into wt_: the same weights, in x out row-major
    int in, out;
  };

  /// Rewrites wt_ from params_; every member that writes params_ calls it.
  void rebuild_mirror();
  void check_shape(const Cache& cache) const;
  const double* backprop(Cache& cache, const double* dout, double scale,
                         const std::vector<int>* rows, double* grads, bool input_grad) const;

  std::vector<int> sizes_;
  std::vector<Layer> layers_;
  std::vector<double> params_;
  std::vector<double> wt_;  // input-major weight mirror for forward()
  std::vector<double> grads_;
  std::vector<double> adam_m_, adam_v_;
  std::uint64_t adam_t_ = 0;
  SimdLevel level_ = host_simd_level();
};

}  // namespace mtat
