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

#include <array>
#include <cstdint>
#include <utility>
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
    // The backward pass begin_backprop() set up: the upstream gradient, its
    // scale, the rows it runs on and what it forms.
    const double* dout = nullptr;
    double scale = 1.0;
    const int* rs = nullptr;
    int m = 0;
    bool grads = false, input_grad = false;
    // dact[l] = dLoss/d act[l] on the pass's rows (l = 0 only with
    // input_grad); scaled[l] = scale * dLoss/d act[l+1], the factor every
    // gradient of layer l starts from (only with grads).
    std::vector<std::vector<double>> dact, scaled;
    std::vector<int> all_rows;  // 0..rows-1, for whole-batch passes
  };

  /// Adam's hyperparameters and one step's bias corrections.
  struct AdamStep {
    double lr, beta1, beta2, bc1, bc2, eps;
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

  // --- Chunks (DESIGN.md §14.4) ---------------------------------------------
  // Each pass above is a loop over fixed chunks, exposed so that a caller can
  // run them on several threads (common/chunk_team.h). Chunks of one pass
  // write disjoint values, and every value is formed inside one chunk in its
  // whole-pass order, so running each chunk once, in any order and on any
  // thread, gives the pass's bits. Chunks neither allocate nor throw; the
  // begin/next calls that size and check run on the caller.

  /// Rows per forward or backprop chunk.
  static constexpr int kChunkRows = 8;

  /// Checks `cache` and returns its forward chunk count.
  int forward_chunks(const Cache& cache) const;
  /// Rows [8k, 8k+8) of the cache through every layer.
  void forward_chunk(Cache& cache, int k) const;

  /// Sets up a backward pass over `rows` (every row when null) from `dout`,
  /// as backward() (`grads`: parameter gradients, all rows only) or
  /// input_gradient() runs it, and returns its chunk count.
  int begin_backprop(Cache& cache, const double* dout, double scale,
                     const std::vector<int>* rows, bool grads, bool input_grad) const;
  /// Entries [8k, 8k+8) of the pass's row list down every layer: their
  /// deltas, their scaled deltas with `grads`, their input gradient (times
  /// the scale) with `input_grad`.
  void backprop_chunk(Cache& cache, int k) const;

  /// Parameter chunks: each layer's outputs in fixed blocks, with their
  /// weight rows and biases.
  int param_chunks() const { return static_cast<int>(blocks_.size()); }
  /// Adds block k's parameter gradients from the finished backprop in
  /// `cache`, rows in order.
  void grad_chunk(const Cache& cache, int k);
  /// Counts an Adam step and returns its bias corrections.
  AdamStep next_adam_step(double lr, double beta1 = 0.9, double beta2 = 0.999,
                          double eps = 1e-8);
  /// Adam on block k, zeroes its gradients and writes its mirror columns.
  void adam_chunk(const AdamStep& a, int k);
  /// Polyak update of block k from `other`'s, and its mirror columns.
  void polyak_chunk(const Mlp& other, double tau, int k);

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

  /// Outputs [o0, o1) of layer `layer`: one parameter chunk.
  struct Block {
    int layer, o0, o1;
  };

  /// Rewrites wt_ from params_, for the members that replace parameters
  /// wholesale; the chunked passes write their own columns.
  void rebuild_mirror();
  /// Block b's parameters as {offset, count} ranges: its weight rows, then
  /// its biases.
  std::array<std::pair<std::size_t, std::size_t>, 2> ranges(const Block& b) const;
  /// wt_'s columns [b.o0, b.o1) of b's layer from params_.
  void write_mirror(const Block& b);
  void check_shape(const Cache& cache) const;

  std::vector<int> sizes_;
  std::vector<Layer> layers_;
  std::vector<Block> blocks_;  // the parameter chunks, layer by layer
  std::vector<double> params_;
  std::vector<double> wt_;  // input-major weight mirror for forward()
  std::vector<double> grads_;
  std::vector<double> adam_m_, adam_v_;
  std::uint64_t adam_t_ = 0;
  SimdLevel level_ = host_simd_level();
};

}  // namespace mtat
