#include "rl/mlp.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace mtat {

Mlp::Mlp(std::vector<int> sizes, Rng& rng) : sizes_(std::move(sizes)) {
  if (sizes_.size() < 2) throw std::invalid_argument("Mlp: need at least in/out sizes");
  for (int s : sizes_)
    if (s <= 0) throw std::invalid_argument("Mlp: layer sizes must be positive");
  std::size_t off = 0;
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
    Layer layer;
    layer.in = sizes_[l];
    layer.out = sizes_[l + 1];
    layer.w_off = off;
    off += static_cast<std::size_t>(layer.in) * layer.out;
    layer.b_off = off;
    off += layer.out;
    layers_.push_back(layer);
  }
  params_.resize(off);
  grads_.assign(off, 0.0);
  adam_m_.assign(off, 0.0);
  adam_v_.assign(off, 0.0);
  for (const Layer& l : layers_) {
    const double stddev = std::sqrt(2.0 / l.in);  // He init for ReLU nets
    for (int i = 0; i < l.in * l.out; ++i)
      params_[l.w_off + i] = rng.next_gaussian() * stddev;
    for (int i = 0; i < l.out; ++i) params_[l.b_off + i] = 0.0;
  }
}

namespace {

// The kernels below block several outputs, rows or inputs into independent
// accumulators so the adds overlap instead of waiting on one serial chain,
// and process two adjacent values per instruction. Neither changes what any
// single value sums or in what order, so a row's result is bit-identical to
// running that row alone.

// Two doubles, operated on lane by lane: each lane computes exactly what the
// scalar expression would (IEEE mul and add, no contraction on the x86-64
// baseline, which has no FMA).
using v2d = double __attribute__((vector_size(16)));

v2d load2(const double* p) {
  v2d v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
void store2(double* p, v2d v) { std::memcpy(p, &v, sizeof v); }
v2d splat(double x) { return v2d{x, x}; }

// ReLU on hidden layers, identity on the output layer.
double activate(double sum, bool relu) { return relu && sum < 0.0 ? 0.0 : sum; }

// Forward for kR rows x 2*kP outputs: y[r][o] = b[o] + w[o][0]*x[r][0] + ...,
// inputs in ascending order. Accumulator k holds row k / kP, output pair
// k % kP. `w` is the first output's weight row, `x` the first row's input, `y`
// the first (row, output) cell.
template <int kR, int kP>
void forward_pairs(const double* w, const double* b, const double* x, double* y, int in,
                   int out, bool relu) {
  constexpr int kN = kR * kP;
  v2d acc[kN];
#pragma GCC unroll 8
  for (int k = 0; k < kN; ++k) acc[k] = load2(b + 2 * (k % kP));
  for (int i = 0; i < in; ++i) {
    v2d wv[kP];
#pragma GCC unroll 8
    for (int p = 0; p < kP; ++p) wv[p] = v2d{w[2 * p * in + i], w[(2 * p + 1) * in + i]};
#pragma GCC unroll 8
    for (int k = 0; k < kN; ++k) acc[k] += wv[k % kP] * splat(x[k / kP * in + i]);
  }
#pragma GCC unroll 8
  for (int k = 0; k < kN; ++k) {
    double* yk = y + k / kP * out + 2 * (k % kP);
    yk[0] = activate(acc[k][0], relu);
    yk[1] = activate(acc[k][1], relu);
  }
}

// The same for kR rows x one output (odd widths, the critics' output layer).
template <int kR>
void forward_single(const double* w, const double* b, const double* x, double* y, int in,
                    int out, bool relu) {
  double acc[kR];
#pragma GCC unroll 8
  for (int r = 0; r < kR; ++r) acc[r] = *b;
  for (int i = 0; i < in; ++i) {
#pragma GCC unroll 8
    for (int r = 0; r < kR; ++r) acc[r] += w[i] * x[r * in + i];
  }
#pragma GCC unroll 8
  for (int r = 0; r < kR; ++r) y[r * out] = activate(acc[r], relu);
}

// Weight gradient for kO outputs x 2*kV inputs: g[o][i] += s[r][o] * a[r][i]
// with s = scale * dLoss/dOutput, rows in order. Accumulator k holds output
// k / kV, input pair k % kV. `g` is the first weight's gradient, `s` the first
// output's column, `a` the first input's column.
template <int kO, int kV>
void grad_pairs(double* g, const double* s, const double* a, int rows, int in, int out) {
  constexpr int kN = kO * kV;
  v2d acc[kN];
#pragma GCC unroll 8
  for (int k = 0; k < kN; ++k) acc[k] = load2(g + k / kV * in + 2 * (k % kV));
  for (int r = 0; r < rows; ++r) {
    v2d av[kV];
#pragma GCC unroll 8
    for (int v = 0; v < kV; ++v) av[v] = load2(a + r * in + 2 * v);
#pragma GCC unroll 8
    for (int k = 0; k < kN; ++k) acc[k] += splat(s[r * out + k / kV]) * av[k % kV];
  }
#pragma GCC unroll 8
  for (int k = 0; k < kN; ++k) store2(g + k / kV * in + 2 * (k % kV), acc[k]);
}

// The same for kO outputs x one input (odd input widths).
template <int kO>
void grad_single(double* g, const double* s, const double* a, int rows, int in, int out) {
  double acc[kO];
#pragma GCC unroll 8
  for (int o = 0; o < kO; ++o) acc[o] = g[o * in];
  for (int r = 0; r < rows; ++r) {
#pragma GCC unroll 8
    for (int o = 0; o < kO; ++o) acc[o] += s[r * out + o] * a[r * in];
  }
#pragma GCC unroll 8
  for (int o = 0; o < kO; ++o) g[o * in] = acc[o];
}

template <int kO>
void grad_outputs(double* g, const double* s, const double* a, int rows, int in, int out) {
  int i = 0;
  for (; i + 8 <= in; i += 8) grad_pairs<kO, 4>(g + i, s, a + i, rows, in, out);
  for (; i + 2 <= in; i += 2) grad_pairs<kO, 1>(g + i, s, a + i, rows, in, out);
  if (i < in) grad_single<kO>(g + i, s, a + i, rows, in, out);
}

// Input gradient for rows rs[0..kR) x 2*kV inputs from i0: dp[r][i] = 0.0 +
// d[r][0]*w[0][i] + d[r][1]*w[1][i] + ..., outputs in order. Accumulator k
// holds row rs[k / kV], input pair k % kV.
template <int kR, int kV>
void input_grad_pairs(const int* rs, const double* d, const double* w, double* dp, int i0,
                      int in, int out) {
  constexpr int kN = kR * kV;
  v2d acc[kN] = {};
  for (int o = 0; o < out; ++o) {
    v2d wv[kV];
#pragma GCC unroll 8
    for (int v = 0; v < kV; ++v) wv[v] = load2(w + o * in + i0 + 2 * v);
#pragma GCC unroll 8
    for (int k = 0; k < kN; ++k) acc[k] += splat(d[rs[k / kV] * out + o]) * wv[k % kV];
  }
#pragma GCC unroll 8
  for (int k = 0; k < kN; ++k) store2(dp + rs[k / kV] * in + i0 + 2 * (k % kV), acc[k]);
}

// The same for kR rows x one input (odd input widths).
template <int kR>
void input_grad_single(const int* rs, const double* d, const double* w, double* dp, int i0,
                       int in, int out) {
  double acc[kR] = {};
  for (int o = 0; o < out; ++o) {
#pragma GCC unroll 8
    for (int r = 0; r < kR; ++r) acc[r] += d[rs[r] * out + o] * w[o * in + i0];
  }
#pragma GCC unroll 8
  for (int r = 0; r < kR; ++r) dp[rs[r] * in + i0] = acc[r];
}

template <int kR>
void input_grad_rows(const int* rs, const double* d, const double* w, double* dp, int in,
                     int out) {
  int i = 0;
  for (; i + 8 <= in; i += 8) input_grad_pairs<kR, 4>(rs, d, w, dp, i, in, out);
  for (; i + 2 <= in; i += 2) input_grad_pairs<kR, 1>(rs, d, w, dp, i, in, out);
  if (i < in) input_grad_single<kR>(rs, d, w, dp, i, in, out);
}

}  // namespace

double* Mlp::input(Cache& cache, int rows) const {
  cache.rows = rows;
  cache.act.resize(sizes_.size());
  for (std::size_t l = 0; l < sizes_.size(); ++l)
    cache.act[l].resize(static_cast<std::size_t>(rows) * sizes_[l]);
  return cache.act[0].data();
}

void Mlp::check_shape(const Cache& cache) const {
  bool ok = cache.act.size() == sizes_.size();
  for (std::size_t l = 0; ok && l < sizes_.size(); ++l)
    ok = cache.act[l].size() == static_cast<std::size_t>(cache.rows) * sizes_[l];
  if (!ok) throw std::invalid_argument("Mlp: cache not sized by input() for this net");
}

const double* Mlp::forward(Cache& cache) const {
  check_shape(cache);
  const int n = cache.rows;
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const Layer& l = layers_[li];
    const double* w = &params_[l.w_off];
    const double* b = &params_[l.b_off];
    const double* x = cache.act[li].data();
    double* y = cache.act[li + 1].data();
    const bool relu = li + 1 < layers_.size();
    const auto run = [&](auto kernel, int o, int r) {
      kernel(w + o * l.in, b + o, x + r * l.in, y + r * l.out + o, l.in, l.out, relu);
    };
    // Wide layers: 2 rows x 8 outputs per block, then output pairs; a last
    // odd output (and the critics' one-wide output layer) 4 rows at a time.
    int o = 0;
    for (; o + 8 <= l.out; o += 8) {
      int r = 0;
      for (; r + 2 <= n; r += 2) run(forward_pairs<2, 4>, o, r);
      if (r < n) run(forward_pairs<1, 4>, o, r);
    }
    for (; o + 2 <= l.out; o += 2) {
      int r = 0;
      for (; r + 2 <= n; r += 2) run(forward_pairs<2, 1>, o, r);
      if (r < n) run(forward_pairs<1, 1>, o, r);
    }
    if (o < l.out) {
      int r = 0;
      for (; r + 4 <= n; r += 4) run(forward_single<4>, o, r);
      for (; r < n; ++r) run(forward_single<1>, o, r);
    }
  }
  return cache.act.back().data();
}

std::vector<double> Mlp::forward(const std::vector<double>& x) const {
  if (static_cast<int>(x.size()) != input_dim())
    throw std::invalid_argument("Mlp: input size mismatch");
  Cache cache;
  std::copy(x.begin(), x.end(), input(cache, 1));
  const double* y = forward(cache);
  return std::vector<double>(y, y + output_dim());
}

const double* Mlp::backward(Cache& cache, const double* dout, double scale) {
  return backprop(cache, dout, scale, nullptr, grads_.data());
}

const double* Mlp::input_gradient(Cache& cache, const double* dout, double scale,
                                  const std::vector<int>* rows) const {
  return backprop(cache, dout, scale, rows, nullptr);
}

const double* Mlp::backprop(Cache& cache, const double* dout, double scale,
                            const std::vector<int>* rows, double* grads) const {
  check_shape(cache);
  const int n = cache.rows;
  if (rows == nullptr) {
    cache.all_rows.resize(n);
    for (int r = 0; r < n; ++r) cache.all_rows[r] = r;
    rows = &cache.all_rows;
  }
  for (const int r : *rows)
    if (r < 0 || r >= n) throw std::invalid_argument("Mlp: row outside the batch");
  const int* rs = rows->data();
  const int m = static_cast<int>(rows->size());
  cache.delta.assign(dout, dout + static_cast<std::size_t>(n) * output_dim());
  for (std::size_t li = layers_.size(); li-- > 0;) {
    const Layer& l = layers_[li];
    const double* a_in = cache.act[li].data();
    const double* a_out = cache.act[li + 1].data();
    double* d = cache.delta.data();
    // ReLU derivative on hidden layers: zero where the activation was clamped.
    if (li + 1 < layers_.size())
      for (int j = 0; j < m; ++j)
        for (int o = rs[j] * l.out, e = o + l.out; o < e; ++o)
          if (a_out[o] <= 0.0) d[o] = 0.0;
    if (grads != nullptr) {
      // s[r][o] = scale * d[r][o], the factor every gradient term of (r, o)
      // starts from.
      cache.scaled.resize(static_cast<std::size_t>(n) * l.out);
      double* sd = cache.scaled.data();
      for (int k = 0; k < n * l.out; ++k) sd[k] = scale * d[k];
      double* gb = grads + l.b_off;
      for (int r = 0; r < n; ++r)
        for (int o = 0; o < l.out; ++o) gb[o] += sd[r * l.out + o];
      double* gw = grads + l.w_off;
      int o = 0;
      for (; o + 2 <= l.out; o += 2) grad_outputs<2>(gw + o * l.in, sd + o, a_in, n, l.in, l.out);
      if (o < l.out) grad_outputs<1>(gw + o * l.in, sd + o, a_in, n, l.in, l.out);
    }
    cache.dprev.resize(static_cast<std::size_t>(n) * l.in);
    const double* w = &params_[l.w_off];
    int j = 0;
    for (; j + 2 <= m; j += 2) input_grad_rows<2>(rs + j, d, w, cache.dprev.data(), l.in, l.out);
    for (; j < m; ++j) input_grad_rows<1>(rs + j, d, w, cache.dprev.data(), l.in, l.out);
    std::swap(cache.delta, cache.dprev);
  }
  // The returned input gradient carries `scale` too, matching the parameter
  // gradients' scaling so chained backward passes stay consistent.
  if (scale != 1.0) {
    const int in = input_dim();
    for (int j = 0; j < m; ++j)
      for (int i = rs[j] * in, e = i + in; i < e; ++i) cache.delta[i] *= scale;
  }
  return cache.delta.data();
}

void Mlp::adam_step(double lr, double beta1, double beta2, double eps) {
  ++adam_t_;
  const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(adam_t_));
  const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(adam_t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    adam_m_[i] = beta1 * adam_m_[i] + (1.0 - beta1) * grads_[i];
    adam_v_[i] = beta2 * adam_v_[i] + (1.0 - beta2) * grads_[i] * grads_[i];
    params_[i] -= lr * (adam_m_[i] / bc1) / (std::sqrt(adam_v_[i] / bc2) + eps);
  }
  zero_grad();
}

void Mlp::zero_grad() { std::fill(grads_.begin(), grads_.end(), 0.0); }

void Mlp::copy_parameters_from(const Mlp& other) {
  if (other.params_.size() != params_.size())
    throw std::invalid_argument("Mlp: shape mismatch in copy");
  params_ = other.params_;
}

void Mlp::soft_update_from(const Mlp& other, double tau) {
  if (other.params_.size() != params_.size())
    throw std::invalid_argument("Mlp: shape mismatch in soft update");
  for (std::size_t i = 0; i < params_.size(); ++i)
    params_[i] = tau * other.params_[i] + (1.0 - tau) * params_[i];
}

}  // namespace mtat
