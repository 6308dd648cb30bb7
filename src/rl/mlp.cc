#include "rl/mlp.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <immintrin.h>
#include <stdexcept>
#include <string>
#include <utility>

namespace mtat {
namespace {
constexpr int kBlockWeights = 512;
}  // namespace

Mlp::Mlp(std::vector<int> sizes, Rng& rng) : sizes_(std::move(sizes)) {
  if (sizes_.size() < 2) throw std::invalid_argument("Mlp: need at least in/out sizes");
  for (int s : sizes_)
    if (s <= 0) throw std::invalid_argument("Mlp: layer sizes must be positive");
  std::size_t off = 0, t_off = 0;
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
    Layer layer;
    layer.in = sizes_[l];
    layer.out = sizes_[l + 1];
    layer.w_off = off;
    layer.t_off = t_off;
    off += static_cast<std::size_t>(layer.in) * layer.out;
    t_off += static_cast<std::size_t>(layer.in) * layer.out;
    layer.b_off = off;
    off += layer.out;
    layers_.push_back(layer);
    // About 512 weights a block: the critics' 64x64 layer splits in eight,
    // the narrow input and output layers stay whole.
    const int per = std::max(1, kBlockWeights / layer.in);
    for (int o = 0; o < layer.out; o += per)
      blocks_.push_back({static_cast<int>(l), o, std::min(o + per, layer.out)});
  }
  params_.resize(off);
  wt_.resize(t_off);
  grads_.assign(off, 0.0);
  adam_m_.assign(off, 0.0);
  adam_v_.assign(off, 0.0);
  for (const Layer& l : layers_) {
    const double stddev = std::sqrt(2.0 / l.in);  // He init for ReLU nets
    for (int i = 0; i < l.in * l.out; ++i)
      params_[l.w_off + i] = rng.next_gaussian() * stddev;
    for (int i = 0; i < l.out; ++i) params_[l.b_off + i] = 0.0;
  }
  rebuild_mirror();
}

namespace {

// The kernels below run one template per direction at the host's vector
// width. Each blocks several outputs, rows or inputs into independent
// accumulators so the adds overlap instead of waiting on one serial chain,
// and operates on kLanes<V> adjacent values per instruction, lane by lane:
// each lane computes exactly what the scalar expression would. Neither
// changes what any single value sums or in what order, so a row's result is
// bit-identical to running that row alone, at any level. Widths that do not
// fill a vector finish through the same template at narrower lane types,
// down to V = double.
//
// No product may fuse into its sum: AVX-512F hosts have FMA, and GCC
// contracts a*b + c into one rounding by default. Contraction is switched
// off here in the source, so every build of this file compiles the same
// arithmetic (the mlp_no_fma ctest disassembles the library to check).
#if defined(__clang__)
#pragma clang fp contract(off)
#else
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")
#endif

using AdamStep = Mlp::AdamStep;

// One level's kernels (the arguments are documented at the templates).
struct Kernels {
  void (*forward)(const double* wt, const double* b, const double* x, double* y, int n, int in,
                  int out, bool relu);
  void (*weight_grad)(double* g, const double* s, const double* a, int n, int in, int out,
                      int o0, int o1);
  void (*input_grad)(const int* rs, int m, const double* d, const double* w, const double* a,
                     double* dp, int in, int out, bool relu);
  void (*adam)(double* p, double* m, double* v, const double* g, std::size_t n,
               const AdamStep& a);
  void (*polyak)(double* p, const double* q, std::size_t n, double tau);
};

// The lane type of kL doubles, and the one of half its width: a width that
// does not fill a vector finishes in narrower ones, down to a scalar.
template <int kL>
struct Lanes {
  // The typedef form: GCC drops vector_size from a dependent alias-declaration.
  typedef double type __attribute__((vector_size(8 * kL)));
};
template <>
struct Lanes<1> {
  using type = double;
};
template <class V>
constexpr int kLanes = sizeof(V) / sizeof(double);
template <class V>
using Half = typename Lanes<kLanes<V> / 2>::type;

template <class V>
[[gnu::always_inline]] inline void load(V& v, const double* p) {
  std::memcpy(&v, p, sizeof v);
}
template <class V>
[[gnu::always_inline]] inline void store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

// Forward for kR rows x kV vectors of outputs: y[r][o] = b[o] + wt[0][o] *
// x[r][0] + ..., inputs in ascending order; ReLU on hidden layers. `wt` is
// the input-major weight mirror at the first output's column (row stride
// `out`), so every weight load is contiguous; `x` is the first row's input,
// `y` the first (row, output) cell.
template <class V, int kR, int kV>
[[gnu::always_inline]] inline void forward_block(const double* wt, const double* b,
                                                 const double* x, double* y, int in, int out,
                                                 bool relu) {
  constexpr int kL = kLanes<V>;
  V acc[kR][kV];
#pragma GCC unroll 8
  for (int r = 0; r < kR; ++r)
#pragma GCC unroll 8
    for (int v = 0; v < kV; ++v) load(acc[r][v], b + v * kL);
  for (int i = 0; i < in; ++i) {
    V wv[kV];
#pragma GCC unroll 8
    for (int v = 0; v < kV; ++v) load(wv[v], wt + i * out + v * kL);
#pragma GCC unroll 8
    for (int r = 0; r < kR; ++r) {
      const double xi = x[r * in + i];
#pragma GCC unroll 8
      for (int v = 0; v < kV; ++v) acc[r][v] += wv[v] * xi;
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < kR; ++r)
#pragma GCC unroll 8
    for (int v = 0; v < kV; ++v) {
      if (relu) acc[r][v] = acc[r][v] < 0.0 ? V{} : acc[r][v];
      store(y + r * out + v * kL, acc[r][v]);
    }
}

// Every row of the batch for kV vectors of outputs: kR rows at a time, then
// one.
template <class V, int kR, int kV>
[[gnu::always_inline]] inline void forward_rows(const double* wt, const double* b,
                                                const double* x, double* y, int n, int in,
                                                int out, bool relu) {
  int r = 0;
  for (; r + kR <= n; r += kR)
    forward_block<V, kR, kV>(wt, b, x + r * in, y + r * out, in, out, relu);
  for (; r < n; ++r) forward_block<V, 1, kV>(wt, b, x + r * in, y + r * out, in, out, relu);
}

// Outputs from `o` that fill no 4-vector block: single vectors of V, then of
// each narrower width down to a scalar (the critics' one-wide and the
// actor's two-wide output layers end here), 8 rows at a time.
template <class V>
[[gnu::always_inline]] inline void forward_tail(const double* wt, const double* b,
                                                const double* x, double* y, int n, int in,
                                                int out, bool relu, int o) {
  constexpr int kL = kLanes<V>;
  for (; o + kL <= out; o += kL) forward_rows<V, 8, 1>(wt + o, b + o, x, y + o, n, in, out, relu);
  if constexpr (kL > 1) forward_tail<Half<V>>(wt, b, x, y, n, in, out, relu, o);
}

// One layer's forward over `n` rows: 2 rows x 4 vectors of outputs per block,
// then the tail.
template <class V>
[[gnu::always_inline]] inline void forward_layer(const double* wt, const double* b,
                                                 const double* x, double* y, int n, int in,
                                                 int out, bool relu) {
  constexpr int kL = kLanes<V>;
  int o = 0;
  for (; o + 4 * kL <= out; o += 4 * kL)
    forward_rows<V, 2, 4>(wt + o, b + o, x, y + o, n, in, out, relu);
  forward_tail<V>(wt, b, x, y, n, in, out, relu, o);
}

// Weight gradient for kO outputs x kV vectors of inputs: g[o][i] += s[r][o] *
// a[r][i] with s = scale * dLoss/dOutput, rows in order. `g` is the first
// weight's gradient, `s` the first output's column, `a` the first input's
// column.
template <class V, int kO, int kV>
[[gnu::always_inline]] inline void grad_block(double* g, const double* s, const double* a,
                                              int n, int in, int out) {
  constexpr int kL = kLanes<V>;
  V acc[kO][kV];
#pragma GCC unroll 8
  for (int o = 0; o < kO; ++o)
#pragma GCC unroll 8
    for (int v = 0; v < kV; ++v) load(acc[o][v], g + o * in + v * kL);
  for (int r = 0; r < n; ++r) {
    V av[kV];
#pragma GCC unroll 8
    for (int v = 0; v < kV; ++v) load(av[v], a + r * in + v * kL);
#pragma GCC unroll 8
    for (int o = 0; o < kO; ++o) {
      const double so = s[r * out + o];
#pragma GCC unroll 8
      for (int v = 0; v < kV; ++v) acc[o][v] += so * av[v];
    }
  }
#pragma GCC unroll 8
  for (int o = 0; o < kO; ++o)
#pragma GCC unroll 8
    for (int v = 0; v < kV; ++v) store(g + o * in + v * kL, acc[o][v]);
}

// Inputs from `i` that fill no 4-vector block: single vectors of V, then of
// each narrower width down to a scalar (the 3- and 4-wide state inputs end
// here), 8 outputs at a time.
template <class V>
[[gnu::always_inline]] inline void grad_tail(double* g, const double* s, const double* a, int n,
                                             int in, int out, int o0, int o1, int i) {
  constexpr int kL = kLanes<V>;
  for (; i + kL <= in; i += kL) {
    int o = o0;
    for (; o + 8 <= o1; o += 8) grad_block<V, 8, 1>(g + o * in + i, s + o, a + i, n, in, out);
    for (; o < o1; ++o) grad_block<V, 1, 1>(g + o * in + i, s + o, a + i, n, in, out);
  }
  if constexpr (kL > 1) grad_tail<Half<V>>(g, s, a, n, in, out, o0, o1, i);
}

// One layer's weight gradient over `n` rows for outputs [o0, o1): 2 outputs
// x 4 vectors of inputs per block, then the tail. `g` is the layer's first
// weight gradient, `s` its first row of scaled deltas (row stride `out`).
template <class V>
[[gnu::always_inline]] inline void weight_grad(double* g, const double* s, const double* a,
                                               int n, int in, int out, int o0, int o1) {
  constexpr int kL = kLanes<V>;
  const int wide = in - in % (4 * kL);
  for (int i = 0; i < wide; i += 4 * kL) {
    int o = o0;
    for (; o + 2 <= o1; o += 2) grad_block<V, 2, 4>(g + o * in + i, s + o, a + i, n, in, out);
    if (o < o1) grad_block<V, 1, 4>(g + o * in + i, s + o, a + i, n, in, out);
  }
  grad_tail<V>(g, s, a, n, in, out, o0, o1, wide);
}

// Input gradient for rows rs[0..kR) x kV vectors of inputs: dp[r][i] = 0.0 +
// d[r][0] * w[0][i] + d[r][1] * w[1][i] + ..., outputs in order. When the
// input is a ReLU output (`relu`), dp is zeroed where it was clamped, a[r][i]
// <= 0, which makes it the previous layer's delta. `w` is the first input's
// column of the output-major weights, `a` and `dp` the first input's column
// of the input activations and of the result.
template <class V, int kR, int kV>
[[gnu::always_inline]] inline void input_grad_block(const int* rs, const double* d,
                                                    const double* w, const double* a,
                                                    double* dp, int in, int out, bool relu) {
  constexpr int kL = kLanes<V>;
  V acc[kR][kV] = {};
  for (int o = 0; o < out; ++o) {
    V wv[kV];
#pragma GCC unroll 8
    for (int v = 0; v < kV; ++v) load(wv[v], w + o * in + v * kL);
#pragma GCC unroll 8
    for (int r = 0; r < kR; ++r) {
      const double dr = d[rs[r] * out + o];
#pragma GCC unroll 8
      for (int v = 0; v < kV; ++v) acc[r][v] += dr * wv[v];
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < kR; ++r)
#pragma GCC unroll 8
    for (int v = 0; v < kV; ++v) {
      const int at = rs[r] * in + v * kL;
      if (relu) {
        V av;
        load(av, a + at);
        acc[r][v] = av <= 0.0 ? V{} : acc[r][v];
      }
      store(dp + at, acc[r][v]);
    }
}

// The rows listed in `rs` (`m` of them) for kV vectors of inputs: kR rows at
// a time, then one.
template <class V, int kR, int kV>
[[gnu::always_inline]] inline void input_grad_rows(const int* rs, int m, const double* d,
                                                   const double* w, const double* a, double* dp,
                                                   int in, int out, bool relu) {
  int j = 0;
  for (; j + kR <= m; j += kR) input_grad_block<V, kR, kV>(rs + j, d, w, a, dp, in, out, relu);
  for (; j < m; ++j) input_grad_block<V, 1, kV>(rs + j, d, w, a, dp, in, out, relu);
}

// Inputs from `i` that fill no 4-vector block: single vectors of V, then of
// each narrower width down to a scalar, 8 rows at a time.
template <class V>
[[gnu::always_inline]] inline void input_grad_tail(const int* rs, int m, const double* d,
                                                   const double* w, const double* a, double* dp,
                                                   int in, int out, bool relu, int i) {
  constexpr int kL = kLanes<V>;
  for (; i + kL <= in; i += kL)
    input_grad_rows<V, 8, 1>(rs, m, d, w + i, a + i, dp + i, in, out, relu);
  if constexpr (kL > 1) input_grad_tail<Half<V>>(rs, m, d, w, a, dp, in, out, relu, i);
}

// One layer's input gradient for the rows listed in `rs`: 2 rows x 4 vectors
// of inputs per block, then the tail.
template <class V>
[[gnu::always_inline]] inline void input_grad(const int* rs, int m, const double* d,
                                              const double* w, const double* a, double* dp,
                                              int in, int out, bool relu) {
  constexpr int kL = kLanes<V>;
  const int wide = in - in % (4 * kL);
  for (int i = 0; i < wide; i += 4 * kL)
    input_grad_rows<V, 2, 4>(rs, m, d, w + i, a + i, dp + i, in, out, relu);
  input_grad_tail<V>(rs, m, d, w, a, dp, in, out, relu, wide);
}

// Lane-wise square root in place, one instruction per vector. IEEE 754
// rounds sqrt correctly, so every width gives the bits std::sqrt gives
// (which -fmath-errno keeps scalar). Not always_inline: a callee with a
// wider target is inlined only once the template calling it sits in a
// caller of that target. By reference, so no vector crosses a call ABI.
[[gnu::target("sse2")]] inline void sqrt_lanes(Lanes<2>::type& x) {
  x = reinterpret_cast<Lanes<2>::type>(_mm_sqrt_pd(reinterpret_cast<__m128d>(x)));
}
[[gnu::target("avx")]] inline void sqrt_lanes(Lanes<4>::type& x) {
  x = reinterpret_cast<Lanes<4>::type>(_mm256_sqrt_pd(reinterpret_cast<__m256d>(x)));
}
[[gnu::target("avx512f")]] inline void sqrt_lanes(Lanes<8>::type& x) {
  // The zero-masking form with every lane set: _mm512_sqrt_pd's undefined
  // pass-through operand trips -Wmaybe-uninitialized on GCC 12.
  x = reinterpret_cast<Lanes<8>::type>(
      _mm512_maskz_sqrt_pd(0xFF, reinterpret_cast<__m512d>(x)));
}
inline void sqrt_lanes(double& x) { x = std::sqrt(x); }

// Adam on kLanes<V> adjacent parameters, each exactly as the scalar update.
template <class V>
[[gnu::always_inline]] inline void adam_lanes(double* p, double* m, double* v, const double* g,
                                              const AdamStep& a) {
  V pv, mv, vv, gv;
  load(pv, p);
  load(mv, m);
  load(vv, v);
  load(gv, g);
  mv = a.beta1 * mv + (1.0 - a.beta1) * gv;
  vv = a.beta2 * vv + (1.0 - a.beta2) * gv * gv;
  V root = vv / a.bc2;
  sqrt_lanes(root);
  pv -= a.lr * (mv / a.bc1) / (root + a.eps);
  store(p, pv);
  store(m, mv);
  store(v, vv);
}

template <class V>
[[gnu::always_inline]] inline void adam(double* p, double* m, double* v, const double* g,
                                        std::size_t n, const AdamStep& a) {
  constexpr std::size_t kL = kLanes<V>;
  std::size_t i = 0;
  for (; i + kL <= n; i += kL) adam_lanes<V>(p + i, m + i, v + i, g + i, a);
  for (; i < n; ++i) adam_lanes<double>(p + i, m + i, v + i, g + i, a);
}

// Polyak averaging p = tau * q + (1 - tau) * p on kLanes<V> adjacent
// parameters.
template <class V>
[[gnu::always_inline]] inline void polyak_lanes(double* p, const double* q, double tau) {
  V pv, qv;
  load(pv, p);
  load(qv, q);
  store(p, tau * qv + (1.0 - tau) * pv);
}

template <class V>
[[gnu::always_inline]] inline void polyak(double* p, const double* q, std::size_t n,
                                          double tau) {
  constexpr std::size_t kL = kLanes<V>;
  std::size_t i = 0;
  for (; i + kL <= n; i += kL) polyak_lanes<V>(p + i, q + i, tau);
  for (; i < n; ++i) polyak_lanes<double>(p + i, q + i, tau);
}

// The instantiations: each level compiles the templates above at its native
// width for its own target, and nothing else differs between levels. (A
// lane type wider than its target splits into slow piecewise code, so one
// wide type for every level does not work.)
#define MTAT_MLP_KERNELS(level, isa, lanes)                                                   \
  namespace level {                                                                            \
  using V = Lanes<lanes>::type;                                                                \
  static_assert(kLanes<V> == (lanes));                                                         \
  [[gnu::target(isa)]] void forward(const double* wt, const double* b, const double* x,        \
                                    double* y, int n, int in, int out, bool relu) {            \
    forward_layer<V>(wt, b, x, y, n, in, out, relu);                                           \
  }                                                                                            \
  [[gnu::target(isa)]] void wgrad(double* g, const double* s, const double* a, int n, int in, \
                                  int out, int o0, int o1) {                                   \
    weight_grad<V>(g, s, a, n, in, out, o0, o1);                                               \
  }                                                                                            \
  [[gnu::target(isa)]] void igrad(const int* rs, int m, const double* d, const double* w,      \
                                  const double* a, double* dp, int in, int out, bool relu) {   \
    input_grad<V>(rs, m, d, w, a, dp, in, out, relu);                                          \
  }                                                                                            \
  [[gnu::target(isa)]] void adam_step(double* p, double* m, double* v, const double* g,        \
                                      std::size_t n, const AdamStep& a) {                      \
    adam<V>(p, m, v, g, n, a);                                                                 \
  }                                                                                            \
  [[gnu::target(isa)]] void soft_update(double* p, const double* q, std::size_t n,             \
                                        double tau) {                                          \
    polyak<V>(p, q, n, tau);                                                                   \
  }                                                                                            \
  constexpr Kernels kKernels{&forward, &wgrad, &igrad, &adam_step, &soft_update};              \
  }

MTAT_MLP_KERNELS(sse2, "sse2", 2)
MTAT_MLP_KERNELS(avx2, "avx2", 4)
MTAT_MLP_KERNELS(avx512f, "avx512f", 8)
#undef MTAT_MLP_KERNELS

#if !defined(__clang__)
#pragma GCC pop_options
#endif

const Kernels& kernels(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx512f:
      return avx512f::kKernels;
    case SimdLevel::kAvx2:
      return avx2::kKernels;
    case SimdLevel::kSse2:
      break;
  }
  return sse2::kKernels;
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

int Mlp::forward_chunks(const Cache& cache) const {
  check_shape(cache);
  return (cache.rows + kChunkRows - 1) / kChunkRows;
}

void Mlp::forward_chunk(Cache& cache, int k) const {
  const Kernels& kern = kernels(level_);
  const int r0 = k * kChunkRows;
  const int n = std::min(kChunkRows, cache.rows - r0);
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const Layer& l = layers_[li];
    kern.forward(&wt_[l.t_off], &params_[l.b_off], cache.act[li].data() + r0 * l.in,
                 cache.act[li + 1].data() + r0 * l.out, n, l.in, l.out, li + 1 < layers_.size());
  }
}

const double* Mlp::forward(Cache& cache) const {
  for (int k = 0, e = forward_chunks(cache); k < e; ++k) forward_chunk(cache, k);
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

int Mlp::begin_backprop(Cache& cache, const double* dout, double scale,
                        const std::vector<int>* rows, bool grads, bool input_grad) const {
  check_shape(cache);
  const int n = cache.rows;
  if (grads && rows != nullptr)
    throw std::invalid_argument("Mlp: parameter gradients take every row");
  if (rows == nullptr) {
    cache.all_rows.resize(n);
    for (int r = 0; r < n; ++r) cache.all_rows[r] = r;
    rows = &cache.all_rows;
  }
  for (const int r : *rows)
    if (r < 0 || r >= n) throw std::invalid_argument("Mlp: row outside the batch");
  cache.dout = dout;
  cache.scale = scale;
  cache.rs = rows->data();
  cache.m = static_cast<int>(rows->size());
  cache.grads = grads;
  cache.input_grad = input_grad;
  const std::size_t depth = layers_.size();
  cache.dact.resize(depth);
  cache.scaled.resize(grads ? depth : 0);
  for (std::size_t l = 0; l < depth; ++l) {
    if (l > 0 || input_grad) cache.dact[l].resize(static_cast<std::size_t>(n) * sizes_[l]);
    if (grads) cache.scaled[l].resize(static_cast<std::size_t>(n) * sizes_[l + 1]);
  }
  return (cache.m + kChunkRows - 1) / kChunkRows;
}

void Mlp::backprop_chunk(Cache& cache, int k) const {
  const Kernels& kern = kernels(level_);
  const int* rs = cache.rs + k * kChunkRows;
  const int m = std::min(kChunkRows, cache.m - k * kChunkRows);
  const double* d = cache.dout;
  for (std::size_t li = layers_.size(); li-- > 0;) {
    const Layer& l = layers_[li];
    if (cache.grads) {
      // s[r][o] = scale * d[r][o], the factor every gradient term of (r, o)
      // starts from.
      double* sd = cache.scaled[li].data();
      for (int j = 0; j < m; ++j)
        for (int i = rs[j] * l.out, e = i + l.out; i < e; ++i) sd[i] = cache.scale * d[i];
    }
    if (li == 0 && !cache.input_grad) return;
    // Below the first layer, the input is a ReLU output: the kernel applies
    // its derivative, so dact[li] is the previous layer's delta.
    double* dp = cache.dact[li].data();
    kern.input_grad(rs, m, d, &params_[l.w_off], cache.act[li].data(), dp, l.in, l.out, li > 0);
    d = dp;
  }
  // The input gradient carries `scale` too, matching the parameter
  // gradients' scaling so chained backward passes stay consistent.
  if (cache.scale != 1.0) {
    const int in = input_dim();
    double* dp = cache.dact[0].data();
    for (int j = 0; j < m; ++j)
      for (int i = rs[j] * in, e = i + in; i < e; ++i) dp[i] *= cache.scale;
  }
}

void Mlp::grad_chunk(const Cache& cache, int k) {
  const Block& b = blocks_[k];
  const Layer& l = layers_[b.layer];
  const int n = cache.rows;
  const double* sd = cache.scaled[b.layer].data();
  double* gb = &grads_[l.b_off];
  for (int r = 0; r < n; ++r)
    for (int o = b.o0; o < b.o1; ++o) gb[o] += sd[r * l.out + o];
  kernels(level_).weight_grad(&grads_[l.w_off], sd, cache.act[b.layer].data(), n, l.in, l.out,
                              b.o0, b.o1);
}

const double* Mlp::backward(Cache& cache, const double* dout, double scale, bool input_grad) {
  for (int k = 0, e = begin_backprop(cache, dout, scale, nullptr, true, input_grad); k < e; ++k)
    backprop_chunk(cache, k);
  for (int k = 0; k < param_chunks(); ++k) grad_chunk(cache, k);
  return input_grad ? cache.dact[0].data() : nullptr;
}

const double* Mlp::input_gradient(Cache& cache, const double* dout, double scale,
                                  const std::vector<int>* rows) const {
  for (int k = 0, e = begin_backprop(cache, dout, scale, rows, false, true); k < e; ++k)
    backprop_chunk(cache, k);
  return cache.dact[0].data();
}

Mlp::AdamStep Mlp::next_adam_step(double lr, double beta1, double beta2, double eps) {
  ++adam_t_;
  const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(adam_t_));
  const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(adam_t_));
  return AdamStep{lr, beta1, beta2, bc1, bc2, eps};
}

void Mlp::adam_chunk(const AdamStep& a, int k) {
  const Block& b = blocks_[k];
  const Kernels& kern = kernels(level_);
  for (const auto& [at, n] : ranges(b)) {
    kern.adam(&params_[at], &adam_m_[at], &adam_v_[at], &grads_[at], n, a);
    std::fill_n(&grads_[at], n, 0.0);
  }
  write_mirror(b);
}

void Mlp::polyak_chunk(const Mlp& other, double tau, int k) {
  const Block& b = blocks_[k];
  const Kernels& kern = kernels(level_);
  for (const auto& [at, n] : ranges(b)) kern.polyak(&params_[at], &other.params_[at], n, tau);
  write_mirror(b);
}

void Mlp::adam_step(double lr, double beta1, double beta2, double eps) {
  const AdamStep a = next_adam_step(lr, beta1, beta2, eps);
  for (int k = 0; k < param_chunks(); ++k) adam_chunk(a, k);
}

void Mlp::zero_grad() { std::fill(grads_.begin(), grads_.end(), 0.0); }

void Mlp::copy_parameters_from(const Mlp& other) {
  if (other.params_.size() != params_.size())
    throw std::invalid_argument("Mlp: shape mismatch in copy");
  params_ = other.params_;
  rebuild_mirror();
}

void Mlp::soft_update_from(const Mlp& other, double tau) {
  if (other.params_.size() != params_.size())
    throw std::invalid_argument("Mlp: shape mismatch in soft update");
  for (int k = 0; k < param_chunks(); ++k) polyak_chunk(other, tau, k);
}

void Mlp::set_parameters(std::vector<double> p) {
  if (p.size() != params_.size()) throw std::invalid_argument("Mlp: parameter count mismatch");
  params_ = std::move(p);
  rebuild_mirror();
}

void Mlp::set_parameter(std::size_t i, double v) {
  params_.at(i) = v;
  for (const Layer& l : layers_)
    if (i >= l.w_off && i < l.b_off) {
      const std::size_t o = (i - l.w_off) / l.in, at = (i - l.w_off) % l.in;
      wt_[l.t_off + at * l.out + o] = v;
    }
}

void Mlp::set_simd_level(SimdLevel level) {
  if (!host_supports(level))
    throw std::invalid_argument(std::string("Mlp: host lacks SIMD level ") +
                                simd_level_name(level));
  level_ = level;
}

void Mlp::rebuild_mirror() {
  for (const Block& b : blocks_) write_mirror(b);
}

std::array<std::pair<std::size_t, std::size_t>, 2> Mlp::ranges(const Block& b) const {
  const Layer& l = layers_[b.layer];
  const auto outs = static_cast<std::size_t>(b.o1 - b.o0);
  return {{{l.w_off + static_cast<std::size_t>(b.o0) * l.in, outs * l.in},
           {l.b_off + static_cast<std::size_t>(b.o0), outs}}};
}

void Mlp::write_mirror(const Block& b) {
  const Layer& l = layers_[b.layer];
  for (int o = b.o0; o < b.o1; ++o)
    for (int i = 0; i < l.in; ++i) wt_[l.t_off + i * l.out + o] = params_[l.w_off + o * l.in + i];
}

}  // namespace mtat
