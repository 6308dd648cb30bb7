// Tests for the RL substrate: MLP forward/backward (pinned by numerical
// gradient checks), Adam, the replay buffer, and SAC end-to-end learning on
// closed-form bandit environments.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/simd_level.h"
#include "rl/mlp.h"
#include "rl/replay_buffer.h"
#include "rl/sac.h"

namespace mtat {
namespace {

// ------------------------------------------------------------------ Mlp ----

TEST(Mlp, RejectsBadShapes) {
  Rng rng(1);
  EXPECT_THROW(Mlp({3}, rng), std::invalid_argument);
  EXPECT_THROW(Mlp({3, 0, 1}, rng), std::invalid_argument);
  Mlp net({3, 4, 2}, rng);
  EXPECT_THROW(net.forward({1.0, 2.0}), std::invalid_argument);
}

TEST(Mlp, RejectsMisshapenBatches) {
  Rng rng(4);
  Mlp net({3, 4, 2}, rng);
  Mlp other({3, 5, 2}, rng);
  Mlp::Cache cache;
  EXPECT_THROW(net.forward(cache), std::invalid_argument);  // never sized
  other.input(cache, 2);
  EXPECT_THROW(net.forward(cache), std::invalid_argument);  // sized for another net
  net.input(cache, 2);
  net.forward(cache);
  const std::vector<double> dout(4, 1.0);
  const std::vector<int> rows = {0, 2};
  EXPECT_THROW(net.input_gradient(cache, dout.data(), 1.0, &rows), std::invalid_argument);
}

TEST(Mlp, ForwardMatchesHandComputation) {
  Rng rng(2);
  Mlp net({2, 2, 1}, rng);
  // Overwrite parameters with known values:
  // hidden: W=[[1,2],[3,4]], b=[0.5,-10]; out: W=[[1,1]], b=[0.25].
  net.set_parameters({1, 2, 3, 4, 0.5, -10, 1, 1, 0.25});
  // x=(1,1): h = relu(1+2+0.5, 3+4-10) = (3.5, 0); y = 3.5 + 0 + 0.25.
  const auto y = net.forward({1.0, 1.0});
  ASSERT_EQ(y.size(), 1u);
  EXPECT_DOUBLE_EQ(y[0], 3.75);
}

TEST(Mlp, ParameterCount) {
  Rng rng(3);
  Mlp net({3, 64, 64, 2}, rng);
  EXPECT_EQ(net.parameter_count(), 3u * 64 + 64 + 64u * 64 + 64 + 64u * 2 + 2);
  EXPECT_EQ(net.input_dim(), 3);
  EXPECT_EQ(net.output_dim(), 2);
}

// Runs `rows` (each input_dim() long) through `net` as one batch.
const double* forward_rows(const Mlp& net, Mlp::Cache& cache,
                           const std::vector<std::vector<double>>& rows) {
  double* x = net.input(cache, static_cast<int>(rows.size()));
  for (const auto& row : rows) x = std::copy(row.begin(), row.end(), x);
  return net.forward(cache);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(Mlp, NumericalGradientCheck) {
  // dLoss/dparam from backward() must match central finite differences for
  // a scalar loss L = sum over a batch of three rows of sum(output^2).
  Rng rng(5);
  Mlp net({3, 8, 8, 2}, rng);
  const std::vector<std::vector<double>> xs = {
      {0.3, -0.7, 1.1}, {-0.2, 0.5, 0.9}, {1.0, 0.1, -0.4}};
  Mlp::Cache cache;
  const double* y = forward_rows(net, cache, xs);
  std::vector<double> dout(xs.size() * 2);
  for (std::size_t i = 0; i < dout.size(); ++i) dout[i] = 2.0 * y[i];
  net.backward(cache, dout.data());
  const std::vector<double> analytic = net.gradients();
  net.zero_grad();

  auto loss = [&]() {
    double l = 0;
    for (const auto& x : xs)
      for (double v : net.forward(x)) l += v * v;
    return l;
  };
  const double eps = 1e-6;
  Rng pick(6);
  for (int trial = 0; trial < 64; ++trial) {
    const std::size_t i = pick.next_below(net.parameter_count());
    const double orig = net.parameters()[i];
    net.set_parameter(i, orig + eps);
    const double lp = loss();
    net.set_parameter(i, orig - eps);
    const double lm = loss();
    net.set_parameter(i, orig);
    const double numeric = (lp - lm) / (2 * eps);
    EXPECT_NEAR(analytic[i], numeric, 1e-4 * std::max(1.0, std::abs(numeric)))
        << "param " << i;
  }
}

TEST(Mlp, InputGradientCheck) {
  Rng rng(7);
  Mlp net({4, 8, 1}, rng);
  std::vector<double> x = {0.1, 0.2, -0.3, 0.4};
  Mlp::Cache cache;
  forward_rows(net, cache, {x});
  const double dout = 1.0;
  const double* din = net.backward(cache, &dout);
  net.zero_grad();
  const double eps = 1e-6;
  for (std::size_t i = 0; i < x.size(); ++i) {
    auto xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double numeric = (net.forward(xp)[0] - net.forward(xm)[0]) / (2 * eps);
    EXPECT_NEAR(din[i], numeric, 1e-6 * std::max(1.0, std::abs(numeric)));
  }
}

TEST(Mlp, BackwardScaleAppliesEverywhere) {
  Rng rng(8);
  Mlp a({2, 4, 1}, rng);
  Rng rng2(8);
  Mlp b({2, 4, 1}, rng2);
  Mlp::Cache ca, cb;
  const std::vector<std::vector<double>> xs = {{1.0, -1.0}, {0.5, 2.0}};
  forward_rows(a, ca, xs);
  forward_rows(b, cb, xs);
  const double dout[] = {1.0, -0.5};
  const double* da = a.backward(ca, dout, 0.5);
  const double* db = b.backward(cb, dout, 1.0);
  for (std::size_t i = 0; i < a.parameter_count(); ++i)
    EXPECT_NEAR(a.gradients()[i], 0.5 * b.gradients()[i], 1e-12);
  for (std::size_t i = 0; i < xs.size() * 2; ++i) EXPECT_NEAR(da[i], 0.5 * db[i], 1e-12);
}

TEST(Mlp, BackwardWithoutInputGradientLeavesTheSameGradients) {
  // The callers that drop dLoss/dInput skip it; the parameter gradients
  // must be the same bits.
  Rng rng(9);
  Mlp a({3, 8, 5, 2}, rng);
  Mlp b({3, 8, 5, 2}, rng);
  b.copy_parameters_from(a);
  Mlp::Cache ca, cb;
  const std::vector<std::vector<double>> xs = {{1.0, -1.0, 0.3}, {0.5, 2.0, -0.7},
                                               {-1.5, 0.2, 0.9}};
  forward_rows(a, ca, xs);
  forward_rows(b, cb, xs);
  const double dout[] = {1.0, -0.5, 0.25, 2.0, -1.0, 0.75};
  EXPECT_NE(a.backward(ca, dout, 0.5), nullptr);
  EXPECT_EQ(b.backward(cb, dout, 0.5, /*input_grad=*/false), nullptr);
  EXPECT_EQ(a.gradients(), b.gradients());
}

TEST(Mlp, BatchedForwardMatchesRowsRunAlone) {
  // Odd batch sizes and widths leave a remainder in every register block; a
  // row's output must not depend on the batch it ran in.
  Rng rng(31);
  for (const std::vector<int>& sizes : std::vector<std::vector<int>>{
           {3, 64, 64, 1}, {4, 64, 64, 2}, {5, 7, 5, 4}, {2, 9, 3}}) {
    Mlp net(sizes, rng);
    for (int n : {1, 2, 3, 5, 7, 13}) {
      std::vector<std::vector<double>> xs(n, std::vector<double>(sizes.front()));
      for (auto& x : xs)
        for (double& v : x) v = 4.0 * rng.next_double() - 2.0;
      Mlp::Cache cache;
      const double* y = forward_rows(net, cache, xs);
      for (int r = 0; r < n; ++r) {
        const std::vector<double> alone = net.forward(xs[r]);
        for (int o = 0; o < net.output_dim(); ++o)
          EXPECT_EQ(bits(y[r * net.output_dim() + o]), bits(alone[o]))
              << "n=" << n << " row " << r << " out " << o;
      }
    }
  }
}

TEST(Mlp, BackwardOverRowsMatchesRowsRunInOrder) {
  // Parameter gradients take their rows in order: one batched backward over
  // rows {0..n} equals n one-row backwards in that order, bit for bit, and
  // each row's input gradient equals the one it gets alone.
  Rng rng(32);
  Mlp batched({5, 7, 9, 3}, rng);
  Mlp single({5, 7, 9, 3}, rng);
  single.copy_parameters_from(batched);
  const int n = 7;
  std::vector<std::vector<double>> xs(n, std::vector<double>(5));
  for (auto& x : xs)
    for (double& v : x) v = 4.0 * rng.next_double() - 2.0;
  std::vector<double> dout(n * 3);
  for (double& d : dout) d = 2.0 * rng.next_double() - 1.0;
  const double scale = 1.0 / 7.0;
  Mlp::Cache cache;
  forward_rows(batched, cache, xs);
  const double* din = batched.backward(cache, dout.data(), scale);
  for (int r = 0; r < n; ++r) {
    Mlp::Cache one;
    forward_rows(single, one, {xs[r]});
    const double* din_one = single.backward(one, &dout[r * 3], scale);
    for (int i = 0; i < 5; ++i) EXPECT_EQ(bits(din[r * 5 + i]), bits(din_one[i])) << r;
  }
  for (std::size_t i = 0; i < batched.parameter_count(); ++i)
    EXPECT_EQ(bits(batched.gradients()[i]), bits(single.gradients()[i])) << "param " << i;
}

TEST(Mlp, InputGradientOverRowSubsetLeavesParametersAlone) {
  // Input-gradient-only mode on a row subset gives those rows exactly what a
  // full backward gives them, and writes no parameter gradient.
  Rng rng(33);
  Mlp net({4, 6, 5, 1}, rng);
  Mlp ref({4, 6, 5, 1}, rng);
  ref.copy_parameters_from(net);
  const int n = 9;
  std::vector<std::vector<double>> xs(n, std::vector<double>(4));
  for (auto& x : xs)
    for (double& v : x) v = 4.0 * rng.next_double() - 2.0;
  const std::vector<double> dout(n, -1.0);
  Mlp::Cache cache, ref_cache;
  forward_rows(net, cache, xs);
  forward_rows(ref, ref_cache, xs);
  const double* want = ref.backward(ref_cache, dout.data(), 0.25);
  const std::vector<int> subset = {0, 3, 4, 8};
  const double* got = net.input_gradient(cache, dout.data(), 0.25, &subset);
  for (int r : subset)
    for (int i = 0; i < 4; ++i) EXPECT_EQ(bits(got[r * 4 + i]), bits(want[r * 4 + i])) << r;
  for (double g : net.gradients()) EXPECT_EQ(bits(g), bits(0.0));
  const double* all = net.input_gradient(cache, dout.data(), 0.25);
  for (int i = 0; i < n * 4; ++i) EXPECT_EQ(bits(all[i]), bits(want[i])) << i;
  for (double g : net.gradients()) EXPECT_EQ(bits(g), bits(0.0));
}

TEST(Mlp, AdamMinimizesQuadratic) {
  // Fit y = net(x) to y* = 3 on a fixed input: loss should collapse.
  Rng rng(9);
  Mlp net({1, 8, 1}, rng);
  Mlp::Cache c;
  for (int step = 0; step < 2000; ++step) {
    const double y = forward_rows(net, c, {{1.0}})[0];
    const double dout = 2.0 * (y - 3.0);
    net.backward(c, &dout);
    net.adam_step(1e-2);
  }
  EXPECT_NEAR(net.forward({1.0})[0], 3.0, 1e-3);
}

TEST(Mlp, SoftUpdateBlends) {
  Rng rng(10);
  Mlp a({2, 3, 1}, rng), b({2, 3, 1}, rng);
  const double a0 = a.parameters()[0], b0 = b.parameters()[0];
  a.soft_update_from(b, 0.25);
  EXPECT_NEAR(a.parameters()[0], 0.75 * a0 + 0.25 * b0, 1e-12);
  a.copy_parameters_from(b);
  EXPECT_EQ(a.parameters(), b.parameters());
}

// ---------------------------------------------------------- vector levels ----

// Every level must give the results of the plain scalar sums, bit for bit.
// The reference below walks one row at a time in the documented order:
// forward sums a bias then its inputs ascending; backward takes rows in
// order, each adding scale * d * a to a weight's gradient and forming the
// input gradient from 0.0 over outputs ascending.
struct ScalarNet {
  std::vector<int> sizes;
  std::vector<double> p;  // Mlp::parameters() layout

  std::size_t w_off(std::size_t l) const {
    std::size_t off = 0;
    for (std::size_t k = 0; k < l; ++k) off += static_cast<std::size_t>(sizes[k] + 1) * sizes[k + 1];
    return off;
  }
  std::size_t b_off(std::size_t l) const {
    return w_off(l) + static_cast<std::size_t>(sizes[l]) * sizes[l + 1];
  }

  // Activations of every layer for one row.
  std::vector<std::vector<double>> forward(const std::vector<double>& x) const {
    std::vector<std::vector<double>> act = {x};
    for (std::size_t l = 0; l + 1 < sizes.size(); ++l) {
      const int in = sizes[l], out = sizes[l + 1];
      std::vector<double> y(out);
      for (int o = 0; o < out; ++o) {
        double sum = p[b_off(l) + o];
        for (int i = 0; i < in; ++i) sum += p[w_off(l) + o * in + i] * act[l][i];
        y[o] = l + 2 < sizes.size() && sum < 0.0 ? 0.0 : sum;
      }
      act.push_back(y);
    }
    return act;
  }

  // One row's backward: accumulates into `g`, returns dLoss/dInput.
  std::vector<double> backward(const std::vector<double>& x, const double* dout, double scale,
                               std::vector<double>& g) const {
    const auto act = forward(x);
    std::vector<double> delta(dout, dout + sizes.back());
    for (std::size_t l = sizes.size() - 1; l-- > 0;) {
      const int in = sizes[l], out = sizes[l + 1];
      if (l + 2 < sizes.size())
        for (int o = 0; o < out; ++o)
          if (act[l + 1][o] <= 0.0) delta[o] = 0.0;
      std::vector<double> prev(in, 0.0);
      for (int o = 0; o < out; ++o) {
        g[b_off(l) + o] += scale * delta[o];
        for (int i = 0; i < in; ++i) {
          g[w_off(l) + o * in + i] += scale * delta[o] * act[l][i];
          prev[i] += delta[o] * p[w_off(l) + o * in + i];
        }
      }
      delta = prev;
    }
    if (scale != 1.0)
      for (double& d : delta) d *= scale;
    return delta;
  }
};

// Nets whose widths leave every remainder of every vector width: each of
// these widths appears as an input, a hidden and an output width.
std::vector<std::vector<int>> odd_shapes() {
  std::vector<std::vector<int>> shapes;
  for (const int w : {1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 33, 64, 65}) {
    shapes.push_back({w, 17, w});
    shapes.push_back({4, w, 1});
    shapes.push_back({3, 64, w, 2});
  }
  return shapes;
}

std::vector<std::vector<double>> random_rows(Rng& rng, int n, int width) {
  std::vector<std::vector<double>> xs(n, std::vector<double>(width));
  for (auto& x : xs)
    for (double& v : x) v = 4.0 * rng.next_double() - 2.0;
  return xs;
}

class MlpAtLevel : public testing::TestWithParam<SimdLevel> {
 protected:
  void SetUp() override {
    if (!host_supports(GetParam())) GTEST_SKIP() << "host lacks " << simd_level_name(GetParam());
  }
  Mlp make(const std::vector<int>& sizes, Rng& rng) const {
    Mlp net(sizes, rng);
    net.set_simd_level(GetParam());
    return net;
  }
};

TEST_P(MlpAtLevel, ForwardMatchesScalarSums) {
  Rng rng(41);
  for (const auto& sizes : odd_shapes()) {
    const Mlp net = make(sizes, rng);
    const ScalarNet ref{sizes, net.parameters()};
    for (int n = 1; n <= 13; ++n) {
      const auto xs = random_rows(rng, n, sizes.front());
      Mlp::Cache cache;
      const double* y = forward_rows(net, cache, xs);
      for (int r = 0; r < n; ++r) {
        const std::vector<double> want = ref.forward(xs[r]).back();
        for (int o = 0; o < net.output_dim(); ++o)
          ASSERT_EQ(bits(y[r * net.output_dim() + o]), bits(want[o]))
              << "shape " << testing::PrintToString(sizes) << " n=" << n << " row " << r;
      }
    }
  }
}

TEST_P(MlpAtLevel, BackwardMatchesScalarRowsInOrder) {
  Rng rng(42);
  for (const auto& sizes : odd_shapes()) {
    Mlp net = make(sizes, rng);
    const ScalarNet ref{sizes, net.parameters()};
    const int in = sizes.front(), out = sizes.back();
    for (const int n : {1, 2, 3, 13}) {
      const auto xs = random_rows(rng, n, in);
      std::vector<double> dout(n * out);
      for (double& d : dout) d = 2.0 * rng.next_double() - 1.0;
      const double scale = 1.0 / n;
      Mlp::Cache cache;
      forward_rows(net, cache, xs);
      const double* din = net.backward(cache, dout.data(), scale);
      std::vector<double> g(net.parameter_count(), 0.0);
      for (int r = 0; r < n; ++r) {
        const std::vector<double> want = ref.backward(xs[r], &dout[r * out], scale, g);
        for (int i = 0; i < in; ++i)
          ASSERT_EQ(bits(din[r * in + i]), bits(want[i]))
              << "shape " << testing::PrintToString(sizes) << " n=" << n << " row " << r;
      }
      for (std::size_t i = 0; i < g.size(); ++i)
        ASSERT_EQ(bits(net.gradients()[i]), bits(g[i]))
            << "shape " << testing::PrintToString(sizes) << " n=" << n << " param " << i;
      net.zero_grad();
      // The input gradient alone, on every other row, gives those rows the
      // same values.
      std::vector<int> subset;
      for (int r = n - 1; r >= 0; r -= 2) subset.insert(subset.begin(), r);
      forward_rows(net, cache, xs);
      const double* sub = net.input_gradient(cache, dout.data(), scale, &subset);
      for (const int r : subset) {
        const std::vector<double> want = ref.backward(xs[r], &dout[r * out], scale, g);
        for (int i = 0; i < in; ++i) ASSERT_EQ(bits(sub[r * in + i]), bits(want[i])) << r;
      }
    }
  }
}

TEST_P(MlpAtLevel, AdamAndPolyakMatchTheBaselineLevel) {
  // The elementwise kernels at this level leave every parameter, moment and
  // blend exactly where SSE2 (the x86-64 baseline) leaves them.
  for (const auto& sizes : odd_shapes()) {
    Rng ra(43), rb(43);
    Mlp a = make(sizes, ra);
    Mlp b(sizes, rb);
    b.set_simd_level(SimdLevel::kSse2);
    Mlp target_a = make(sizes, ra);
    Mlp target_b(sizes, rb);
    target_b.set_simd_level(SimdLevel::kSse2);
    Rng data(44);
    for (int step = 0; step < 3; ++step) {
      const auto xs = random_rows(data, 5, sizes.front());
      std::vector<double> dout(5 * sizes.back());
      for (double& d : dout) d = 2.0 * data.next_double() - 1.0;
      for (Mlp* net : {&a, &b}) {
        Mlp::Cache cache;
        forward_rows(*net, cache, xs);
        net->backward(cache, dout.data(), 0.2);
        net->adam_step(1e-2);
      }
      target_a.soft_update_from(a, 0.3);
      target_b.soft_update_from(b, 0.3);
      for (std::size_t i = 0; i < a.parameter_count(); ++i) {
        ASSERT_EQ(bits(a.parameters()[i]), bits(b.parameters()[i])) << "adam, param " << i;
        ASSERT_EQ(bits(target_a.parameters()[i]), bits(target_b.parameters()[i]))
            << "polyak, param " << i;
      }
    }
    // Both passes run on what the updates wrote.
    const std::vector<double> x(sizes.front(), 0.5);
    const std::vector<double> ya = target_a.forward(x), yb = target_b.forward(x);
    for (std::size_t o = 0; o < ya.size(); ++o) ASSERT_EQ(bits(ya[o]), bits(yb[o]));
  }
}

TEST_P(MlpAtLevel, SetterWritesReachTheNextForward) {
  Rng rng(45);
  Mlp net = make({3, 9, 2}, rng);
  const std::vector<double> x = {0.3, -0.8, 1.2};
  std::vector<double> p = net.parameters();
  for (double& v : p) v = 2.0 * rng.next_double() - 1.0;
  net.set_parameters(p);
  ScalarNet ref{{3, 9, 2}, p};
  auto y = net.forward(x);
  auto want = ref.forward(x).back();
  for (int o = 0; o < 2; ++o) EXPECT_EQ(bits(y[o]), bits(want[o]));
  // One weight of each layer, through the one-parameter setter.
  for (const std::size_t i : {ref.w_off(0) + 5, ref.w_off(1) + 11}) {
    ref.p[i] += 0.75;
    net.set_parameter(i, ref.p[i]);
    y = net.forward(x);
    want = ref.forward(x).back();
    for (int o = 0; o < 2; ++o) EXPECT_EQ(bits(y[o]), bits(want[o])) << "param " << i;
  }
  EXPECT_THROW(net.set_parameters({1.0}), std::invalid_argument);
  EXPECT_THROW(net.set_parameter(net.parameter_count(), 0.0), std::out_of_range);
}

INSTANTIATE_TEST_SUITE_P(Levels, MlpAtLevel,
                         testing::Values(SimdLevel::kSse2, SimdLevel::kAvx2, SimdLevel::kAvx512f),
                         [](const testing::TestParamInfo<SimdLevel>& info) {
                           return std::string(simd_level_name(info.param));
                         });

TEST(Mlp, RunsTheHostLevelAndRefusesOnesItLacks) {
  Rng rng(46);
  Mlp net({2, 3, 1}, rng);
  EXPECT_EQ(net.simd_level(), host_simd_level());
  for (const SimdLevel level : {SimdLevel::kSse2, SimdLevel::kAvx2, SimdLevel::kAvx512f}) {
    if (host_supports(level)) {
      net.set_simd_level(level);
      EXPECT_EQ(net.simd_level(), level);
    } else {
      EXPECT_THROW(net.set_simd_level(level), std::invalid_argument);
    }
  }
  EXPECT_TRUE(host_supports(SimdLevel::kSse2));  // the x86-64 baseline
  // A level wider than any the host runs is refused on every host.
  const auto beyond = static_cast<SimdLevel>(static_cast<int>(SimdLevel::kAvx512f) + 1);
  EXPECT_THROW(net.set_simd_level(beyond), std::invalid_argument);
  EXPECT_EQ(net.simd_level(), host_simd_level());  // the refusal changed nothing
}

// ----------------------------------------------------------- ReplayBuffer ----

TEST(ReplayBuffer, RingOverwritesOldest) {
  ReplayBuffer buf(3);
  for (int i = 0; i < 5; ++i) buf.store(Transition{{}, {}, static_cast<double>(i), {}, false});
  EXPECT_EQ(buf.size(), 3u);
  Rng rng(11);
  // Only rewards 2, 3, 4 should remain.
  for (int i = 0; i < 50; ++i) EXPECT_GE(buf.sample(rng).reward, 2.0);
}

TEST(ReplayBuffer, EmptySampleThrows) {
  ReplayBuffer buf(3);
  Rng rng(12);
  EXPECT_THROW(buf.sample(rng), std::logic_error);
  EXPECT_THROW(ReplayBuffer(0), std::invalid_argument);
}

// -------------------------------------------------------------------- SAC ----

SacConfig small_sac(std::uint64_t seed) {
  SacConfig c;
  c.state_dim = 2;
  c.action_dim = 1;
  c.hidden = {32, 32};
  c.seed = seed;
  c.min_buffer_for_update = 32;
  return c;
}

TEST(Sac, ActionsAreBounded) {
  SacAgent agent(small_sac(1));
  for (int i = 0; i < 200; ++i) {
    const auto a = agent.act({0.5, -0.5});
    ASSERT_EQ(a.size(), 1u);
    ASSERT_GE(a[0], -1.0);
    ASSERT_LE(a[0], 1.0);
  }
  const auto d1 = agent.act({0.5, -0.5}, /*deterministic=*/true);
  const auto d2 = agent.act({0.5, -0.5}, /*deterministic=*/true);
  EXPECT_DOUBLE_EQ(d1[0], d2[0]);  // deterministic mode is stable
}

TEST(Sac, ObserveRejectsNonFiniteTransitions) {
  // Corrupted observations must never reach a gradient update: any non-finite
  // component — reward, state, action, or next state — drops the transition.
  SacAgent agent(small_sac(3));
  const std::vector<double> s{0.5, -0.5};
  const std::vector<double> a{0.1};
  const double inf = std::numeric_limits<double>::infinity();
  agent.observe(s, a, std::nan(""), s, false);
  agent.observe(s, a, inf, s, false);
  agent.observe({std::nan(""), 0.0}, a, 0.0, s, false);
  agent.observe(s, {std::nan("")}, 0.0, s, false);
  agent.observe(s, a, 0.0, {0.0, -inf}, false);
  EXPECT_EQ(agent.buffer_size(), 0u);
  agent.observe(s, a, 1.0, s, false);  // a healthy transition still lands
  EXPECT_EQ(agent.buffer_size(), 1u);
}

TEST(Sac, ObserveRejectsWrongDimensions) {
  // Training copies exactly state_dim/action_dim values per row, so a
  // transition of another shape must be refused when it is stored.
  SacAgent agent(small_sac(3));
  const std::vector<double> s{0.5, -0.5};
  EXPECT_THROW(agent.observe({0.5}, {0.1}, 0.0, s, false), std::invalid_argument);
  EXPECT_THROW(agent.observe(s, {0.1, 0.2}, 0.0, s, false), std::invalid_argument);
  EXPECT_THROW(agent.observe(s, {0.1}, 0.0, {0.5, -0.5, 1.0}, false), std::invalid_argument);
  EXPECT_EQ(agent.buffer_size(), 0u);
}

TEST(Sac, UpdateRequiresMinimumBuffer) {
  SacAgent agent(small_sac(2));
  EXPECT_FALSE(agent.ready_to_update());
  agent.update();  // harmless no-op
  EXPECT_EQ(agent.updates_performed(), 0u);
}

TEST(Sac, LearnsPositiveActionBandit) {
  // One-step environment: reward = action. The policy mean must drift
  // strongly positive.
  SacAgent agent(small_sac(3));
  const std::vector<double> s = {0.0, 0.0};
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const auto a = agent.act(s);
    agent.observe(s, a, a[0], s, /*done=*/true);
    agent.update(2);
  }
  // SAC's entropy bonus keeps the optimum stochastic; the deterministic mean
  // must still be clearly positive.
  EXPECT_GT(agent.act(s, /*deterministic=*/true)[0], 0.25);
  // Q must reflect the reward structure: Q(+1) > Q(-1).
  EXPECT_GT(agent.q_value(s, {1.0}), agent.q_value(s, {-1.0}));
}

TEST(Sac, LearnsStateDependentPolicy) {
  // reward = state[0] * action: optimal action flips sign with the state.
  SacAgent agent(small_sac(4));
  Rng rng(14);
  for (int i = 0; i < 1500; ++i) {
    const double sv = rng.next_bool(0.5) ? 1.0 : -1.0;
    const std::vector<double> s = {sv, 0.0};
    const auto a = agent.act(s);
    agent.observe(s, a, sv * a[0], s, true);
    agent.update(2);
  }
  EXPECT_GT(agent.act({1.0, 0.0}, true)[0], 0.3);
  EXPECT_LT(agent.act({-1.0, 0.0}, true)[0], -0.3);
}

TEST(Sac, CriticLossFallsOnStationaryProblem) {
  SacAgent agent(small_sac(5));
  const std::vector<double> s = {0.2, 0.8};
  Rng rng(15);
  for (int i = 0; i < 100; ++i) {
    const auto a = agent.act(s);
    agent.observe(s, a, 1.0, s, true);
  }
  agent.update(50);
  const double early = agent.last_critic_loss();
  agent.update(400);
  EXPECT_LT(agent.last_critic_loss(), early);
}

TEST(Sac, AlphaStaysPositive) {
  SacAgent agent(small_sac(6));
  const std::vector<double> s = {0.0, 1.0};
  for (int i = 0; i < 200; ++i) {
    const auto a = agent.act(s);
    agent.observe(s, a, a[0], s, true);
    agent.update();
  }
  EXPECT_GT(agent.alpha(), 0.0);
  EXPECT_TRUE(std::isfinite(agent.alpha()));
}

TEST(Sac, RejectsBadDims) {
  SacConfig c;
  c.state_dim = 0;
  EXPECT_THROW(SacAgent{c}, std::invalid_argument);
}

}  // namespace
}  // namespace mtat

namespace mtat {
namespace {

TEST(Sac, TargetNetworksLagBehindCritics) {
  // After updates, the Polyak-averaged targets must have moved toward — but
  // not onto — the online critics.
  SacAgent agent(small_sac(7));
  const std::vector<double> s = {0.1, 0.9};
  for (int i = 0; i < 64; ++i) {
    const auto a = agent.act(s);
    agent.observe(s, a, 1.0, s, false);
  }
  agent.update(100);
  // Q-estimates on a fixed reward stream with gamma=0.95 head toward
  // r/(1-gamma) = 20; targets follow more slowly but must be finite and
  // nonzero after 100 updates.
  const double q = agent.q_value(s, {0.0});
  EXPECT_GT(q, 0.5);
  EXPECT_LT(q, 40.0);
}

TEST(Sac, BufferRespectsCapacity) {
  SacConfig c = small_sac(8);
  c.buffer_capacity = 16;
  SacAgent agent(c);
  const std::vector<double> s = {0.0, 0.0};
  for (int i = 0; i < 100; ++i) agent.observe(s, {0.0}, 0.0, s, false);
  EXPECT_EQ(agent.buffer_size(), 16u);
}

}  // namespace
}  // namespace mtat
