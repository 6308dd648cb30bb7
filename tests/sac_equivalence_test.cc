// Differential test for the batched SAC training path.
//
// RefMlp and RefSac below are a direct transcription of the sample-at-a-time
// implementation that the batched kernels replaced: one forward pass per
// sample with a fresh activation cache, a backward pass that always forms
// parameter gradients (the actor phase's critic gradients were accumulated
// and then zeroed), and an update that walks the minibatch one transition at
// a time. It is the executable spec of the old arithmetic and RNG order.
//
// SacAgent and RefSac start from the same seed, observe the same transitions
// and run the same updates. Afterwards every parameter of all five networks,
// both losses, the temperature and the next stochastic action (which takes
// the next RNG draws) must match bit for bit. The configurations cover
// terminal transitions, a buffer smaller than the batch, a 2-d action, a 5-d
// state and hidden widths that exercise every register-block remainder. Each
// runs at the host's default vector level and again at every level the host
// supports (common/simd_level.h), and on chunk teams of 1, 2 and 3 helper
// threads (common/chunk_team.h), whose saved state must equal the inline
// run's byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/simd_level.h"
#include "common/state_archive.h"
#include "obs/run_context.h"
#include "rl/mlp.h"
#include "rl/replay_buffer.h"
#include "rl/sac.h"
#include "sim/tenant_lanes.h"

namespace mtat {
namespace {

class RefMlp {
 public:
  struct Cache {
    std::vector<std::vector<double>> activations;
  };

  RefMlp(std::vector<int> sizes, Rng& rng) : sizes_(std::move(sizes)) {
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
      const double stddev = std::sqrt(2.0 / l.in);
      for (int i = 0; i < l.in * l.out; ++i) params_[l.w_off + i] = rng.next_gaussian() * stddev;
      for (int i = 0; i < l.out; ++i) params_[l.b_off + i] = 0.0;
    }
  }

  std::vector<double> forward(const std::vector<double>& x) const {
    Cache scratch;
    return forward_cached(x, scratch);
  }

  std::vector<double> forward_cached(const std::vector<double>& x, Cache& cache) const {
    cache.activations.clear();
    cache.activations.push_back(x);
    std::vector<double> cur = x;
    for (std::size_t li = 0; li < layers_.size(); ++li) {
      const Layer& l = layers_[li];
      std::vector<double> next(l.out);
      for (int o = 0; o < l.out; ++o) {
        double sum = params_[l.b_off + o];
        const double* w = &params_[l.w_off + static_cast<std::size_t>(o) * l.in];
        for (int i = 0; i < l.in; ++i) sum += w[i] * cur[i];
        next[o] = (li + 1 < layers_.size() && sum < 0.0) ? 0.0 : sum;
      }
      cache.activations.push_back(next);
      cur = std::move(next);
    }
    return cur;
  }

  std::vector<double> backward(const Cache& cache, const std::vector<double>& dout,
                               double scale = 1.0) {
    std::vector<double> delta = dout;
    for (std::size_t li = layers_.size(); li-- > 0;) {
      const Layer& l = layers_[li];
      const auto& a_in = cache.activations[li];
      const auto& a_out = cache.activations[li + 1];
      if (li + 1 < layers_.size())
        for (int o = 0; o < l.out; ++o)
          if (a_out[o] <= 0.0) delta[o] = 0.0;
      std::vector<double> dprev(l.in, 0.0);
      for (int o = 0; o < l.out; ++o) {
        const double d = delta[o];
        grads_[l.b_off + o] += scale * d;
        const std::size_t wrow = l.w_off + static_cast<std::size_t>(o) * l.in;
        for (int i = 0; i < l.in; ++i) {
          grads_[wrow + i] += scale * d * a_in[i];
          dprev[i] += d * params_[wrow + i];
        }
      }
      delta = std::move(dprev);
    }
    if (scale != 1.0)
      for (double& d : delta) d *= scale;
    return delta;
  }

  void adam_step(double lr) {
    const double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
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

  void zero_grad() { std::fill(grads_.begin(), grads_.end(), 0.0); }

  void copy_parameters_from(const RefMlp& other) { params_ = other.params_; }

  void soft_update_from(const RefMlp& other, double tau) {
    for (std::size_t i = 0; i < params_.size(); ++i)
      params_[i] = tau * other.params_[i] + (1.0 - tau) * params_[i];
  }

  const std::vector<double>& parameters() const { return params_; }

 private:
  struct Layer {
    std::size_t w_off, b_off;
    int in, out;
  };
  std::vector<int> sizes_;
  std::vector<Layer> layers_;
  std::vector<double> params_, grads_, adam_m_, adam_v_;
  std::uint64_t adam_t_ = 0;
};

std::vector<int> ref_sizes(int in, const std::vector<int>& hidden, int out) {
  std::vector<int> s{in};
  for (int h : hidden) s.push_back(h);
  s.push_back(out);
  return s;
}

class RefSac {
 public:
  explicit RefSac(const SacConfig& cfg)
      : cfg_(cfg),
        rng_(cfg.seed),
        actor_(ref_sizes(cfg.state_dim, cfg.hidden, 2 * cfg.action_dim), rng_),
        q1_(ref_sizes(cfg.state_dim + cfg.action_dim, cfg.hidden, 1), rng_),
        q2_(ref_sizes(cfg.state_dim + cfg.action_dim, cfg.hidden, 1), rng_),
        q1_target_(ref_sizes(cfg.state_dim + cfg.action_dim, cfg.hidden, 1), rng_),
        q2_target_(ref_sizes(cfg.state_dim + cfg.action_dim, cfg.hidden, 1), rng_),
        log_alpha_(std::log(cfg.init_alpha)),
        buffer_(cfg.buffer_capacity) {
    q1_target_.copy_parameters_from(q1_);
    q2_target_.copy_parameters_from(q2_);
  }

  double alpha() const { return std::exp(log_alpha_); }
  double last_critic_loss() const { return last_critic_loss_; }
  double last_actor_loss() const { return last_actor_loss_; }
  const RefMlp* networks(int i) const {
    const RefMlp* nets[] = {&actor_, &q1_, &q2_, &q1_target_, &q2_target_};
    return nets[i];
  }

  void observe(const std::vector<double>& s, const std::vector<double>& a, double r,
               const std::vector<double>& s2, bool done) {
    buffer_.store(Transition{s, a, r, s2, done});
  }

  std::vector<double> act(const std::vector<double>& state) {
    return sample_policy(state, nullptr).action;
  }

  double q_value(const std::vector<double>& state, const std::vector<double>& action) const {
    const std::vector<double> in = concat(state, action);
    return std::min(q1_.forward(in)[0], q2_.forward(in)[0]);
  }

  void update(int steps) {
    if (buffer_.size() < cfg_.min_buffer_for_update) return;
    for (int i = 0; i < steps; ++i) update_once();
  }

 private:
  static constexpr double kLogStdMin = -5.0;
  static constexpr double kLogStdMax = 2.0;
  static constexpr double kTanhEps = 1e-6;
  static constexpr double kHalfLog2Pi = 0.9189385332046727;

  struct PolicySample {
    std::vector<double> action, raw, mean, log_std, eps;
    double log_prob = 0.0;
  };

  static std::vector<double> concat(const std::vector<double>& a, const std::vector<double>& b) {
    std::vector<double> out = a;
    out.insert(out.end(), b.begin(), b.end());
    return out;
  }

  PolicySample sample_policy(const std::vector<double>& state, RefMlp::Cache* cache) {
    PolicySample ps;
    RefMlp::Cache local;
    const std::vector<double> head =
        cache ? actor_.forward_cached(state, *cache) : actor_.forward_cached(state, local);
    const int dim = cfg_.action_dim;
    ps.mean.assign(head.begin(), head.begin() + dim);
    ps.log_std.resize(dim);
    ps.action.resize(dim);
    ps.raw.resize(dim);
    ps.eps.resize(dim);
    for (int d = 0; d < dim; ++d) {
      ps.log_std[d] = std::clamp(head[dim + d], kLogStdMin, kLogStdMax);
      const double sigma = std::exp(ps.log_std[d]);
      ps.eps[d] = rng_.next_gaussian();
      ps.raw[d] = ps.mean[d] + sigma * ps.eps[d];
      ps.action[d] = std::tanh(ps.raw[d]);
      ps.log_prob += -0.5 * ps.eps[d] * ps.eps[d] - ps.log_std[d] - kHalfLog2Pi -
                     std::log(1.0 - ps.action[d] * ps.action[d] + kTanhEps);
    }
    return ps;
  }

  void update_once() {
    const std::size_t batch = std::min(cfg_.batch_size, buffer_.size());
    const double inv_b = 1.0 / static_cast<double>(batch);
    std::vector<const Transition*> samples(batch);
    for (auto& s : samples) s = &buffer_.sample(rng_);

    double critic_loss = 0.0;
    for (const Transition* t : samples) {
      double y = t->reward;
      if (!t->done) {
        const PolicySample next = sample_policy(t->next_state, nullptr);
        const std::vector<double> in = concat(t->next_state, next.action);
        const double qmin = std::min(q1_target_.forward(in)[0], q2_target_.forward(in)[0]);
        y += cfg_.gamma * (qmin - alpha() * next.log_prob);
      }
      const std::vector<double> in = concat(t->state, t->action);
      RefMlp::Cache c1, c2;
      const double q1v = q1_.forward_cached(in, c1)[0];
      const double q2v = q2_.forward_cached(in, c2)[0];
      critic_loss += ((q1v - y) * (q1v - y) + (q2v - y) * (q2v - y)) * inv_b;
      q1_.backward(c1, {2.0 * (q1v - y)}, inv_b);
      q2_.backward(c2, {2.0 * (q2v - y)}, inv_b);
    }
    q1_.adam_step(cfg_.critic_lr);
    q2_.adam_step(cfg_.critic_lr);
    last_critic_loss_ = critic_loss;

    double actor_loss = 0.0;
    double mean_log_prob = 0.0;
    const int dim = cfg_.action_dim;
    for (const Transition* t : samples) {
      RefMlp::Cache actor_cache;
      const PolicySample ps = sample_policy(t->state, &actor_cache);
      const std::vector<double> in = concat(t->state, ps.action);
      RefMlp::Cache c1, c2;
      const double q1v = q1_.forward_cached(in, c1)[0];
      const double q2v = q2_.forward_cached(in, c2)[0];
      const double qmin = std::min(q1v, q2v);
      actor_loss += (alpha() * ps.log_prob - qmin) * inv_b;
      mean_log_prob += ps.log_prob * inv_b;
      RefMlp& qsel = q1v <= q2v ? q1_ : q2_;
      const std::vector<double> din = qsel.backward(q1v <= q2v ? c1 : c2, {-1.0}, inv_b);
      std::vector<double> dhead(2 * dim, 0.0);
      for (int d = 0; d < dim; ++d) {
        const double a = ps.action[d];
        const double one_m_a2 = 1.0 - a * a;
        const double dq_da = din[cfg_.state_dim + d];
        const double dlogp_draw = 2.0 * a * one_m_a2 / (one_m_a2 + kTanhEps);
        const double g_raw = dq_da * one_m_a2 + (alpha() * inv_b) * dlogp_draw;
        dhead[d] = g_raw;
        const bool clamped = ps.log_std[d] <= kLogStdMin || ps.log_std[d] >= kLogStdMax;
        if (!clamped)
          dhead[dim + d] = g_raw * std::exp(ps.log_std[d]) * ps.eps[d] - (alpha() * inv_b);
      }
      actor_.backward(actor_cache, dhead, 1.0);
    }
    actor_.adam_step(cfg_.actor_lr);
    q1_.zero_grad();
    q2_.zero_grad();
    last_actor_loss_ = actor_loss;

    const double g_alpha = -(mean_log_prob + cfg_.target_entropy);
    ++alpha_t_;
    alpha_m_ = 0.9 * alpha_m_ + 0.1 * g_alpha;
    alpha_v_ = 0.999 * alpha_v_ + 0.001 * g_alpha * g_alpha;
    const double m_hat = alpha_m_ / (1.0 - std::pow(0.9, static_cast<double>(alpha_t_)));
    const double v_hat = alpha_v_ / (1.0 - std::pow(0.999, static_cast<double>(alpha_t_)));
    log_alpha_ -= cfg_.alpha_lr * m_hat / (std::sqrt(v_hat) + 1e-8);

    q1_target_.soft_update_from(q1_, cfg_.tau);
    q2_target_.soft_update_from(q2_, cfg_.tau);
  }

  SacConfig cfg_;
  Rng rng_;
  RefMlp actor_, q1_, q2_, q1_target_, q2_target_;
  double log_alpha_;
  double alpha_m_ = 0.0, alpha_v_ = 0.0;
  std::uint64_t alpha_t_ = 0;
  ReplayBuffer buffer_;
  double last_critic_loss_ = 0.0;
  double last_actor_loss_ = 0.0;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// One configuration of the differential run: both agents take `rounds`
/// rounds of `per_round` random transitions (terminal with probability
/// `p_done`), each round followed by `steps` updates.
struct Case {
  const char* name;
  SacConfig cfg;
  double p_done;
  int rounds, per_round, steps;
};

SacConfig with_seed(std::uint64_t seed) {
  SacConfig cfg;
  cfg.seed = seed;
  return cfg;
}

const std::vector<Case>& cases() {
  static const std::vector<Case> kCases = [] {
    std::vector<Case> c;
    c.push_back({"DefaultConfig", SacConfig{}, 0.0, 10, 20, 10});
    c.push_back({"TerminalTransitions", with_seed(21), 0.4, 6, 20, 4});
    c.push_back({"AllTerminalTransitions", with_seed(22), 1.0, 4, 20, 3});
    SacConfig small = with_seed(23);
    small.min_buffer_for_update = 5;
    c.push_back({"BufferSmallerThanBatch", small, 0.2, 7, 3, 3});  // batches of 6, 9, ... 21
    SacConfig two_d = with_seed(24);
    two_d.action_dim = 2;
    two_d.target_entropy = -2.0;
    c.push_back({"TwoDimensionalAction", two_d, 0.2, 6, 20, 4});
    SacConfig five_d = with_seed(25);
    five_d.state_dim = 5;
    c.push_back({"FiveDimensionalState", five_d, 0.2, 6, 20, 4});
    // Width 5 and 7 leave remainders in every blocked loop; batch 13 leaves an
    // odd row in the 2-row and 4-row blocks; the 2-d action gives a narrow
    // output layer of width 4 (actor) beside width 1 (critics).
    SacConfig odd = with_seed(26);
    odd.hidden = {5, 7};
    odd.action_dim = 2;
    odd.batch_size = 13;
    odd.min_buffer_for_update = 13;
    c.push_back({"OddHiddenWidthsHitEveryBlockRemainder", odd, 0.3, 30, 10, 5});
    return c;
  }();
  return kCases;
}

/// Runs `c` on both agents, the batched one at `level` with its kernels on
/// `team` (inline when null), then asserts bit-equal state. Returns the
/// batched agent's saved state: every parameter, gradient and Adam moment,
/// the losses, the temperature, the replay ring and the RNG.
std::string expect_equivalent(const Case& c, SimdLevel level, ChunkTeam* team = nullptr) {
  const SacConfig& cfg = c.cfg;
  obs::RunContext ctx(obs::RunContext::TraceMode::kPrivate);
  ctx.set_chunk_team(team);
  SacAgent agent(cfg);
  agent.set_run_context(&ctx);
  agent.set_simd_level(level);
  RefSac ref(cfg);
  Rng env(cfg.seed + 1000);
  const auto draw = [&](int dim, double lo, double hi) {
    std::vector<double> v(dim);
    for (double& x : v) x = lo + (hi - lo) * env.next_double();
    return v;
  };
  for (int round = 0; round < c.rounds; ++round) {
    for (int i = 0; i < c.per_round; ++i) {
      const std::vector<double> s = draw(cfg.state_dim, -1.0, 2.0);
      const std::vector<double> a = draw(cfg.action_dim, -1.0, 1.0);
      const double r = 4.0 * env.next_double() - 1.0;
      const std::vector<double> s2 = draw(cfg.state_dim, -1.0, 2.0);
      const bool done = env.next_bool(c.p_done);
      agent.observe(s, a, r, s2, done);
      ref.observe(s, a, r, s2, done);
    }
    agent.update(c.steps);
    ref.update(c.steps);
  }
  EXPECT_GT(agent.updates_performed(), 0u);

  const char* names[] = {"actor", "q1", "q2", "q1_target", "q2_target"};
  for (int k = 0; k < 5; ++k) {
    const std::vector<double>& got = agent.networks()[k]->parameters();
    const std::vector<double>& want = ref.networks(k)->parameters();
    EXPECT_EQ(got.size(), want.size()) << names[k];
    if (got.size() != want.size()) continue;
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < got.size(); ++i) mismatches += bits(got[i]) != bits(want[i]);
    EXPECT_EQ(mismatches, 0u) << names[k] << " parameters differ";
  }
  EXPECT_EQ(bits(agent.last_critic_loss()), bits(ref.last_critic_loss()));
  EXPECT_EQ(bits(agent.last_actor_loss()), bits(ref.last_actor_loss()));
  EXPECT_EQ(bits(agent.alpha()), bits(ref.alpha()));

  const std::vector<double> probe = draw(cfg.state_dim, -1.0, 2.0);
  const std::vector<double> a_got = agent.act(probe);
  const std::vector<double> a_want = ref.act(probe);
  EXPECT_EQ(a_got.size(), a_want.size());
  for (std::size_t d = 0; d < std::min(a_got.size(), a_want.size()); ++d)
    EXPECT_EQ(bits(a_got[d]), bits(a_want[d])) << "next stochastic action, dim " << d;
  EXPECT_EQ(bits(agent.q_value(probe, a_want)), bits(ref.q_value(probe, a_want)));
  agent.set_run_context(nullptr);
  StateArchive ar;
  agent.persist(ar);
  return ar.finish();
}

// Each case at the level the host picks by default...
TEST(SacEquivalence, DefaultConfig) { expect_equivalent(cases()[0], host_simd_level()); }
TEST(SacEquivalence, TerminalTransitions) { expect_equivalent(cases()[1], host_simd_level()); }
TEST(SacEquivalence, AllTerminalTransitions) { expect_equivalent(cases()[2], host_simd_level()); }
TEST(SacEquivalence, BufferSmallerThanBatch) { expect_equivalent(cases()[3], host_simd_level()); }
TEST(SacEquivalence, TwoDimensionalAction) { expect_equivalent(cases()[4], host_simd_level()); }
TEST(SacEquivalence, FiveDimensionalState) { expect_equivalent(cases()[5], host_simd_level()); }
TEST(SacEquivalence, OddHiddenWidthsHitEveryBlockRemainder) {
  expect_equivalent(cases()[6], host_simd_level());
}

// ...and at every level this host runs: each must match the transcription
// bit for bit, so all levels agree with each other.
class SacEquivalenceAtLevel : public testing::TestWithParam<std::tuple<SimdLevel, int>> {};

TEST_P(SacEquivalenceAtLevel, MatchesSampleAtATimeReference) {
  const auto [level, c] = GetParam();
  if (!host_supports(level)) GTEST_SKIP() << "host lacks " << simd_level_name(level);
  expect_equivalent(cases()[c], level);
}

INSTANTIATE_TEST_SUITE_P(
    Levels, SacEquivalenceAtLevel,
    testing::Combine(testing::Values(SimdLevel::kSse2, SimdLevel::kAvx2, SimdLevel::kAvx512f),
                     testing::Range(0, 7)),
    [](const testing::TestParamInfo<std::tuple<SimdLevel, int>>& info) {
      return std::string(simd_level_name(std::get<0>(info.param))) + "_" +
             cases()[std::get<1>(info.param)].name;
    });

// On a chunk team the kernels' chunks run on whichever thread claims them:
// 0 (inline), 1, 2 and 3 helpers must all give the same bits. The cases put
// row-chunk edges in the kernels' tails (batch 13, odd widths, a buffer
// smaller than the batch) and parameter-block edges mid-layer (a 64-wide
// layer in eight blocks; a 37-wide input to 70 outputs in blocks of 13).
const std::vector<Case>& team_cases() {
  static const std::vector<Case> kCases = [] {
    std::vector<Case> c{cases()[0], cases()[1], cases()[3], cases()[6]};
    SacConfig wide = with_seed(27);
    wide.hidden = {37, 70};
    wide.batch_size = 29;
    wide.min_buffer_for_update = 29;
    c.push_back({"WideOddLayersSplitMidLayer", wide, 0.2, 5, 12, 3});
    return c;
  }();
  return kCases;
}

class SacEquivalenceOnTeam : public testing::TestWithParam<std::tuple<SimdLevel, int>> {};

TEST_P(SacEquivalenceOnTeam, EveryTeamSizeGivesTheInlineBits) {
  const auto [level, c] = GetParam();
  if (!host_supports(level)) GTEST_SKIP() << "host lacks " << simd_level_name(level);
  const std::string inline_state = expect_equivalent(team_cases()[c], level);
  for (const std::size_t helpers : {1, 2, 3}) {
    TenantLanes team({}, helpers);
    EXPECT_EQ(expect_equivalent(team_cases()[c], level, &team), inline_state)
        << helpers << " helper(s): saved state differs from the inline run";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Levels, SacEquivalenceOnTeam,
    testing::Combine(testing::Values(SimdLevel::kSse2, SimdLevel::kAvx2, SimdLevel::kAvx512f),
                     testing::Range(0, 5)),
    [](const testing::TestParamInfo<std::tuple<SimdLevel, int>>& info) {
      return std::string(simd_level_name(std::get<0>(info.param))) + "_" +
             team_cases()[std::get<1>(info.param)].name;
    });

}  // namespace
}  // namespace mtat
