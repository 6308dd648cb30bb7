#include "rl/sac.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/state_archive.h"
#include "faults/fault_injector.h"
#include "obs/names.h"

namespace mtat {
namespace {

constexpr double kLogStdMin = -5.0;
constexpr double kLogStdMax = 2.0;
constexpr double kTanhEps = 1e-6;
constexpr double kHalfLog2Pi = 0.9189385332046727;  // 0.5 * log(2*pi)

std::vector<int> net_sizes(int in, const std::vector<int>& hidden, int out) {
  // Appended element-wise rather than via insert(range): GCC 12 with
  // -fsanitize=undefined false-positives -Warray-bounds on the memmove
  // inlined out of vector range-insert.
  std::vector<int> s;
  s.reserve(hidden.size() + 2);
  s.push_back(in);
  for (int h : hidden) s.push_back(h);
  s.push_back(out);
  return s;
}

}  // namespace

SacAgent::SacAgent(const SacConfig& cfg)
    : cfg_(cfg),
      rng_(cfg.seed),
      actor_(net_sizes(cfg.state_dim, cfg.hidden, 2 * cfg.action_dim), rng_),
      q1_(net_sizes(cfg.state_dim + cfg.action_dim, cfg.hidden, 1), rng_),
      q2_(net_sizes(cfg.state_dim + cfg.action_dim, cfg.hidden, 1), rng_),
      q1_target_(net_sizes(cfg.state_dim + cfg.action_dim, cfg.hidden, 1), rng_),
      q2_target_(net_sizes(cfg.state_dim + cfg.action_dim, cfg.hidden, 1), rng_),
      log_alpha_(std::log(cfg.init_alpha)),
      buffer_(cfg.buffer_capacity) {
  if (cfg.state_dim <= 0 || cfg.action_dim <= 0)
    throw std::invalid_argument("SacAgent: bad dimensions");
  q1_target_.copy_parameters_from(q1_);
  q2_target_.copy_parameters_from(q2_);
}

double SacAgent::alpha() const { return std::exp(log_alpha_); }

void SacAgent::sample_policy(const double* head, int rows, PolicyBatch& out) {
  const int dim = cfg_.action_dim;
  out.action.resize(rows * dim);
  out.log_std.resize(rows * dim);
  out.eps.resize(rows * dim);
  out.log_prob.assign(rows, 0.0);
  for (int r = 0; r < rows; ++r) {
    const double* mean = head + r * 2 * dim;  // then dim log-std entries
    double* action = &out.action[r * dim];
    double* log_std = &out.log_std[r * dim];
    double* eps = &out.eps[r * dim];
    for (int d = 0; d < dim; ++d) {
      log_std[d] = std::clamp(mean[dim + d], kLogStdMin, kLogStdMax);
      const double sigma = std::exp(log_std[d]);
      eps[d] = rng_.next_gaussian();
      action[d] = std::tanh(mean[d] + sigma * eps[d]);
      // log N(raw; mean, sigma) with raw = mean + sigma*eps, minus the tanh
      // change-of-variables correction.
      out.log_prob[r] += -0.5 * eps[d] * eps[d] - log_std[d] - kHalfLog2Pi -
                         std::log(1.0 - action[d] * action[d] + kTanhEps);
    }
  }
}

std::vector<double> SacAgent::act(const std::vector<double>& state, bool deterministic) {
  const std::vector<double> head = actor_.forward(state);
  std::vector<double> out(cfg_.action_dim);
  if (deterministic) {
    for (int d = 0; d < cfg_.action_dim; ++d) out[d] = std::tanh(head[d]);
  } else {
    sample_policy(head.data(), 1, scratch_.pol);
    out = scratch_.pol.action;
  }
  if (faults_ != nullptr) {
    // Injected policy pathology: the action the caller sees is replaced by
    // all-NaN or an off-manifold divergent vector. The network itself stays
    // healthy — this models a corrupted inference result, and it is the
    // caller's (PP-M's) job to survive it.
    switch (faults_->action_fault()) {
      case faults::FaultInjector::ActionFault::kNone:
        break;
      case faults::FaultInjector::ActionFault::kNaN:
        std::fill(out.begin(), out.end(), std::numeric_limits<double>::quiet_NaN());
        actions_corrupted_c_->inc();
        break;
      case faults::FaultInjector::ActionFault::kDivergent:
        for (std::size_t d = 0; d < out.size(); ++d) out[d] = d % 2 == 0 ? 1e6 : -1e6;
        actions_corrupted_c_->inc();
        break;
    }
  }
  return out;
}

namespace {
bool all_finite(const std::vector<double>& v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}
}  // namespace

void SacAgent::observe(const std::vector<double>& state, const std::vector<double>& action,
                       double reward, const std::vector<double>& next_state, bool done) {
  const auto sdim = static_cast<std::size_t>(cfg_.state_dim);
  if (state.size() != sdim || next_state.size() != sdim ||
      action.size() != static_cast<std::size_t>(cfg_.action_dim))
    throw std::invalid_argument("SacAgent: transition size mismatch");
  // Non-finite transitions are rejected outright rather than clamped: one NaN
  // reward or corrupted action in the buffer would poison every later
  // gradient batch that samples it. Healthy runs never produce one, so this
  // guard is behaviour-neutral outside fault injection.
  if (!std::isfinite(reward) || !all_finite(state) || !all_finite(action) ||
      !all_finite(next_state)) {
    if (rejected_c_ != nullptr) rejected_c_->inc();
    return;
  }
  buffer_.store(Transition{state, action, reward, next_state, done});
}

double SacAgent::q_value(const std::vector<double>& state,
                         const std::vector<double>& action) const {
  std::vector<double> in = state;
  in.insert(in.end(), action.begin(), action.end());
  return std::min(q1_.forward(in)[0], q2_.forward(in)[0]);
}

void SacAgent::update(int steps) {
  if (!ready_to_update()) return;
  ChunkTeam* team = ctx_ != nullptr ? ctx_->chunk_team() : nullptr;
  for (int i = 0; i < steps; ++i) update_once(team);
  if (updates_c_ != nullptr) {
    updates_c_->inc(steps);
    critic_loss_g_->set(last_critic_loss_);
    actor_loss_g_->set(last_actor_loss_);
    alpha_g_->set(alpha());
    if (trace_ != nullptr)
      trace_->instant(obs::names::kEvRlUpdate, obs::names::kCatRl, "critic_loss",
                      last_critic_loss_, "actor_loss", last_actor_loss_);
  }
}

void SacAgent::set_run_context(obs::RunContext* ctx) {
  ctx_ = ctx;
  if (ctx == nullptr) {
    updates_c_ = nullptr;
    critic_loss_g_ = actor_loss_g_ = alpha_g_ = nullptr;
    rejected_c_ = nullptr;
    trace_ = nullptr;
    faults_ = nullptr;
    actions_corrupted_c_ = nullptr;
    return;
  }
  obs::MetricsRegistry& reg = ctx->metrics();
  updates_c_ = &reg.counter(obs::names::kRlUpdates);
  critic_loss_g_ = &reg.gauge(obs::names::kRlCriticLoss);
  actor_loss_g_ = &reg.gauge(obs::names::kRlActorLoss);
  alpha_g_ = &reg.gauge(obs::names::kRlAlpha);
  rejected_c_ = &reg.counter(obs::names::kRlRejectedTransitions);
  trace_ = &ctx->trace();
  faults_ = ctx->faults();
  if (faults_ != nullptr)
    actions_corrupted_c_ = &reg.counter(obs::names::kFaultRlActionsCorrupted);
}

void SacAgent::set_simd_level(SimdLevel level) {
  for (Mlp* net : {&actor_, &q1_, &q2_, &q1_target_, &q2_target_}) net->set_simd_level(level);
}

namespace {

// One part of a region: `chunks` chunks, chunk k running run(k).
template <class F>
struct Part {
  int chunks;
  F run;
};
template <class F>
Part<F> part(int chunks, F run) {
  return {chunks, run};
}

template <class P, class... Rest>
void run_part(int c, const P& p, const Rest&... rest) {
  if (c < p.chunks) return p.run(c);
  if constexpr (sizeof...(Rest) > 0) run_part(c - p.chunks, rest...);
}

// One region over several parts, numbered one after another.
template <class... Parts>
void region(ChunkTeam* team, const Parts&... parts) {
  run_chunks(team, static_cast<std::size_t>((parts.chunks + ...)),
             [&](std::size_t c) { run_part(static_cast<int>(c), parts...); });
}

auto forward_pass(const Mlp& net, Mlp::Cache& cache) {
  return part(net.forward_chunks(cache), [&net, &cache](int k) { net.forward_chunk(cache, k); });
}

// The backprop begin_backprop() set up on `cache`, in `chunks` chunks.
auto backprop_pass(const Mlp& net, Mlp::Cache& cache, int chunks) {
  return part(chunks, [&net, &cache](int k) { net.backprop_chunk(cache, k); });
}

// A critic's parameter step: its gradient, its Adam step and, on the same
// block, its target's Polyak update, which reads nothing else this update
// writes.
auto critic_step(Mlp& q, const Mlp::Cache& cache, const Mlp::AdamStep& a, Mlp& target,
                 double tau) {
  return part(q.param_chunks(), [&q, &cache, a, &target, tau](int k) {
    q.grad_chunk(cache, k);
    q.adam_chunk(a, k);
    target.polyak_chunk(q, tau, k);
  });
}

}  // namespace

void SacAgent::update_once(ChunkTeam* team) {
  const std::size_t batch = std::min(cfg_.batch_size, buffer_.size());
  const int n = static_cast<int>(batch);
  const double inv_b = 1.0 / static_cast<double>(batch);
  const double temp = alpha();
  const int sdim = cfg_.state_dim;
  const int dim = cfg_.action_dim;
  const int qin = sdim + dim;
  Scratch& s = scratch_;
  s.samples.resize(batch);
  for (auto& t : s.samples) t = &buffer_.sample(rng_);

  // Every phase runs the whole minibatch through each layer at once. Rows
  // keep their order everywhere — in the RNG draws, the loss sums and each
  // parameter gradient — so the result matches a sample-at-a-time update bit
  // for bit (DESIGN.md §14.4). The kernels run in regions of fixed chunks
  // (on `team` and this thread, or inline), each pairing the two critics or
  // taking passes that do not depend on each other; RNG draws and loss sums
  // stay here, in order. Input rows are [state] for the actor and [state |
  // action] for the critics.
  const auto put_state = [&](double* x, int row, int width, const std::vector<double>& state) {
    std::copy_n(state.data(), sdim, x + row * width);
  };
  const auto put_action = [&](double* x, int row, const double* action) {
    std::copy_n(action, dim, x + row * qin + sdim);
  };

  // The actor on s' (non-terminal rows) and on s, and both critics on (s, a):
  // all read parameters no step has touched yet.
  s.live.clear();
  for (int r = 0; r < n; ++r)
    if (!s.samples[r]->done) s.live.push_back(r);
  const int m = static_cast<int>(s.live.size());
  double* x = actor_.input(s.actor_next, m);
  for (int j = 0; j < m; ++j) put_state(x, j, sdim, s.samples[s.live[j]]->next_state);
  x = actor_.input(s.actor, n);
  for (int r = 0; r < n; ++r) put_state(x, r, sdim, s.samples[r]->state);
  x = q1_.input(s.q1, n);
  for (int r = 0; r < n; ++r) {
    put_state(x, r, qin, s.samples[r]->state);
    put_action(x, r, s.samples[r]->action.data());
  }
  std::copy_n(x, n * qin, q2_.input(s.q2, n));
  region(team, forward_pass(actor_, s.actor_next), forward_pass(actor_, s.actor),
         forward_pass(q1_, s.q1), forward_pass(q2_, s.q2));

  // --- Critic update: y = r + gamma(1-done)(min Q'(s',a') - alpha log pi) ---
  // a' ~ pi(s') for the non-terminal rows, scored by both target critics.
  sample_policy(s.actor_next.act.back().data(), m, s.next);
  x = q1_target_.input(s.q1_target, m);
  for (int j = 0; j < m; ++j) {
    put_state(x, j, qin, s.samples[s.live[j]]->next_state);
    put_action(x, j, &s.next.action[j * dim]);
  }
  std::copy_n(x, m * qin, q2_target_.input(s.q2_target, m));
  region(team, forward_pass(q1_target_, s.q1_target), forward_pass(q2_target_, s.q2_target));
  const double* qt1 = s.q1_target.act.back().data();
  const double* qt2 = s.q2_target.act.back().data();
  s.y.resize(batch);
  for (int r = 0; r < n; ++r) s.y[r] = s.samples[r]->reward;
  for (int j = 0; j < m; ++j)
    s.y[s.live[j]] += cfg_.gamma * (std::min(qt1[j], qt2[j]) - temp * s.next.log_prob[j]);

  const double* q1v = s.q1.act.back().data();
  const double* q2v = s.q2.act.back().data();
  double critic_loss = 0.0;
  s.dout1.resize(batch);
  s.dout2.resize(batch);
  for (int r = 0; r < n; ++r) {
    const double y = s.y[r];
    critic_loss += ((q1v[r] - y) * (q1v[r] - y) + (q2v[r] - y) * (q2v[r] - y)) * inv_b;
    s.dout1[r] = 2.0 * (q1v[r] - y);
    s.dout2[r] = 2.0 * (q2v[r] - y);
  }
  int k1 = q1_.begin_backprop(s.q1, s.dout1.data(), inv_b, nullptr, true, false);
  int k2 = q2_.begin_backprop(s.q2, s.dout2.data(), inv_b, nullptr, true, false);
  region(team, backprop_pass(q1_, s.q1, k1), backprop_pass(q2_, s.q2, k2));
  region(team,
         critic_step(q1_, s.q1, q1_.next_adam_step(cfg_.critic_lr), q1_target_, cfg_.tau),
         critic_step(q2_, s.q2, q2_.next_adam_step(cfg_.critic_lr), q2_target_, cfg_.tau));
  last_critic_loss_ = critic_loss;

  // --- Actor update: minimize alpha*log pi - min Q(s, a(s)) ----------------
  sample_policy(s.actor.act.back().data(), n, s.pol);
  x = q1_.input(s.q1, n);
  for (int r = 0; r < n; ++r) {
    put_state(x, r, qin, s.samples[r]->state);
    put_action(x, r, &s.pol.action[r * dim]);
  }
  std::copy_n(x, n * qin, q2_.input(s.q2, n));
  region(team, forward_pass(q1_, s.q1), forward_pass(q2_, s.q2));
  q1v = s.q1.act.back().data();
  q2v = s.q2.act.back().data();
  double actor_loss = 0.0;
  double mean_log_prob = 0.0;
  s.won[0].clear();
  s.won[1].clear();
  for (int r = 0; r < n; ++r) {
    actor_loss += (temp * s.pol.log_prob[r] - std::min(q1v[r], q2v[r])) * inv_b;
    mean_log_prob += s.pol.log_prob[r] * inv_b;
    s.won[q1v[r] <= q2v[r] ? 0 : 1].push_back(r);
  }
  // dL/da through the smaller critic (dout = -1, mean-scaled), each critic
  // differentiated only on the rows it won. No critic parameter gradient is
  // formed: the critics already took their step this round.
  s.dout1.assign(batch, -1.0);
  k1 = q1_.begin_backprop(s.q1, s.dout1.data(), inv_b, &s.won[0], false, true);
  k2 = q2_.begin_backprop(s.q2, s.dout1.data(), inv_b, &s.won[1], false, true);
  region(team, backprop_pass(q1_, s.q1, k1), backprop_pass(q2_, s.q2, k2));
  const double* din1 = s.q1.dact[0].data();
  const double* din2 = s.q2.dact[0].data();
  // Assemble gradients w.r.t. the actor head [mean..., log_std...].
  s.dhead.assign(batch * 2 * dim, 0.0);
  for (int r = 0; r < n; ++r) {
    const double* din = (q1v[r] <= q2v[r] ? din1 : din2) + r * qin;
    const double* action = &s.pol.action[r * dim];
    const double* log_std = &s.pol.log_std[r * dim];
    const double* eps = &s.pol.eps[r * dim];
    double* dhead = &s.dhead[r * 2 * dim];
    for (int d = 0; d < dim; ++d) {
      const double a = action[d];
      const double one_m_a2 = 1.0 - a * a;
      const double dq_da = din[sdim + d];  // action slice of input grad
      // d(log pi)/d(raw): only the tanh correction depends on raw given eps.
      const double dlogp_draw = 2.0 * a * one_m_a2 / (one_m_a2 + kTanhEps);
      const double g_raw = dq_da * one_m_a2 + (temp * inv_b) * dlogp_draw;
      dhead[d] = g_raw;  // d raw / d mean = 1
      // d raw / d log_std = sigma * eps; d(log pi)/d log_std also has the -1
      // from the Gaussian entropy term. Zero where the clamp was active.
      const bool clamped = log_std[d] <= kLogStdMin || log_std[d] >= kLogStdMax;
      if (!clamped) dhead[dim + d] = g_raw * std::exp(log_std[d]) * eps[d] - (temp * inv_b);
    }
  }
  region(team, backprop_pass(actor_, s.actor,
                        actor_.begin_backprop(s.actor, s.dhead.data(), 1.0, nullptr, true, false)));
  const Mlp::AdamStep step = actor_.next_adam_step(cfg_.actor_lr);
  region(team, part(actor_.param_chunks(), [&](int k) {
           actor_.grad_chunk(s.actor, k);
           actor_.adam_chunk(step, k);
         }));
  last_actor_loss_ = actor_loss;

  // --- Temperature update: d/dlogalpha of -logalpha*(logpi + target_H) -----
  const double g_alpha = -(mean_log_prob + cfg_.target_entropy);
  ++alpha_t_;
  alpha_m_ = 0.9 * alpha_m_ + 0.1 * g_alpha;
  alpha_v_ = 0.999 * alpha_v_ + 0.001 * g_alpha * g_alpha;
  const double m_hat = alpha_m_ / (1.0 - std::pow(0.9, static_cast<double>(alpha_t_)));
  const double v_hat = alpha_v_ / (1.0 - std::pow(0.999, static_cast<double>(alpha_t_)));
  log_alpha_ -= cfg_.alpha_lr * m_hat / (std::sqrt(v_hat) + 1e-8);
  // The target networks took their Polyak step beside the critics' Adam.
  ++updates_;
}

void SacAgent::persist(StateArchive& ar) {
  ar(rng_, actor_, q1_, q2_, q1_target_, q2_target_, log_alpha_, alpha_m_, alpha_v_, alpha_t_,
     buffer_, last_critic_loss_, last_actor_loss_, updates_);
  for (std::size_t i = 0; i < buffer_.size(); ++i) {
    const Transition& t = buffer_.at(i);
    ar.check(t.state.size() == static_cast<std::size_t>(cfg_.state_dim) &&
                 t.next_state.size() == static_cast<std::size_t>(cfg_.state_dim) &&
                 t.action.size() == static_cast<std::size_t>(cfg_.action_dim),
             "replay transition has the wrong shape");
  }
}

}  // namespace mtat
