// Soft Actor-Critic (Haarnoja et al. 2018), the RL algorithm of PP-M's
// Algorithm 1: twin Q-networks with Polyak-averaged targets, a tanh-squashed
// Gaussian policy trained by the reparameterization trick, and automatic
// entropy-temperature tuning.
//
// Actions live in [-1, 1]^dim; the caller (core/ppm) maps them onto the
// paper's admissible range alpha in [-M/2t, +M/2t] (Eq. 1).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "obs/run_context.h"
#include "rl/mlp.h"
#include "rl/replay_buffer.h"

namespace mtat {

class StateArchive;

struct SacConfig {
  int state_dim = 3;   ///< paper: UsageRatio, AccessRatio, AccessCount
  int action_dim = 1;  ///< paper: scalar FMem delta
  std::vector<int> hidden = {64, 64};
  double actor_lr = 3e-4;
  double critic_lr = 3e-4;
  double alpha_lr = 3e-4;
  double gamma = 0.95;
  double tau = 0.005;             ///< target-network Polyak factor
  double init_alpha = 0.2;        ///< initial entropy temperature
  double target_entropy = -1.0;   ///< default: -action_dim
  std::size_t batch_size = 64;
  std::size_t buffer_capacity = 100'000;
  std::size_t min_buffer_for_update = 50;  ///< paper: update after 50 samples
  std::uint64_t seed = 7;
};

class SacAgent {
 public:
  explicit SacAgent(const SacConfig& cfg);

  /// Sample an action in [-1, 1]^dim. Deterministic mode returns tanh(mean)
  /// (evaluation); stochastic mode draws from the squashed Gaussian.
  std::vector<double> act(const std::vector<double>& state, bool deterministic = false);

  /// Record a transition into the replay buffer. Transitions containing any
  /// non-finite value are rejected (counted as rl.rejected_transitions) —
  /// never clamped into the buffer — so corrupted observations cannot reach
  /// a gradient update. Vectors of the wrong dimension throw
  /// std::invalid_argument.
  void observe(const std::vector<double>& state, const std::vector<double>& action,
               double reward, const std::vector<double>& next_state, bool done);

  bool ready_to_update() const { return buffer_.size() >= cfg_.min_buffer_for_update; }

  /// Run `steps` gradient updates (critic, actor, temperature, targets).
  /// Their kernels run in regions on the context's chunk team when it has
  /// one (obs::RunContext::chunk_team), with the same bits as inline.
  void update(int steps = 1);

  /// Wire the agent to a run's observability: register training metrics
  /// (update count, losses, temperature) with `ctx`'s registry and record
  /// update events into its trace; updates take the context's chunk team.
  /// nullptr detaches. The context must outlive the agent (or be detached
  /// first).
  void set_run_context(obs::RunContext* ctx);

  double alpha() const;
  std::size_t buffer_size() const { return buffer_.size(); }
  double last_critic_loss() const { return last_critic_loss_; }
  double last_actor_loss() const { return last_actor_loss_; }
  std::uint64_t updates_performed() const { return updates_; }

  /// Q-value estimate min(Q1, Q2)(s, a) — for tests and diagnostics.
  double q_value(const std::vector<double>& state, const std::vector<double>& action) const;

  /// The networks in construction order (actor, Q1, Q2, Q1 target, Q2
  /// target), read-only — exposed for tests.
  std::array<const Mlp*, 5> networks() const {
    return {&actor_, &q1_, &q2_, &q1_target_, &q2_target_};
  }

  /// Forces every network's kernels to `level` (tests compare levels; all
  /// give bit-identical results). Throws std::invalid_argument if the host
  /// lacks it.
  void set_simd_level(SimdLevel level);

  /// Checkpoint codec (common/state_archive.h): the sampling stream, all
  /// five networks with their optimizer state, the temperature and its
  /// Adam state, the replay buffer and the update counters.
  void persist(StateArchive& ar);

 private:
  /// Squashed-Gaussian draws for a batch of actor heads: the action in
  /// [-1,1], the clamped log-std and the noise, plus each row's
  /// log-probability.
  struct PolicyBatch {
    std::vector<double> action, log_std, eps;  // rows × action_dim
    std::vector<double> log_prob;              // one per row
  };

  /// Training buffers, reused across updates so a step allocates nothing.
  struct Scratch {
    std::vector<const Transition*> samples;
    std::vector<int> live;    // rows whose transition is not terminal
    std::vector<int> won[2];  // rows where Q1 (resp. Q2) is the smaller
    std::vector<double> y, dout1, dout2, dhead;
    PolicyBatch next, pol;
    Mlp::Cache actor_next, actor, q1, q2, q1_target, q2_target;
  };

  /// Draws one action per row of `head` (`rows × 2·action_dim`, [mean...,
  /// log_std...]), taking action_dim Gaussians per row in row order.
  void sample_policy(const double* head, int rows, PolicyBatch& out);
  void update_once(ChunkTeam* team);

  SacConfig cfg_;
  Rng rng_;
  Mlp actor_;           // state -> [mean..., log_std...]
  Mlp q1_, q2_;         // state+action -> scalar
  Mlp q1_target_, q2_target_;
  double log_alpha_;
  double alpha_m_ = 0.0, alpha_v_ = 0.0;  // Adam state for the temperature
  std::uint64_t alpha_t_ = 0;
  ReplayBuffer buffer_;
  double last_critic_loss_ = 0.0;
  double last_actor_loss_ = 0.0;
  std::uint64_t updates_ = 0;
  obs::RunContext* ctx_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;
  faults::FaultInjector* faults_ = nullptr;
  obs::Counter* updates_c_ = nullptr;
  obs::Gauge* critic_loss_g_ = nullptr;
  obs::Gauge* actor_loss_g_ = nullptr;
  obs::Gauge* alpha_g_ = nullptr;
  obs::Counter* rejected_c_ = nullptr;
  obs::Counter* actions_corrupted_c_ = nullptr;  // set iff faults_ != nullptr
  Scratch scratch_;
};

}  // namespace mtat
