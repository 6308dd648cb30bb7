// Fixed-capacity experience replay for off-policy RL (SAC's D in Algorithm 1).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.h"

namespace mtat {

struct Transition {
  std::vector<double> state;
  std::vector<double> action;
  double reward = 0.0;
  std::vector<double> next_state;
  bool done = false;

  template <class Ar>
  void persist(Ar& ar) {
    ar(state, action, reward, next_state, done);
  }
};

class ReplayBuffer {
 public:
  explicit ReplayBuffer(std::size_t capacity) : capacity_(capacity) {
    if (capacity == 0) throw std::invalid_argument("ReplayBuffer: zero capacity");
    storage_.reserve(capacity);
  }

  void store(Transition t) {
    if (storage_.size() < capacity_) {
      storage_.push_back(std::move(t));
    } else {
      storage_[next_] = std::move(t);
    }
    next_ = (next_ + 1) % capacity_;
  }

  /// Uniform sample with replacement.
  const Transition& sample(Rng& rng) const {
    if (storage_.empty()) throw std::logic_error("ReplayBuffer: empty");
    return storage_[rng.next_below(storage_.size())];
  }

  std::size_t size() const { return storage_.size(); }
  const Transition& at(std::size_t i) const { return storage_[i]; }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return storage_.empty(); }

  /// Checkpoint codec (common/state_archive.h): the ring and its cursor.
  template <class Ar>
  void persist(Ar& ar) {
    ar(next_, storage_);
    ar.check(storage_.size() <= capacity_ && next_ < capacity_ &&
                 (storage_.size() == capacity_ || next_ == storage_.size()),
             "replay ring cursor out of range");
  }

 private:
  std::size_t capacity_;
  std::size_t next_ = 0;
  std::vector<Transition> storage_;
};

}  // namespace mtat
