#include "common/state_archive.h"

#include <cstring>
#include <stdexcept>

namespace mtat {

namespace {

constexpr std::string_view kMagic = "mtatst01";
constexpr std::size_t kChecksumBytes = 8;

/// Word-at-a-time multiply-xorshift hash with a splitmix64 finish: cheap on
/// a 100 KiB state, and any flipped, dropped or appended byte changes it.
std::uint64_t checksum(std::string_view s) {
  std::uint64_t h = 0x9E3779B97F4A7C15ull ^ s.size();
  std::size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, s.data() + i, 8);
    h = (h ^ w) * 0xFF51AFD7ED558CCDull;
    h ^= h >> 29;
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, s.data() + i, s.size() - i);
  h = (h ^ tail) * 0xC4CEB9FE1A85EC53ull;
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  return h ^ (h >> 31);
}

}  // namespace

StateArchive::StateArchive() : loading_(false), out_(kMagic), len_(kMagic.size()) {}

StateArchive::StateArchive(std::string_view bytes) : loading_(true) {
  if (bytes.size() < kMagic.size() + kChecksumBytes || bytes.substr(0, kMagic.size()) != kMagic)
    fail("not a sim state (bad frame)");
  const std::string_view body = bytes.substr(0, bytes.size() - kChecksumBytes);
  std::uint64_t stored;
  std::memcpy(&stored, bytes.data() + body.size(), kChecksumBytes);
  if (stored != checksum(body)) fail("checksum mismatch");
  in_ = body.substr(kMagic.size());
}

void StateArchive::fail(const char* why) {
  throw std::invalid_argument(std::string("sim state: ") + why);
}

void StateArchive::length(std::size_t& n) {
  std::uint64_t x = n;
  varint(x);
  if (loading_) {
    check(x <= in_.size() - pos_, "length exceeds the state");
    n = static_cast<std::size_t>(x);
  }
}

void StateArchive::io(bool& b) {
  std::uint64_t x = b ? 1 : 0;
  varint(x);
  check(x <= 1, "bad bool");
  b = x != 0;
}

void StateArchive::io(double& v) {
  if (!loading_) {
    std::memcpy(reserve(8), &v, 8);
    len_ += 8;
    return;
  }
  check(in_.size() - pos_ >= 8, "truncated");
  std::memcpy(&v, in_.data() + pos_, 8);
  pos_ += 8;
}

void StateArchive::io(std::string& s) {
  std::size_t n = s.size();
  length(n);
  if (!loading_) {
    std::memcpy(reserve(n), s.data(), n);
    len_ += n;
    return;
  }
  s.assign(in_.substr(pos_, n));
  pos_ += n;
}

std::string StateArchive::finish() {
  const std::uint64_t sum = checksum(std::string_view(out_.data(), len_));
  std::memcpy(reserve(kChecksumBytes), &sum, kChecksumBytes);
  out_.resize(len_ + kChecksumBytes);
  out_.shrink_to_fit();  // checkpoints are kept; drop the growth slack
  return std::move(out_);
}

void StateArchive::finish_load() { check(pos_ == in_.size(), "trailing bytes"); }

}  // namespace mtat
