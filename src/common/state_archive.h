// The compact state codec behind ColocationSim checkpoints (DESIGN.md §17).
//
// One archive type both saves and loads. Each stateful class lists its
// mutable fields once, in a `persist(StateArchive&)` member, and the same
// list writes a snapshot and reads it back, so the two directions cannot
// drift. Integers are LEB128 varints (signed ones zigzag-coded), doubles are
// their raw 8 bytes, so every value round-trips bit-exactly. Containers whose
// length the boot config fixes go through fixed(), which rejects a stored
// length that differs.
//
// A finished state is framed by a magic tag and a trailing 64-bit checksum.
// Loading checks both before it parses anything, and finish_load() requires
// every payload byte to be consumed, so a truncated, extended or garbled
// state is rejected with std::invalid_argument rather than half-applied. The
// bytes are in host byte order: a state is in-process data that can outlive
// the sim and cross threads, not a portable file format.
//
// Saving never mutates: persist() takes a non-const reference only so one
// function serves both directions. A const owner saves through a
// const_cast (ColocationSim::snapshot does).
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace mtat {

class StateArchive;

template <class T>
concept Persistable = requires(T& t, StateArchive& ar) { t.persist(ar); };

class StateArchive {
 public:
  /// A saving archive; finish() returns the framed bytes.
  StateArchive();
  /// A loading archive over `bytes`. Throws std::invalid_argument unless the
  /// frame (magic tag, checksum) is intact.
  explicit StateArchive(std::string_view bytes);

  bool loading() const { return loading_; }

  /// Save or load each argument, in order.
  template <class... Ts>
  void operator()(Ts&... xs) {
    (io(xs), ...);
  }

  void io(bool& b);
  void io(double& v);
  void io(std::string& s);

  template <std::unsigned_integral T>
  void io(T& v) {
    std::uint64_t x = v;
    varint(x);
    if (loading_) {
      check(x <= static_cast<std::uint64_t>(static_cast<T>(~T{0})), "integer out of range");
      v = static_cast<T>(x);
    }
  }

  template <std::signed_integral T>
  void io(T& v) {
    const auto s = static_cast<std::int64_t>(v);
    std::uint64_t x = (static_cast<std::uint64_t>(s) << 1) ^ static_cast<std::uint64_t>(s >> 63);
    varint(x);
    if (loading_) {
      const auto d = static_cast<std::int64_t>((x >> 1) ^ (~(x & 1) + 1));
      check(std::in_range<T>(d), "integer out of range");
      v = static_cast<T>(d);
    }
  }

  template <class T>
    requires std::is_enum_v<T>
  void io(T& v) {
    auto u = static_cast<std::underlying_type_t<T>>(v);
    io(u);
    v = static_cast<T>(u);
  }

  template <Persistable T>
  void io(T& t) {
    t.persist(*this);
  }

  template <class T, std::size_t N>
  void io(std::array<T, N>& a) {
    for (T& x : a) io(x);
  }
  template <class T, std::size_t N>
  void io(T (&a)[N]) {
    for (T& x : a) io(x);
  }

  /// A vector of any length: its length, then its elements.
  template <class T>
  void io(std::vector<T>& v) {
    std::size_t n = v.size();
    length(n);
    if (loading_) v.resize(n);
    for (T& x : v) io(x);
  }

  /// A vector whose length the boot config fixes: stored like io(v), but on
  /// load a length other than v's current one is rejected.
  template <class T>
  void fixed(std::vector<T>& v) {
    std::size_t n = v.size();
    length(n);
    check(n == v.size(), "container length differs from the booted sim's");
    for (T& x : v) io(x);
  }

  /// An element count about to be stored or read. On load it is bounded by
  /// the bytes left (every element takes at least one), so a garbled length
  /// cannot trigger a huge allocation.
  void length(std::size_t& n);

  /// The raw LEB128 varint behind every integer. Inline: a page-table
  /// sized state runs through here twice per page.
  void varint(std::uint64_t& x) {
    if (!loading_) {
      char* p = reserve(10);
      std::uint64_t v = x;
      for (; v >= 0x80; v >>= 7) *p++ = static_cast<char>(v | 0x80);
      *p++ = static_cast<char>(v);
      len_ = static_cast<std::size_t>(p - out_.data());
    } else {
      std::uint64_t v = 0;
      for (unsigned shift = 0;; shift += 7) {
        check(pos_ < in_.size(), "truncated");
        const auto byte = static_cast<unsigned char>(in_[pos_++]);
        check(shift < 63 || byte <= 1, "varint overflow");
        v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
        if (byte < 0x80) break;
      }
      x = v;
    }
  }

  /// Saving: the framed state. Call once.
  std::string finish();
  /// Loading: throws unless the whole payload was consumed.
  void finish_load();

  /// Loading-side validation: throws std::invalid_argument(`why`) if !ok.
  void check(bool ok, const char* why) const {
    if (!ok) fail(why);
  }
  [[noreturn]] static void fail(const char* why);

 private:
  /// Saving: room for `n` more bytes at out_.data() + len_.
  char* reserve(std::size_t n) {
    if (out_.size() - len_ < n) out_.resize(2 * out_.size() + n);
    return out_.data() + len_;
  }

  bool loading_;
  std::string out_;       // saving: the frame built so far, in out_[0, len_)
  std::size_t len_ = 0;   // saving: bytes of out_ in use
  std::string_view in_;   // loading: the payload
  std::size_t pos_ = 0;   // loading: read cursor into in_
};

}  // namespace mtat
