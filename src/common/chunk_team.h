// Regions of fixed chunks, run by the calling thread and a team of helpers.
//
// A region is a count of chunks and one body; running every chunk once, in
// any order and on any thread, must give what running them in order does.
// The bodies that use this (the Mlp kernels under SAC training, DESIGN.md
// §14.4) are split so that no two chunks write the same value and each
// value's arithmetic stays inside one chunk, so the bits never depend on
// which thread ran what.
//
// run_chunks() with no team runs the same chunk loop in order on the caller,
// which is what every sim without helper threads does.
#pragma once

#include <cstddef>

namespace mtat {

class ChunkTeam {
 public:
  using ChunkFn = void (*)(const void* body, std::size_t chunk);

  /// Runs fn(body, c) once for every c in [0, chunks), on the calling thread
  /// and whichever helpers are free, and returns when all have finished.
  /// The caller claims chunks itself and never waits for a helper to wake.
  /// Bodies must not throw or allocate.
  virtual void run(std::size_t chunks, ChunkFn fn, const void* body) = 0;

 protected:
  ~ChunkTeam() = default;
};

/// body(c) for every c in [0, chunks): on `team` when there is one, else in
/// order on the calling thread.
template <class Body>
void run_chunks(ChunkTeam* team, std::size_t chunks, const Body& body) {
  if (team == nullptr) {
    for (std::size_t c = 0; c < chunks; ++c) body(c);
    return;
  }
  team->run(
      chunks, [](const void* b, std::size_t c) { (*static_cast<const Body*>(b))(c); }, &body);
}

}  // namespace mtat
