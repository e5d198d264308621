// Native (std::atomic) bounded variant of the §3.2 fetch&add snapshot.
//
// n binary lanes of lane_bits each packed into one std::atomic<uint64_t>
// (n * lane_bits <= 64). Update computes posAdj − negAdj in two's-complement;
// because the owner is the only writer of its lane bits, additions never carry
// and subtractions never borrow across lanes, so the wrap-around arithmetic
// flips exactly the intended bits (same argument as the BigInt version). A
// scan is one seq_cst load of the word: a read step, the sim's
// FetchAddInt::read, not an RMW.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "telemetry/prim_profile.h"
#include "util/assert.h"

namespace c2sl::rt {

class NativeSnapshot64 {
 public:
  NativeSnapshot64(int n, int lane_bits)
      : n_(n), lane_bits_(lane_bits), prev_(static_cast<size_t>(n)) {
    C2SL_CHECK(n > 0 && lane_bits >= 1, "need n >= 1 and lane_bits >= 1");
    C2SL_CHECK(n * lane_bits <= 64, "n * lane_bits must fit in 64 bits");
  }

  int64_t max_component() const { return (int64_t{1} << lane_bits_) - 1; }

  void update(int proc, int64_t v) {
    C2SL_CHECK(proc >= 0 && proc < n_, "thread id out of range");
    C2SL_CHECK(v >= 0 && v <= max_component(), "component out of range");
    Cell& cell = prev_[static_cast<size_t>(proc)];
    uint64_t next = static_cast<uint64_t>(v);
    uint64_t delta = spread(next, proc) - spread(cell.prev, proc);  // wraps safely
    C2SL_TEL_PRIM_FAA();
    // c2sl-atomic: faa seq_cst — linearization point of Update (§4 encoding)
    reg_.fetch_add(delta, std::memory_order_seq_cst);
    cell.prev = next;
  }

  std::vector<int64_t> scan() const {
    // One step on every component at once.
    // c2sl-atomic: load seq_cst — read step; linearization point of Scan
    uint64_t snapshot = reg_.load(std::memory_order_seq_cst);
    std::vector<int64_t> view(static_cast<size_t>(n_));
    for (int i = 0; i < n_; ++i) {
      view[static_cast<size_t>(i)] = static_cast<int64_t>(extract(snapshot, i));
    }
    return view;
  }

 private:
  uint64_t spread(uint64_t lane, int i) const {
    uint64_t out = 0;
    for (int j = 0; j < lane_bits_; ++j) {
      if (lane & (uint64_t{1} << j)) {
        out |= uint64_t{1} << (static_cast<uint64_t>(j) * static_cast<uint64_t>(n_) +
                               static_cast<uint64_t>(i));
      }
    }
    return out;
  }

  uint64_t extract(uint64_t snapshot, int i) const {
    uint64_t lane = 0;
    for (int j = 0; j < lane_bits_; ++j) {
      uint64_t bit = static_cast<uint64_t>(j) * static_cast<uint64_t>(n_) +
                     static_cast<uint64_t>(i);
      if (snapshot & (uint64_t{1} << bit)) lane |= uint64_t{1} << j;
    }
    return lane;
  }

  struct alignas(64) Cell {
    uint64_t prev = 0;
  };

  int n_;
  int lane_bits_;
  std::atomic<uint64_t> reg_{0};
  std::vector<Cell> prev_;
};

}  // namespace c2sl::rt
