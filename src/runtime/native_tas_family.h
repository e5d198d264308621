// Native (std::atomic) variants of the §4 constructions:
//   * NativeReadableTAS     (Thm 5):  exchange-based test&set + a state word;
//   * NativeMultishotTAS    (Thm 6):  max register + readable test&set array
//                                     (a set generation's test&set is one read);
//   * NativeFetchIncrement  (Thm 9):  least-unset search over readable test&set;
//   * NativeSet             (Thm 10): Algorithm 2 over the above.
//
// std::atomic provides the exact consensus-number-2 primitives the paper
// assumes: exchange (test&set / swap) and fetch_add. CAS is never used.
//
// Arrays are UNBOUNDED: every construction stores its cells in a
// SegmentedArray (runtime/segmented_array.h) of lazily-published doubling
// segments, matching the paper's "infinite array" model with no capacity
// configuration. The only remaining bounds are the 63-bit lane-packing limits
// of NativeMaxRegister64 (a WIDTH constraint, §6 — see the ROADMAP item), not
// array capacities.
//
// Two native-only refinements ride on the segmented layout; both preserve
// strong linearizability and both are argued in docs/PROOFS.md:
//
//   * Fetch&increment searches forward from a verified-set hint. In the Thm 9
//     usage the set cells always form a PREFIX [0, value): a test&set win at
//     index i requires every cell below i to have been observed set (or lost)
//     first, and NativeReadableTAS writes the state word on the losing path
//     too, so a single observation of state 1 at index i certifies every
//     index <= i. Each winning increment publishes i + 1 as the hint (a
//     VerifiedPrefixHint, below). Both operations start at the hint h: an
//     exponential probe (h, h+1, h+3, h+7, ... until a 0 is observed), then a
//     binary search of the last gap. The read then makes one CONFIRMING read
//     of the candidate v: a 0 observed at v AFTER every 1-observation below v
//     pins the value at exactly v at that read — a fixed own step, so the
//     linearization stays prefix-closed. Reads publish nothing.
//
//   * A verified-taken-prefix skip hint in NativeSet::take. A taken flag never
//     clears, so "every cell below h was taken" is a stable fact; take()
//     publishes the longest such prefix it verified and later sweeps start
//     there. This is what makes unbounded lane recycling
//     (service/lane_registry.h) O(1) amortized per acquire/release cycle
//     instead of O(total releases ever).
//
// Both hints are advisory: racing stores may publish a stale smaller value,
// but every published value WAS verified, so skipping below it can never
// change a response — it only removes steps whose outcome is determined.
#pragma once

#include <atomic>
#include <cstdint>

#include "runtime/native_max_register.h"
#include "runtime/segmented_array.h"
#include "util/assert.h"

namespace c2sl::rt {

/// An advisory bound on a prefix of permanently set cells: every value ever
/// stored was verified by its writer (each cell below it was observed set,
/// and set never clears). Racing publishers may leave a stale smaller value,
/// which only lengthens the next search. Release/acquire carries the
/// writer's observations to the reader, so they precede the reader's later
/// seq_cst steps in the total order (docs/PROOFS.md).
class VerifiedPrefixHint {
 public:
  size_t bound() const {
    // c2sl-atomic: load acquire — verified-prefix read; pairs with publish()
    // so the writer's set observations precede this reader's later steps
    return h_.load(std::memory_order_acquire);
  }
  void publish(size_t verified) {
    // c2sl-atomic: load relaxed — monotonicity check only; best-effort
    if (verified > h_.load(std::memory_order_relaxed)) {
      // c2sl-atomic: store release — verified-prefix write; pairs with bound()
      // (a racer's smaller overwrite is still sound)
      h_.store(verified, std::memory_order_release);
    }
  }

 private:
  std::atomic<size_t> h_{0};
};

class NativeReadableTAS {
 public:
  /// Returns 0 to exactly one caller, then 1.
  int64_t test_and_set() {
    C2SL_TEL_PRIM_TAS();
    // c2sl-atomic: tas seq_cst — the winner decision (Thm 5 readable-TAS)
    int64_t old = ts_.exchange(1, std::memory_order_seq_cst);
    // c2sl-atomic: store seq_cst — mirror write readers linearize against
    state_.store(1, std::memory_order_seq_cst);
    return old;
  }

  // c2sl-atomic: load seq_cst — the readable-TAS protocol read (Thm 5)
  int64_t read() const { return state_.load(std::memory_order_seq_cst); }

 private:
  std::atomic<int64_t> ts_{0};     // the plain test&set (exchange)
  std::atomic<int64_t> state_{0};  // the readable register
};

/// The issue-facing name for the family's backing store: readable test&set
/// cells over lazily-published doubling segments.
using SegmentedTasArray = SegmentedArray<NativeReadableTAS>;

/// Thm 5 applied index-wise over an infinite array. Reads of cells in
/// unpublished segments return 0 without allocating (the cell is untouched by
/// definition — mutators publish the segment before exchanging any cell).
class NativeReadableTasArray {
 public:
  NativeReadableTasArray() = default;

  int64_t test_and_set(size_t idx) { return cells_.cell(idx).test_and_set(); }
  int64_t read(size_t idx) const {
    const NativeReadableTAS* c = cells_.peek(idx);
    return c ? c->read() : 0;
  }

 private:
  SegmentedTasArray cells_;
};

class NativeMultishotTAS {
 public:
  /// `max_resets` bounds reset GENERATIONS, and comes from the 63-bit packing
  /// of the generation max register (n * (max_resets + 1) lane bits), not from
  /// array capacity — the test&set cells themselves are unbounded.
  NativeMultishotTAS(int n, int64_t max_resets)
      : max_resets_(max_resets), curr_(n, max_resets + 1) {}

  /// Reads the generation's cell first and returns 1 when it is set: the
  /// cell's test&set would lose without changing the state (core::MultishotTAS
  /// does the same; docs/PROOFS.md, "Writes that cannot change the state").
  int64_t test_and_set(int proc) {
    (void)proc;
    size_t c = index();
    if (ts_.read(c) == 1) return 1;
    return ts_.test_and_set(c);
  }
  int64_t read() { return ts_.read(index()); }
  void reset(int proc) {
    size_t c = index();
    if (ts_.read(c) == 1) {
      curr_.write_max(proc, static_cast<int64_t>(c));  // logical curr := c + 1
    }
  }

  /// Reset generations consumed so far (0 .. max_resets). Callers that may run
  /// out of generations (e.g. the C2Store service layer) gate reset() on this;
  /// near exhaustion the gate is advisory only, so concurrent resetters must be
  /// externally serialized for the last generation.
  int64_t generation() { return curr_.read_max(); }
  int64_t max_resets() const { return max_resets_; }

 private:
  size_t index() { return static_cast<size_t>(curr_.read_max()) + 1; }

  int64_t max_resets_;
  NativeMaxRegister64 curr_;
  NativeReadableTasArray ts_;
};

class NativeFetchIncrement {
 public:
  NativeFetchIncrement() = default;

  /// Wins the least available cell; the winning exchange is the linearization
  /// point (Thm 9). Starting the ascending scan at the searched lower bound
  /// skips only cells already OBSERVED set — cells a from-zero scan would have
  /// exchanged and lost — so the behaviour is exactly the paper's algorithm
  /// minus provably losing steps. Only this path publishes the hint.
  int64_t fetch_and_increment() {
    for (size_t i = search_from(set_prefix_.bound());; ++i) {
      if (cells_.test_and_set(i) == 0) {
        set_prefix_.publish(i + 1);  // cells [0, i] are now all set
        return static_cast<int64_t>(i);
      }
    }
  }

  /// Least index whose readable state is 0, linearized at the confirming read
  /// (header comment; proof sketch: docs/PROOFS.md §"fetch&increment").
  int64_t read() const {
    size_t from = set_prefix_.bound();
    for (;;) {
      size_t v = search_from(from);
      // Confirm: this read postdates every 1-observation below v, so a 0 here
      // pins the value at exactly v. A 1 means other increments completed
      // meanwhile; resume past it (lock-free — only completed wins can
      // invalidate a candidate).
      if (cells_.read(v) == 0) return static_cast<int64_t>(v);
      from = v + 1;
    }
  }

 private:
  /// Least index observed 0, searching forward from `base` (every index below
  /// it certified set): probe base + 2^k − 1 until a 0 is observed, then
  /// binary-search the last gap. Every index below the result was observed
  /// (or certified) set. A cell of an unpublished segment reads 0 without
  /// allocating: the spine load is the atomic step, and no cell of it has
  /// ever been exchanged.
  size_t search_from(const size_t base) const {
    size_t lo = base;  // every index < lo observed (or certified) set
    size_t hi = base;  // the next probe
    for (size_t reach = 1; cells_.read(hi) == 1; reach *= 2) {
      lo = hi + 1;
      hi = base + 2 * reach - 1;
    }
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      if (cells_.read(mid) == 1) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  NativeReadableTasArray cells_;
  VerifiedPrefixHint set_prefix_;  // advisory: cells below it verified set
};

namespace detail {
/// NativeSet cell types with the right initial states for value-initialised
/// segment construction (SegmentedArray news segments with `new T[n]()`).
struct SetItemCell {
  std::atomic<int64_t> v{INT64_MIN};  // NativeSet::kEmpty
};
struct SetTakenCell {
  std::atomic<int64_t> v{0};  // plain (non-readable) test&set
};
}  // namespace detail

class NativeSet {
 public:
  static constexpr int64_t kEmpty = INT64_MIN;

  NativeSet() = default;

  void put(int64_t x) {
    int64_t m = max_.fetch_and_increment();
    // c2sl-atomic: store seq_cst — item deposit; put linearizes at this write
    items_.cell(static_cast<size_t>(m)).v.store(x, std::memory_order_seq_cst);
  }

  /// Returns the taken item or kEmpty. Algorithm 2's sweep, restricted to
  /// [hint, Max): cells below the hint are permanently taken (header comment),
  /// so the restriction removes no candidate and moves no linearization point.
  int64_t take() {
    const size_t skip = taken_prefix_.bound();
    int64_t taken_old = 0;
    int64_t max_old = 0;
    for (;;) {
      int64_t taken_new = 0;
      int64_t max_new = max_.read();
      size_t dead = skip;  // [0, dead) verified taken during this sweep
      for (int64_t c = static_cast<int64_t>(skip); c < max_new; ++c) {
        const detail::SetItemCell* item = items_.peek(static_cast<size_t>(c));
        // c2sl-atomic: load seq_cst — Algorithm 2 sweep read of the item cell
        int64_t x = item ? item->v.load(std::memory_order_seq_cst) : kEmpty;
        if (x != kEmpty) {
          C2SL_TEL_PRIM_TAS();
          // c2sl-atomic: tas seq_cst — take decision; winner owns item c
          if (ts_.cell(static_cast<size_t>(c)).v.exchange(
                  1, std::memory_order_seq_cst) == 0) {
            if (static_cast<size_t>(c) == dead) ++dead;  // we just killed c too
            taken_prefix_.publish(dead);
            return x;
          }
          ++taken_new;
          if (static_cast<size_t>(c) == dead) ++dead;
        }
        // x == kEmpty: a pending put may still land here — the cell is not
        // dead, so the verified prefix stops growing (dead stays < c + 1 and
        // the equality above fails for every later cell of this sweep).
      }
      if (taken_new == taken_old && max_new == max_old) {
        taken_prefix_.publish(dead);
        return kEmpty;  // linearizes at this sweep's stabilised Max read
      }
      taken_old = taken_new;
      max_old = max_new;
    }
  }

 private:
  NativeFetchIncrement max_;
  SegmentedArray<detail::SetItemCell> items_;
  SegmentedArray<detail::SetTakenCell> ts_;
  VerifiedPrefixHint taken_prefix_;  // advisory: cells below it verified taken
};

}  // namespace c2sl::rt
