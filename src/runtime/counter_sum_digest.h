// CounterSumDigest — a wait-free, strongly-linearizable SUM aggregate built
// from fetch&add only (no CAS), the counter analogue of the global-max digest
// word in service/c2store.h.
//
// The paper's §3.2 snapshot packs bounded per-process components into ONE
// fetch&add register so a scan is a single read of that word — the whole
// point is that a multi-word collect cannot be strongly linearizable (the
// service's double-collect refutations, pinned in tests/service_sim_test.cpp,
// are the mechanised record). For a SUM the packing degenerates beautifully:
// addition is both the per-component update AND the cross-component combiner,
// so the per-lane components can share one accumulator word outright — every
// counter_add contributes fetch_add(1) to the same 64-bit word, and the sum
// read is one seq_cst load of it (a read step, the sim's FetchAddInt::read;
// no RMW). That word is the store's one readable fetch&increment type,
// rt::FaaFetchIncrement (runtime/native_tas_family.h), which holds the FAA
// and load sites. Each operation is a single hardware atomic on the word, in
// the one total order S of seq_cst operations, i.e. a fixed own-step
// linearization point, hence prefix-closed: strongly linearizable by
// construction. 63 bits of total bound the digest (~9.2e18 adds — not a
// reachable program state), so unlike the max digest there is no per-lane
// width budget to configure.
//
// The per-lane components are still REAL and still per-lane: each lane also
// counts its own contributions in a private cell on a SegmentedArray spine
// (cache-line padded, single-writer, published with the pinned claim-TAS →
// init → register-write pattern — see runtime/segmented_array.h). The cell is
// a plain register: relaxed load + relaxed store by its one owner, no RMW.
// The cells are deliberately NOT on the sum read path — reading them one by
// one would be exactly the collect the checker refutes. They exist because
// the decomposition is useful anyway:
//   * diagnostics/introspection (who produced the traffic), exposed upward as
//     C2Store::lane_counter_adds();
//   * a testable conservation invariant: add() stores the OWN LANE CELL FIRST
//     and fetch&adds the total second, so a reader that reads the total and
//     THEN the lane cells always sees
//         read() <= sum over lanes of lane_contribution(lane)
//     (the total never leads the components), with equality at quiescence.
//     The cell store is sequenced before the total's seq_cst (hence release)
//     fetch_add, every later fetch_add on the total continues its release
//     sequence, and the reader's seq_cst (hence acquire) load of the total
//     synchronizes with it — so the cell store happens before the reader's
//     cell loads;
//   * the future shard-rebalancing item (ROADMAP) wants per-producer digests
//     whose migration can be replayed component-wise.
//
// Cross-facet order, one level up: C2Store's CounterRef::inc writes the SHARD
// counter first and this digest second — the digest never runs ahead of the
// keyed read paths, mirroring (and pinned by the same sim tests as) the
// global-max digest contract. docs/PROOFS.md §"The counter-sum digest" gives
// the full argument.
#pragma once

#include <atomic>
#include <cstdint>

#include "runtime/native_tas_family.h"
#include "runtime/segmented_array.h"
#include "util/assert.h"

namespace c2sl::rt {

class CounterSumDigest {
 public:
  CounterSumDigest() = default;

  /// One contribution from `lane`. Own lane cell first, total second: the
  /// total word never leads the per-lane components. The total fetch_add is
  /// the operation's linearization point (a fixed own-step).
  void add(int lane) {
    C2SL_CHECK(lane >= 0, "lane must be non-negative");
    std::atomic<int64_t>& c = lanes_.cell(static_cast<size_t>(lane)).v;
    // Published to total-first readers by the total's fetch_add below.
    // c2sl-atomic: store relaxed, load relaxed — single-writer lane cell
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    total_.fetch_and_increment();  // linearization point (fixed own-step)
  }

  /// The digest read: one seq_cst load of the total word — wait-free,
  /// strongly linearizable (the §3.2 single-word-scan move, degenerate sum
  /// form). Acquire as well: lane cells read after it see every add it counts.
  int64_t read() const { return total_.read(); }

  /// Contributions recorded by `lane` (diagnostics; never on the sum path).
  /// An unpublished lane segment reads as 0 — the lane has never added.
  int64_t lane_contribution(int lane) const {
    C2SL_CHECK(lane >= 0, "lane must be non-negative");
    const LaneCell* c = lanes_.peek(static_cast<size_t>(lane));
    // c2sl-atomic: load relaxed — diagnostics-only; never feeds the sum path
    return c ? c->v.load(std::memory_order_relaxed) : 0;
  }

 private:
  /// Padded so neighbouring lanes never share a cache line (each cell is
  /// single-writer; the padding keeps the write path truly uncontended).
  /// Atomic only so the diagnostic reader is well-defined.
  struct alignas(64) LaneCell {
    std::atomic<int64_t> v{0};
  };

  SegmentedArray<LaneCell> lanes_;
  FaaFetchIncrement total_;
};

}  // namespace c2sl::rt
