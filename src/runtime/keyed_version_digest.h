// KeyedVersionDigest — the write journal behind C2Session::snapshot(): a
// strongly-linearizable multi-key read surface built from fetch&add and plain
// registers only (no CAS, no capacity knobs), on the SegmentedArray spine.
//
// Why a journal and not a per-key-version double-collect. The obvious
// construction — bump a per-key FAA version word on every write, double-collect
// the keyed values until the version vector stabilises — is linearizable but
// NOT strongly linearizable, by the same future-dependence that kills every
// validation-window scheme (the pinned double-collect refutations in
// tests/service_sim_test.cpp): whether a collect "was consistent" is decided
// by version reads the scanner performs LATER, so the scan's linearization
// point is not prefix-closed. Worse, overlapping scans can be forced into a
// prefix-closure contradiction by one in-flight writer whose value step landed
// but whose version bump is deferred past both validations (docs/PROOFS.md
// works the two-scanner anomaly in full). The paper's way out (§3.1/§3.2) is
// to make every operation linearize at ONE step of its own on ONE word — so
// the multi-key state is packed behind a single fetch&add TAIL:
//
//   * every keyed write appends one immutable entry to a ticket-indexed
//     journal — the ticket fetch&add on the tail word IS the write's
//     linearization point (fixed own-step);
//   * a snapshot reads the tail once with a seq_cst load — its linearization
//     point, one read step in the same total order S as the ticket
//     fetch&adds (no RMW) — and deterministically REPLAYS entries below that
//     ticket into per-shard accumulators. Two snapshots that read the same
//     tail return identical vectors; prefix closure holds because every op's
//     point is its own step.
//
// The tail word doubles as the "version digest" of the ISSUE: it advances by
// exactly one per keyed write, so it bounds the replay the way the per-key
// version words were meant to bound the double-collect — except here the bound
// is exact and the collect is a deterministic function of it.
//
// Entry deposit protocol (the HandoffQueue rendezvous idiom): the ticket owner
// writes the plain payload word first, then publishes the packed meta word
// with a release store; meta == 0 means not-ready. A replayer that holds a
// tail ticket T acquire-spins on the meta of each entry below T — bounded by
// the number of writers still between their ticket fetch&add and their
// deposit, so snapshots are lock-free but not wait-free (a stalled depositor
// stalls replayers; the entry CONTENT is nevertheless fixed at ticket time,
// which is what keeps the replay deterministic). Entries are write-once and
// 16 bytes; adjacent tickets may share a cache line — deposits are two plain
// stores, so the contended word is the tail, not the cells.
//
// Growth: the journal is unbounded (one entry per keyed write, on the lazily
// grown SegmentedArray — no capacity knobs). Truncation/compaction below the
// slowest session cursor is the ROADMAP follow-up; sessions keep replay
// cursors precisely so that becomes a local change.
#pragma once

#include <atomic>
#include <cstdint>

#include "runtime/segmented_array.h"
#include "util/assert.h"

namespace c2sl::rt {

class KeyedVersionDigest {
 public:
  /// Journal entry kinds. Values start at 1: a zero meta word is the
  /// not-yet-deposited state the replayer spins on.
  enum class Kind : int {
    kCounterInc = 1,  ///< +1 on shard_a's ledger balance
    kMaxWrite = 2,    ///< max-merge v into shard_a's max
    kTransfer = 3,    ///< move v from shard_a's to shard_b's ledger balance
    kResize = 4,      ///< routing grew to v shard slots (appended after the
                      ///< migration replay, before the epoch publish).
                      ///< INFORMATIONAL: the snapshot facet is bucketed under
                      ///< the INITIAL mask forever, so replayers skip this
                      ///< marker — it exists for audit tools and tests.
  };

  struct EntryView {
    Kind kind;
    int shard_a;
    int shard_b;
    int64_t v;
  };

  KeyedVersionDigest() = default;

  /// Appends one entry; returns its ticket. The tail fetch&add is the
  /// operation's linearization point on the snapshot facet — the entry's
  /// content is fixed here (the deposit below merely publishes it).
  int64_t append(Kind kind, int shard_a, int shard_b, int64_t v) {
    C2SL_CHECK(shard_a >= 0 && shard_a < (1 << kShardBits) && shard_b >= 0 &&
                   shard_b < (1 << kShardBits),
               "journal shard index out of range");
    C2SL_TEL_PRIM_FAA();
    // c2sl-atomic: faa seq_cst — ticket issue; linearization point of the
    // keyed write on the snapshot facet (fixed own-step)
    int64_t t = tail_.fetch_add(1, std::memory_order_seq_cst);
    Cell& c = cells_.cell(static_cast<size_t>(t));
    c.v = v;  // plain payload store; ordered by the meta release below
    // c2sl-atomic: store release — entry publish: a replayer's acquire load of
    // meta carries visibility of the payload word
    c.meta.store(pack(kind, shard_a, shard_b), std::memory_order_release);
    return t;
  }

  /// The version-digest read: one seq_cst load of the tail — wait-free, and
  /// the linearization point of any snapshot that replays up to the result.
  int64_t version() const {
    // c2sl-atomic: load seq_cst — read step; the snapshot's linearization point
    return tail_.load(std::memory_order_seq_cst);
  }

  /// Entry at `ticket` (< some tail read). Spins until the ticket owner's
  /// deposit is published — bounded by in-flight writers (see header).
  EntryView entry(int64_t ticket) {
    Cell& c = cells_.cell(static_cast<size_t>(ticket));
    uint64_t m;
    // c2sl-atomic: load acquire — deposit-publication spin; pairs with the
    // release store in append
    while ((m = c.meta.load(std::memory_order_acquire)) == 0) {
    }
    return EntryView{static_cast<Kind>(m & 0x7u),
                     static_cast<int>((m >> 3) & kShardMask),
                     static_cast<int>((m >> (3 + kShardBits)) & kShardMask),
                     c.v};
  }

  /// Tickets issued (diagnostics; may exceed the published prefix while
  /// deposits are in flight). Never on the snapshot path.
  int64_t tickets_issued() const {
    // c2sl-atomic: load relaxed — diagnostics-only tail peek
    return tail_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr int kShardBits = 24;
  static constexpr uint64_t kShardMask = (uint64_t{1} << kShardBits) - 1;

  static uint64_t pack(Kind kind, int shard_a, int shard_b) {
    return static_cast<uint64_t>(kind) |
           (static_cast<uint64_t>(shard_a) << 3) |
           (static_cast<uint64_t>(shard_b) << (3 + kShardBits));
  }

  /// Write-once entry cell. meta == 0 is the uninitialised state the
  /// SegmentedArray's value-initialisation guarantees; the payload is a plain
  /// word ordered entirely by the meta release/acquire pair.
  struct Cell {
    std::atomic<uint64_t> meta{0};
    int64_t v = 0;
  };

  SegmentedArray<Cell> cells_;
  std::atomic<int64_t> tail_{0};
};

}  // namespace c2sl::rt
