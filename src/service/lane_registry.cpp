#include "service/lane_registry.h"

#include "util/assert.h"

namespace c2sl::svc {

int LaneRegistry::try_acquire() {
  // 1. Recycle a freed lane if one is waiting.
  int64_t recycled = free_.take();
  if (recycled != rt::NativeSet::kEmpty) return static_cast<int>(recycled);

  // 2. Fresh ticket. The pre-read keeps the dispenser from drifting when the
  // registry is already exhausted (every failed try_acquire would otherwise
  // burn a ticket); the fetch&increment itself is still the linearization
  // point of a successful fresh acquire — the pre-read is an optimisation, not
  // a gate. Racing acquirers that all pass it may draw past max_lanes; those
  // tickets deal no lane and the acquirer falls through to step 3.
  if (next_.read() < max_lanes_) {
    int64_t t = next_.fetch_and_increment();
    if (t < max_lanes_) return static_cast<int>(t);
  }

  // 3. Tickets are spent; a release may have landed since step 1.
  recycled = free_.take();
  if (recycled != rt::NativeSet::kEmpty) return static_cast<int>(recycled);
  return kNone;
}

int LaneRegistry::acquire_blocking() {
  for (;;) {
    int lane = try_acquire();
    if (lane != kNone) return lane;
    size_t t = handoff_.enqueue();
    // Re-poll AFTER the enqueue made this waiter visible: a release whose
    // hand() guard ran before the enqueue routed its lane to the free set,
    // and its post-put re-check may have run before the enqueue too — this
    // probe is the waiter's half of that Dekker pair (release() holds the
    // other half), so one of the two always sees the lane.
    lane = try_acquire();
    if (lane != kNone) {
      int64_t raced = handoff_.cancel(t);
      // A delivery can beat the cancellation; this caller then briefly owns
      // TWO lanes and must return one (to the next waiter or the free set).
      if (raced >= 0) release(static_cast<int>(raced));
      return lane;
    }
    int64_t v = handoff_.await(t);
    if (v == rt::HandoffQueue::kRevoked) continue;  // free set refilled: retry
    return static_cast<int>(v);
  }
}

int LaneRegistry::acquire_for(std::chrono::nanoseconds timeout) {
  // The non-blocking probe comes before the clock read, so an uncontended
  // acquire reads no clock; the deadline counts from the first failed probe.
  int lane = try_acquire();
  if (lane != kNone) return lane;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    size_t t = handoff_.enqueue();
    lane = try_acquire();  // same Dekker probe as acquire_blocking
    if (lane != kNone) {
      int64_t raced = handoff_.cancel(t);
      if (raced >= 0) release(static_cast<int>(raced));
      return lane;
    }
    int64_t v = handoff_.await_until(t, deadline);
    if (v == rt::HandoffQueue::kTimedOut) {
      v = handoff_.cancel(t);
      if (v >= 0) return static_cast<int>(v);  // a delivery beat the timeout
      return kNone;
    }
    if (v == rt::HandoffQueue::kRevoked) {
      if (std::chrono::steady_clock::now() >= deadline) return kNone;
      lane = try_acquire();  // free set refilled: retry within the deadline
      if (lane != kNone) return lane;
      continue;
    }
    return static_cast<int>(v);
  }
}

void LaneRegistry::release(int lane) {
  C2SL_CHECK(lane >= 0 && lane < max_lanes_, "lane out of range");
  int64_t l = lane;
  for (;;) {
    // Direct handoff first: the oldest blocked acquirer gets the lane without
    // a free-set round trip (and without racing opportunistic try_acquires).
    if (handoff_.hand(l)) return;
    free_.put(l);
    // Dekker re-check: a waiter may have enqueued between hand()'s guard and
    // the put above, then missed the lane in its own probe. If one is
    // visible, pull a lane back out and hand it; an empty take means some
    // other thread took the lane meanwhile (progress either way).
    if (!handoff_.waiters_pending()) return;
    int64_t back = free_.take();
    if (back == rt::NativeSet::kEmpty) return;
    l = back;
  }
}

}  // namespace c2sl::svc
