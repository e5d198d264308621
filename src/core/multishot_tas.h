// Readable MULTI-SHOT test&set (adds reset) from readable test&set and a max
// register (paper §4.1, Theorem 6, Corollaries 7 and 8).
//
// Shared state: a max register `curr` (logical value starts at 1) and an
// infinite array TS of readable test&set objects.
//   test&set(): c = curr.readMax(); if TS[c].read() == 1: return 1
//               return TS[c].test&set()
//   read():     return TS[curr.readMax()].read()
//   reset():    c = curr.readMax(); if TS[c].read() == 1: curr.writeMax(c+1)
//
// The object's state is that of TS[v] where v is curr's current value; the
// logical reset event is the first curr.writeMax(v+1), which batch-linearizes
// every operation that read v from curr but had not yet accessed TS[v]
// (Thm 6 proof). Prefix-closure follows because those events are fixed once
// they occur.
//
// The test&set's pre-read is not in the paper: a set cell makes the cell's
// test&set a losing no-op, so the operation returns 1 at the read instead.
// It linearizes at that read, or — when a Reset's curr.writeMax(c+1) came
// between its curr read and its TS[c] read — just before that Reset, the
// place the losing test&set would have linearized (docs/PROOFS.md, "Writes
// that cannot change the state").
//
// The construction is parameterised by its two capabilities, giving the
// paper's corollaries by substitution:
//   * Cor 7 (wait-free, from test&set + fetch&add): MaxRegisterFAA +
//     ReadableTasArray;
//   * Cor 8 (lock-free, from test&set only): RWMaxRegister (registers) +
//     ReadableTasArray;
//   * the "(atomic) base objects" reading of Thm 6: AtomicMaxRegister +
//     AtomicReadableTasArray.
#pragma once

#include <string>

#include "core/object_api.h"

namespace c2sl::core {

class MultishotTAS : public ConcurrentObject {
 public:
  /// `curr` and `ts` must outlive this object.
  MultishotTAS(std::string name, MaxRegisterIface& curr, ReadableTasArrayIface& ts);

  int64_t test_and_set(sim::Ctx& ctx);
  int64_t read(sim::Ctx& ctx);
  void reset(sim::Ctx& ctx);

  std::string object_name() const override { return name_; }
  Val apply(sim::Ctx& ctx, const verify::Invocation& inv) override;

 private:
  /// curr's logical value = 1 + underlying max register value (which starts 0).
  size_t current_index(sim::Ctx& ctx);

  std::string name_;
  MaxRegisterIface& curr_;
  ReadableTasArrayIface& ts_;
};

}  // namespace c2sl::core
