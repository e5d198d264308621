// Wait-free strongly-linearizable max register from fetch&add (paper §3.1,
// Theorem 1).
//
// One fetch&add register R packs an n-lane bit-interleaved array; process i's
// lane holds, in unary, the largest value i has written. WriteMax(K) raises the
// caller's lane from its previous local maximum to K with a single fetch&add.
// When K is not larger, §3.1 still performs fetch&add(R, 0), which the paper
// calls "not needed for correctness, but it simplifies the linearization
// proof"; this implementation takes no step at all there. ReadMax is one step
// on R (a fetch&add(R, 0), natively a load) followed by local reconstruction of
// the lane maxima.
//
// Linearization points: a raising WriteMax and every ReadMax at their unique
// fetch&add step; a no-op WriteMax at its invocation, where the caller's own
// earlier WriteMax — already linearized — holds a value >= K, so the abstract
// state already absorbs it (docs/PROOFS.md, "Writes that cannot change the
// state"). Every point is fixed when it occurs, so the induced linearization
// function is prefix-closed — strong linearizability.
#pragma once

#include <string>

#include "core/object_api.h"
#include "primitives/faa.h"
#include "primitives/local.h"
#include "util/interleave.h"

namespace c2sl::core {

class MaxRegisterFAA : public ConcurrentObject, public MaxRegisterIface {
 public:
  /// Creates the shared register and per-process bookkeeping in `world`.
  MaxRegisterFAA(sim::World& world, const std::string& name, int n);

  void write_max(sim::Ctx& ctx, int64_t v) override;
  int64_t read_max(sim::Ctx& ctx) override;

  std::string object_name() const override { return name_; }
  Val apply(sim::Ctx& ctx, const verify::Invocation& inv) override;

  int n() const { return n_; }
  /// Current bit-width of the packed register (for the §6 width ablation).
  uint64_t register_bits(sim::Ctx& ctx);

 private:
  std::string name_;
  int n_;
  sim::Handle<prim::FetchAddBig> reg_;
  sim::Handle<prim::LocalStore<uint64_t>> prev_local_max_;
};

}  // namespace c2sl::core
