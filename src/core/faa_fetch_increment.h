// Readable fetch&increment as ONE fetch&add word — the simulated twin of
// rt::FaaFetchIncrement (runtime/native_tas_family.h), the shipping store's
// counting object.
//
//   fetch&increment(): fetch&add(1) on the word; return the previous value.
//   read():            one read step of the word (FetchAddInt::read).
//
// Each operation is one step on one base object, so it linearizes at that
// step — a fixed own step, hence strongly linearizable. fetch&add has
// consensus number 2, the class of the paper's primitives; the paper's own
// Thm 9 construction (core/fetch_increment.h) builds the same object from
// readable test&set only. Plugged into core::SLSet (Algorithm 2, which takes
// any FaiIface), it gives the set the store ships: strong linearizability
// composes, so Thm 10's argument holds over this Max unchanged.
#pragma once

#include <string>

#include "core/object_api.h"
#include "primitives/faa.h"

namespace c2sl::core {

class FaaFetchIncrement : public FaiIface {
 public:
  FaaFetchIncrement(sim::World& world, const std::string& name)
      : word_(world.add<prim::FetchAddInt>(name)) {}

  int64_t fetch_and_increment(sim::Ctx& ctx) override {
    return ctx.world->get(word_).fetch_add(ctx, 1);
  }
  int64_t read(sim::Ctx& ctx) override { return ctx.world->get(word_).read(ctx); }

 private:
  sim::Handle<prim::FetchAddInt> word_;
};

}  // namespace c2sl::core
