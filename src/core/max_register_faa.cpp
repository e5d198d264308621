#include "core/max_register_faa.h"

#include <algorithm>

#include "util/assert.h"

namespace c2sl::core {

MaxRegisterFAA::MaxRegisterFAA(sim::World& world, const std::string& name, int n)
    : name_(name), n_(n) {
  C2SL_CHECK(n > 0, "max register needs at least one process");
  reg_ = world.add<prim::FetchAddBig>(name + ".R");
  prev_local_max_ = world.add<prim::LocalStore<uint64_t>>(name + ".prevLocalMax", n,
                                                          uint64_t{0});
}

void MaxRegisterFAA::write_max(sim::Ctx& ctx, int64_t v) {
  C2SL_CHECK(v >= 0, "max register values are non-negative");
  C2SL_CHECK(ctx.self >= 0 && ctx.self < n_, "process id out of range");
  uint64_t k = static_cast<uint64_t>(v);
  uint64_t& prev = ctx.world->get(prev_local_max_).local(ctx);
  // A no-op write takes no step: §3.1's fetch&add(R, 0) here is "not needed
  // for correctness", and the write linearizes at its invocation (header).
  if (k <= prev) return;
  BigInt delta = lanes::unary_raise_delta(n_, ctx.self, prev, k);
  ctx.world->get(reg_).fetch_add(ctx, delta);
  prev = k;
}

int64_t MaxRegisterFAA::read_max(sim::Ctx& ctx) {
  BigInt snapshot = ctx.world->get(reg_).fetch_add(ctx, BigInt(0));
  uint64_t best = 0;
  for (uint64_t lane : lanes::all_unary_lanes(snapshot, n_)) {
    best = std::max(best, lane);
  }
  return static_cast<int64_t>(best);
}

Val MaxRegisterFAA::apply(sim::Ctx& ctx, const verify::Invocation& inv) {
  if (inv.name == "WriteMax") {
    write_max(ctx, as_num(inv.args));
    return unit();
  }
  if (inv.name == "ReadMax") {
    return num(read_max(ctx));
  }
  C2SL_CHECK(false, "unknown max register operation: " + inv.name);
  return unit();
}

uint64_t MaxRegisterFAA::register_bits(sim::Ctx& ctx) {
  return ctx.world->get(reg_).peek().bit_length();
}

}  // namespace c2sl::core
