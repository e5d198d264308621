#include "core/multishot_tas.h"

#include "util/assert.h"

namespace c2sl::core {

MultishotTAS::MultishotTAS(std::string name, MaxRegisterIface& curr,
                           ReadableTasArrayIface& ts)
    : name_(std::move(name)), curr_(curr), ts_(ts) {}

size_t MultishotTAS::current_index(sim::Ctx& ctx) {
  return static_cast<size_t>(curr_.read_max(ctx)) + 1;
}

int64_t MultishotTAS::test_and_set(sim::Ctx& ctx) {
  size_t c = current_index(ctx);
  if (ts_.read(ctx, c) == 1) return 1;  // already set: the test&set would lose
  return ts_.test_and_set(ctx, c);
}

int64_t MultishotTAS::read(sim::Ctx& ctx) {
  return ts_.read(ctx, current_index(ctx));
}

void MultishotTAS::reset(sim::Ctx& ctx) {
  size_t c = current_index(ctx);
  if (ts_.read(ctx, c) == 1) {
    // Logical curr value c+1 == underlying max register value c.
    curr_.write_max(ctx, static_cast<int64_t>(c));
  }
}

Val MultishotTAS::apply(sim::Ctx& ctx, const verify::Invocation& inv) {
  if (inv.name == "TAS") return num(test_and_set(ctx));
  if (inv.name == "Read") return num(read(ctx));
  if (inv.name == "Reset") {
    reset(ctx);
    return unit();
  }
  C2SL_CHECK(false, "unknown multishot test&set operation: " + inv.name);
  return unit();
}

}  // namespace c2sl::core
