#include "baselines/collect_scans.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "service/c2store.h"
#include "util/assert.h"

namespace c2sl::baselines {

/// The scans' one door into the store: C2Store befriends this struct so the
/// native scans read a slot's objects without materialising it, and without
/// adding a public per-slot accessor to the shipping API.
struct ShardPeek {
  static const svc::ShardObjects* at(const svc::C2Store& store, int s) {
    return store.peek(s);
  }
};

namespace {

// Collects read(0 .. shards-1) until two consecutive collects coincide, for at
// most `max_rounds` collects. Returns whether a stable pair was found; `out`
// holds the last collect either way (max_rounds = 1 is the naive one-pass
// scan). Unmaterialised shards read as 0 and can only become materialised,
// and the per-shard values only grow, so a stable pair certifies a single
// instant at which all collected values were current. Two buffers, swapped
// between rounds: no allocation after the second round.
template <typename ReadShard>
bool stable_collect(int shards, const ReadShard& read, int max_rounds,
                    std::vector<int64_t>& out) {
  std::vector<int64_t> prev;  // empty: never equal to the first collect
  std::vector<int64_t> curr(static_cast<size_t>(shards));
  for (int round = 0; round < max_rounds; ++round) {
    for (int s = 0; s < shards; ++s) curr[static_cast<size_t>(s)] = read(s);
    if (curr == prev) {
      out = std::move(curr);
      return true;
    }
    prev.swap(curr);
    curr.resize(static_cast<size_t>(shards));
  }
  out = std::move(prev);
  return false;
}

// The sim scans: unbounded (the explorer's finite writes stop every retry
// loop) or, without double_collect, one pass.
template <typename ReadShard>
std::vector<int64_t> sim_scan(int shards, bool double_collect,
                              const ReadShard& read) {
  std::vector<int64_t> view;
  stable_collect(shards, read,
                 double_collect ? std::numeric_limits<int>::max() : 1, view);
  return view;
}

void check_power_of_two(int shards) {
  C2SL_CHECK(shards > 0 && (shards & (shards - 1)) == 0,
             "shard count must be a power of two");
}

}  // namespace

// --- native scans ------------------------------------------------------------

// The scanned range is the shard count read ONCE; counts only grow, so an
// unchanged count after the collect certifies no epoch published mid-scan.
// Fallbacks: an unstable collect, or a resize published mid-scan (newer slots
// were never read). The digest step sits inside the scan's interval, so the
// scan stays linearizable either way.
int64_t global_max_scan(const svc::C2Store& store) {
  int shards = store.shard_count();
  std::vector<int64_t> view;
  bool stable = stable_collect(
      shards,
      [&store](int s) {
        const svc::ShardObjects* p = ShardPeek::at(store, s);
        return p ? p->max.read_max() : 0;
      },
      kScanRetryRounds, view);
  if (!stable || store.shard_count() != shards) return store.global_max();
  return *std::max_element(view.begin(), view.end());
}

int64_t counter_sum_scan(const svc::C2Store& store) {
  int shards = store.shard_count();
  std::vector<int64_t> view;
  bool stable = stable_collect(
      shards,
      [&store](int s) {
        const svc::ShardObjects* p = ShardPeek::at(store, s);
        return p ? p->counter.read() : 0;
      },
      kScanRetryRounds, view);
  if (!stable || store.shard_count() != shards) return store.counter_sum();
  return std::accumulate(view.begin(), view.end(), int64_t{0});
}

// --- SimShardedMaxRegister -----------------------------------------------------

SimShardedMaxRegister::SimShardedMaxRegister(sim::World& world, std::string name,
                                             int n, int shards, bool double_collect)
    : name_(std::move(name)), shards_(shards), double_collect_(double_collect) {
  check_power_of_two(shards);
  for (int s = 0; s < shards; ++s) {
    regs_.push_back(std::make_unique<core::MaxRegisterFAA>(
        world, name_ + ".shard" + std::to_string(s), n));
  }
}

void SimShardedMaxRegister::write_max(sim::Ctx& ctx, int64_t v) {
  int s = static_cast<int>(static_cast<uint64_t>(v) & static_cast<uint64_t>(shards_ - 1));
  regs_[static_cast<size_t>(s)]->write_max(ctx, v);
}

int64_t SimShardedMaxRegister::read_max(sim::Ctx& ctx) {
  std::vector<int64_t> view = sim_scan(shards_, double_collect_, [&](int s) {
    return regs_[static_cast<size_t>(s)]->read_max(ctx);
  });
  return *std::max_element(view.begin(), view.end());
}

Val SimShardedMaxRegister::apply(sim::Ctx& ctx, const verify::Invocation& inv) {
  if (inv.name == "WriteMax") {
    write_max(ctx, as_num(inv.args));
    return unit();
  }
  if (inv.name == "ReadMax") return num(read_max(ctx));
  C2SL_CHECK(false, "unknown operation on sharded max register: " + inv.name);
  return unit();
}

// --- SimShardedCounter ---------------------------------------------------------

SimShardedCounter::SimShardedCounter(sim::World& world, std::string name, int shards,
                                     bool double_collect)
    : name_(std::move(name)), shards_(shards), double_collect_(double_collect) {
  check_power_of_two(shards);
  for (int s = 0; s < shards; ++s) {
    ts_.push_back(std::make_unique<core::AtomicReadableTasArray>(
        world, name_ + ".M" + std::to_string(s)));
    ctrs_.push_back(std::make_unique<core::FetchIncrement>(
        name_ + ".ctr" + std::to_string(s), *ts_.back()));
  }
}

void SimShardedCounter::inc(sim::Ctx& ctx) {
  int s = static_cast<int>(static_cast<uint64_t>(ctx.self) &
                           static_cast<uint64_t>(shards_ - 1));
  ctrs_[static_cast<size_t>(s)]->fetch_and_increment(ctx);
}

int64_t SimShardedCounter::read(sim::Ctx& ctx) {
  std::vector<int64_t> view = sim_scan(shards_, double_collect_, [&](int s) {
    return ctrs_[static_cast<size_t>(s)]->read(ctx);
  });
  return std::accumulate(view.begin(), view.end(), int64_t{0});
}

Val SimShardedCounter::apply(sim::Ctx& ctx, const verify::Invocation& inv) {
  if (inv.name == "Inc") {
    inc(ctx);
    return unit();
  }
  if (inv.name == "Read") return num(read(ctx));
  C2SL_CHECK(false, "unknown operation on sharded counter: " + inv.name);
  return unit();
}

}  // namespace c2sl::baselines
