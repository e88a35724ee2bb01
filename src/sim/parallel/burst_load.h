// Synthetic burst load for ShardExecutor's pooled branch.
//
// A burst is a dense stretch of self-rescheduling local events on every
// domain. Conservative rounds advance by about one lookahead bound, so a tick
// step far below that bound packs hundreds to thousands of events into each
// round — enough for the executor to hand those rounds to its worker pool
// (ShardExecutor::kMinOffloadedEvents), which mini-fleet rounds never reach
// on their own. Determinism tests plant bursts into RpcSystem and MiniFleet
// runs so that rounds carrying real RPC traffic run on helper threads (and
// under TSan); bench_simcore's BM_BurstSharded rows time pooled against
// inline rounds of a known size. A burst adds events to a run's digest and
// round count but touches no model state.
#ifndef RPCSCOPE_SRC_SIM_PARALLEL_BURST_LOAD_H_
#define RPCSCOPE_SRC_SIM_PARALLEL_BURST_LOAD_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/time.h"
#include "src/sim/domain.h"
#include "src/sim/parallel/shard_executor.h"

namespace rpcscope {

// One local event that reschedules itself every `step` while the next firing
// stays before `until`. Each firing first runs `work` rounds of an integer
// mix: a stand-in for model work with a fixed host cost.
struct BurstTick {
  SimDomain* home;
  SimDuration step;
  SimTime until;
  uint32_t work = 0;
  void operator()() const {
    uint64_t x = static_cast<uint64_t>(home->sim().Now());
    for (uint32_t i = 0; i < work; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
    }
    volatile uint64_t sink = x;  // Keeps the mix from being optimized away.
    (void)sink;
    if (home->sim().Now() + step < until) {
      home->sim().Schedule(step, SimCallback(*this));
    }
  }
};

// Starts a burst on every domain: ticks every `step` through
// [from, from + length), each spinning `work` mix rounds.
inline void PlantBurst(const std::vector<SimDomain*>& domains, SimTime from, SimDuration length,
                       SimDuration step, uint32_t work = 0) {
  for (SimDomain* d : domains) {
    d->sim().ScheduleAt(from, SimCallback(BurstTick{d, step, from + length, work}));
  }
}

// Plants `bursts` bursts evenly through [from, to), each `rounds_per_burst`
// smallest lookahead bounds long. The tick step is sized so that a round
// inside a burst predicts at least twice kMinOffloadedEvents off the
// coordinator at two workers; from a burst's second round on, a multi-worker
// executor pools (the first predicts from the light round before it).
// `min_bound` is the smallest off-diagonal lookahead bound; needs >= 2
// domains.
inline void PlantPooledBursts(const std::vector<SimDomain*>& domains, SimDuration min_bound,
                              SimTime from, SimTime to, int bursts, int rounds_per_burst) {
  // With two participants the coordinator keeps the larger half of the
  // active list; the other floor(n / 2) domains are what the pool offloads.
  const uint64_t offloaded_domains = domains.size() / 2;
  const uint64_t per_domain =
      (2 * ShardExecutor::kMinOffloadedEvents + offloaded_domains - 1) / offloaded_domains;
  const SimDuration step =
      std::max<SimDuration>(min_bound / static_cast<SimDuration>(per_domain), 1);
  const SimDuration length = min_bound * rounds_per_burst;
  const SimDuration spacing = (to - from) / bursts;
  for (int b = 0; b < bursts; ++b) {
    PlantBurst(domains, from + spacing * b, length, step);
  }
}

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_SIM_PARALLEL_BURST_LOAD_H_
