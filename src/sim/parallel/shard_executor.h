// Conservative-PDES executor for shard domains (Chandy–Misra style).
//
// The executor advances N SimDomains in barrier-synchronized rounds. Each
// round the coordinator:
//
//   1. Reads every domain's NextEventTime(); stops when every queue is
//      drained (global min == kMaxSimTime).
//   2. Computes a per-domain horizon from the lookahead matrix:
//        horizon[i] = min( min over s != i of (next[s] + lookahead[s][i]),
//                          next[i] + echo[i] )
//      where echo[i] = min over s of lookahead[i][s] + lookahead[s][i].
//      Every future event delivered to i is caused by some event currently
//      in a queue: chains starting at s != i accumulate at least
//      lookahead[s][i] of latency on the way (the matrix is min-plus closed,
//      so relays through intermediaries are covered), and chains starting in
//      i's own queue must travel a full round trip before they can return.
//      So every domain may safely execute all local events with time
//      strictly < its horizon.
//      Because horizons are recomputed from the post-round queue states, one
//      barrier jumps as far as the bounds allow — batching what the legacy
//      global-min scheme (round_end = global_min + global_lookahead) split
//      into many short rounds. A drained or far-ahead sender stops throttling
//      everyone else entirely (its contribution saturates toward
//      kMaxSimTime).
//   3. Executes the active domains — those with an event below their horizon.
//      Domains with nothing to do are not touched at all. The round runs
//      either inline on the coordinator or on the worker pool, one contiguous
//      slice of the active list per participant (see "Inline or pooled").
//   4. Barrier. The coordinator drains the dirty cross-domain outboxes
//      sequentially in canonical (source domain, post order), scheduling each
//      event into its destination. The lookahead contract guarantees every
//      transferred event lands at or beyond the *destination's* horizon
//      (CHECK-enforced), i.e. in the destination's future.
//
// Inline or pooled (docs/PARALLEL.md#inline-or-pooled-rounds): handing a
// round to the pool costs a wake and a park per helper — up to a millisecond
// when the helpers have been parked a while on a shared host — while a
// mini-fleet round holds a few dozen events of well under a microsecond each.
// So each round the coordinator predicts its work from virtual-time data
// only — every active domain is assumed to execute as many events as it did
// the last round it was active — splits the active list into one contiguous
// slice per participant, and pools the round only when the events the helpers
// would take off the coordinator's critical path (predicted total minus the
// largest slice) reach kMinOffloadedEvents. Otherwise the coordinator runs
// every active domain itself. One worker, or a round with one active domain,
// is always inline. The rule reads no host clock, so the inline/pooled split
// (pooled_rounds()) is itself reproducible for a fixed seed and worker count.
//
// Determinism: a domain's round execution is self-contained (own queue, own
// RNG streams, own collectors), so which host thread runs it is irrelevant;
// horizons depend only on event timestamps, and outbox drain order is fixed
// by domain ids, so destination event sequence numbers are identical for any
// worker count and either branch. For a fixed seed the merged event digest,
// histograms, and trace trees are bit-for-bit identical for 1, 2, or 8
// workers — the parallel_test ctest enforces this, including under TSan.
//
// Coordination is spin-free: pool helpers park on a generation-counted
// condition variable and are woken only for pooled rounds; nothing
// busy-waits, so oversubscribed hosts lose only wake/park latency, never
// burned cores. The pool (ShardWorkerPool) starts its threads on the first
// pooled round and keeps them until it is destroyed, so an owner that runs
// many segments (RpcSystem keeps one pool for its lifetime) pays for thread
// creation once, and a run that never pools never creates a thread.
//
// This directory is the only place in src/ where host threads, mutexes, and
// atomics are allowed (rpcscope-raw-thread lint rule); model code stays in
// virtual time.
#ifndef RPCSCOPE_SRC_SIM_PARALLEL_SHARD_EXECUTOR_H_
#define RPCSCOPE_SRC_SIM_PARALLEL_SHARD_EXECUTOR_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/time.h"
#include "src/sim/domain.h"
#include "src/sim/lookahead.h"

namespace rpcscope {

// Parked helper threads for pooled rounds. Threads are created on demand by
// the first Run that needs them (growing to the largest participant count
// asked for) and live until the pool is destroyed.
class ShardWorkerPool {
 public:
  ShardWorkerPool() = default;
  ~ShardWorkerPool();
  ShardWorkerPool(const ShardWorkerPool&) = delete;
  ShardWorkerPool& operator=(const ShardWorkerPool&) = delete;

  // Calls task(w) for every w in [0, participants): w == 0 on the calling
  // thread, the rest on helpers. Returns when every call has returned; their
  // effects are then visible to the caller.
  void Run(int participants, const std::function<void(int)>& task);

  // Helper threads started so far (0 until the first Run with more than one
  // participant).
  int threads() const;

 private:
  void HelperLoop(int w, uint64_t seen);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  // All below guarded by mu_. A Run publishes task_/participants_ and bumps
  // generation_; helper w runs the task iff w < participants_.
  uint64_t generation_ = 0;
  int participants_ = 0;
  int remaining_ = 0;
  bool stop_ = false;
  const std::function<void(int)>* task_ = nullptr;
  std::vector<std::thread> helpers_;
};

struct ShardExecutorOptions {
  // Host worker threads. Clamped to [1, num domains]. 1 runs every round
  // inline on the calling thread (useful for debugging and as the
  // determinism reference); more only makes heavy rounds eligible for the
  // pool.
  int worker_threads = 1;
  // Additionally clamp worker_threads to the host's hardware concurrency.
  // Extra workers on a saturated host add wake/park latency per round and can
  // never add parallelism, so production runs (RpcSystem::RunShardedSegment)
  // enable this; determinism tests leave it off to exercise real thread
  // interleaving even on small hosts. Never changes results — only which
  // host threads run.
  bool clamp_workers_to_hardware = false;
  // Uniform conservative lookahead: a strict lower bound on the virtual-time
  // latency of any cross-domain event, measured from the sender's clock. Used
  // only when `lookahead_matrix` is null (the executor then builds a uniform
  // matrix from it). Must be > 0 when there is more than one domain.
  SimDuration lookahead = 0;
  // Per-pair lower bounds (src/sim/lookahead.h). When set, it must be sized
  // to the domain count, with every off-diagonal entry > 0, must satisfy the
  // triangle inequality (CHECKed; call MinPlusClose() after building it from
  // raw distances), and must outlive the executor. Preferred over the
  // scalar: non-uniform bounds widen per-domain horizons and collapse the
  // round count (docs/PARALLEL.md).
  const LookaheadMatrix* lookahead_matrix = nullptr;
  // Invoked on the coordinator thread after each round's outbox drain, with
  // that round's safe watermark: the minimum horizon over all domains. At
  // this point every domain has executed all its events below its own horizon
  // and every future event (local or transferred) is at >= the watermark, so
  // state observed across all domains now is final for times below it.
  // Watermarks are strictly increasing round over round. Workers are
  // quiescent during the call, so the hook may read any domain. Runs in the
  // same sequence for every worker-thread count (horizons depend only on
  // event times). Not invoked on the single-domain fast path, which has no
  // rounds — owners flush once after RunToCompletion instead (see
  // RpcSystem::RunShardedSegment).
  std::function<void(SimTime watermark)> barrier_hook;
};

class ShardExecutor {
 public:
  // Events a pooled round must move off the coordinator's critical path
  // (predicted total minus the largest slice) to pay for waking and parking
  // the helpers: the measured dispatch cost over the measured per-event cost,
  // rounded up (docs/PARALLEL.md#inline-or-pooled-rounds).
  static constexpr uint64_t kMinOffloadedEvents = 2048;

  // `domains` must stay alive for the executor's lifetime; domain i must have
  // id i. Pooled rounds run on `pool`, which must be non-null and outlive the
  // executor; owners keep one pool across runs to reuse its threads.
  ShardExecutor(std::vector<SimDomain*> domains, ShardExecutorOptions options,
                ShardWorkerPool* pool);

  // Runs all domains to completion (every queue drained). Returns the total
  // number of events executed across domains. With a single domain this is
  // exactly domains[0]->sim().Run(). Note one edge: events scheduled exactly
  // at kMaxSimTime are never executed (a horizon can never extend past the
  // end of virtual time); nothing in the model schedules there.
  uint64_t RunToCompletion();

  // Barrier rounds driven. The single-domain fast path reports 1: the whole
  // run is one uninterrupted round, so events-per-round style derived metrics
  // stay meaningful across shard counts.
  uint64_t rounds() const { return rounds_; }
  // Rounds handed to the worker pool; rounds() - pooled_rounds() ran inline.
  uint64_t pooled_rounds() const { return pooled_rounds_; }
  uint64_t cross_domain_events() const { return cross_domain_events_; }
  // (domain, round) pairs skipped because the domain had no event below its
  // horizon — barrier work the per-domain horizons avoided entirely.
  uint64_t idle_domain_rounds() const { return idle_domain_rounds_; }
  // Worker threads a pooled round may use (after both clamps).
  int effective_workers() const { return effective_workers_; }

 private:
  // Peeks every domain and fills next_times_/horizons_/active_. Returns false
  // when every queue is drained (the run is complete).
  bool PlanRound();
  // Splits active_ into one contiguous slice per participant and returns the
  // participant count for this round: 1 (inline) unless the pool would
  // offload at least kMinOffloadedEvents predicted events.
  int PlanParticipants();
  // Runs active_[slice_begin_[w], slice_begin_[w + 1]) and records each
  // domain's executed count; returns the slice total.
  uint64_t RunSlice(int w);
  // Transfers every outbox entry into its destination queue, canonical order,
  // visiting only domains whose dirty flag is set.
  uint64_t DrainOutboxes();

  std::vector<SimDomain*> domains_;
  ShardExecutorOptions options_;
  // Uniform fallback built from options_.lookahead when no matrix is given;
  // matrix_ always points at the bounds in use.
  LookaheadMatrix uniform_matrix_;
  const LookaheadMatrix* matrix_ = nullptr;
  // Cheapest round trip out of and back into each domain (see PlanRound).
  std::vector<SimDuration> echo_;
  int effective_workers_ = 1;
  ShardWorkerPool* pool_;

  // Round plan, coordinator-written between barriers.
  std::vector<SimTime> next_times_;
  std::vector<SimTime> horizons_;
  std::vector<int> active_;  // Domain ids with an event below their horizon.
  SimTime watermark_ = kMinSimTime;
  // Events each domain executed the last round it was active: the virtual-
  // time work prediction behind the inline/pooled choice. Written by the
  // thread running the domain, read by the coordinator between rounds.
  std::vector<uint64_t> last_events_;
  // slice_begin_[w] .. slice_begin_[w + 1] indexes participant w's slice of
  // active_; slice_events_[w] is what that slice executed.
  std::vector<size_t> slice_begin_;
  std::vector<uint64_t> slice_events_;

  uint64_t rounds_ = 0;
  uint64_t pooled_rounds_ = 0;
  uint64_t cross_domain_events_ = 0;
  uint64_t idle_domain_rounds_ = 0;
};

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_SIM_PARALLEL_SHARD_EXECUTOR_H_
