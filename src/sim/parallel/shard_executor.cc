#include "src/sim/parallel/shard_executor.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace rpcscope {

ShardExecutor::ShardExecutor(std::vector<SimDomain*> domains, ShardExecutorOptions options,
                             ShardWorkerPool* pool)
    : domains_(std::move(domains)), options_(std::move(options)), pool_(pool) {
  RPCSCOPE_CHECK(!domains_.empty());
  RPCSCOPE_CHECK(pool_ != nullptr);
  const int n = static_cast<int>(domains_.size());
  for (int i = 0; i < n; ++i) {
    RPCSCOPE_CHECK(domains_[static_cast<size_t>(i)] != nullptr);
    RPCSCOPE_CHECK_EQ(domains_[static_cast<size_t>(i)]->id(), i)
        << "domain ids must match their index";
  }
  if (options_.lookahead_matrix != nullptr) {
    RPCSCOPE_CHECK_EQ(options_.lookahead_matrix->size(), n)
        << "lookahead matrix must be sized to the domain count";
    // The safety induction across rounds relays through intermediate domains:
    // a domain whose horizon was set by a near neighbor may forward causality
    // onward after At(x, s) + At(s, d) of virtual time. Direct bounds that
    // exceed such relay paths would let a destination simulate past an event
    // still in flight — reject them up front (builders fix this with
    // LookaheadMatrix::MinPlusClose).
    RPCSCOPE_CHECK(options_.lookahead_matrix->SatisfiesTriangleInequality())
        << "lookahead matrix must satisfy the triangle inequality; "
           "call MinPlusClose() after construction";
    matrix_ = options_.lookahead_matrix;
  } else {
    if (n > 1) {
      RPCSCOPE_CHECK_GT(options_.lookahead, 0)
          << "multi-domain execution needs a positive conservative lookahead";
    }
    uniform_matrix_ = LookaheadMatrix(n, options_.lookahead);
    matrix_ = &uniform_matrix_;
  }
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      if (s != d) {
        // A zero bound would stall the round loop: the horizon of d would
        // never exceed s's next event time, so d could never execute past it.
        RPCSCOPE_CHECK_GT(matrix_->At(s, d), 0)
            << "off-diagonal lookahead bound must be positive (" << s << " -> " << d << ")";
      }
    }
  }
  effective_workers_ = std::clamp(options_.worker_threads, 1, n);
  if (options_.clamp_workers_to_hardware) {
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw > 0) {
      effective_workers_ = std::min(effective_workers_, static_cast<int>(hw));
    }
  }
  // echo[i]: the fastest a domain's own causality can boomerang back at it
  // through any peer — min over s of L[i][s] + L[s][i]. The horizon must
  // include nt[i] + echo[i]: an idle peer contributes kMaxSimTime through the
  // sender terms, but i itself can wake that peer with a message and receive
  // a reply one round trip later, so i may never outrun its own next event by
  // more than the cheapest round trip. kMaxSimTime when n == 1 (never used —
  // single-domain runs take the fast path).
  echo_.resize(domains_.size(), kMaxSimTime);
  for (int i = 0; i < n; ++i) {
    for (int s = 0; s < n; ++s) {
      if (s != i) {
        echo_[static_cast<size_t>(i)] =
            std::min(echo_[static_cast<size_t>(i)],
                     AddClamped(matrix_->At(i, s), matrix_->At(s, i)));
      }
    }
  }
  next_times_.resize(domains_.size());
  horizons_.resize(domains_.size());
  active_.reserve(domains_.size());
  last_events_.resize(domains_.size(), 0);
  slice_begin_.reserve(static_cast<size_t>(effective_workers_) + 1);
  slice_events_.resize(static_cast<size_t>(effective_workers_), 0);
}

bool ShardExecutor::PlanRound() {
  const int n = static_cast<int>(domains_.size());
  SimTime global_min = kMaxSimTime;
  for (int i = 0; i < n; ++i) {
    next_times_[static_cast<size_t>(i)] = domains_[static_cast<size_t>(i)]->sim().NextEventTime();
    global_min = std::min(global_min, next_times_[static_cast<size_t>(i)]);
  }
  if (global_min == kMaxSimTime) {
    return false;  // Every queue drained: the run is complete.
  }
  // horizon[i] = min( min over senders s != i of (next[s] + L[s][i]),
  //                   next[i] + echo[i] ).
  // O(n^2) with n = shard count (tens, not thousands); drained senders
  // contribute kMaxSimTime via the saturating add and stop constraining
  // anyone. The echo term caps how far i can outrun its own queue: any
  // future message into i is caused by some currently-queued event, and a
  // chain that starts at i's own queue must travel a full round trip before
  // it can come back (the sender terms cover chains starting elsewhere,
  // via the matrix's min-plus closure).
  active_.clear();
  SimTime watermark = kMaxSimTime;
  for (int i = 0; i < n; ++i) {
    SimTime h = AddClamped(next_times_[static_cast<size_t>(i)], echo_[static_cast<size_t>(i)]);
    for (int s = 0; s < n; ++s) {
      if (s == i) {
        continue;
      }
      h = std::min(h, AddClamped(next_times_[static_cast<size_t>(s)], matrix_->At(s, i)));
    }
    horizons_[static_cast<size_t>(i)] = h;
    watermark = std::min(watermark, h);
    if (next_times_[static_cast<size_t>(i)] < h) {
      active_.push_back(i);
    } else {
      ++idle_domain_rounds_;
    }
  }
  watermark_ = watermark;
  // Progress guarantee: the domain holding the global-min event has horizon
  // >= global_min + min(smallest pair bound, its echo) > its own next event
  // time, so it is always active. An empty active list would mean a
  // deadlocked round loop.
  RPCSCOPE_CHECK(!active_.empty()) << "conservative round planned no work";
  return true;
}

uint64_t ShardExecutor::DrainOutboxes() {
  uint64_t transferred = 0;
  // Canonical order: source domain id, then destination id, then post order.
  // This fixes the destination's sequence-number assignment independently of
  // which worker thread ran which domain, which is what makes the merged
  // event stream bit-identical across worker counts. The dirty flag lets the
  // coordinator skip sources that posted nothing this round without scanning
  // their num_domains outbox vectors.
  for (SimDomain* src : domains_) {
    if (!src->outbox_dirty_) {
      continue;
    }
    src->outbox_dirty_ = false;
    for (size_t d = 0; d < src->outbox_.size(); ++d) {
      std::vector<SimDomain::RemoteEvent>& box = src->outbox_[d];
      if (box.empty()) {
        continue;
      }
      SimDomain* dst = domains_[d];
      for (SimDomain::RemoteEvent& ev : box) {
        // The conservative-lookahead contract: a cross-domain event posted
        // during this round cannot land before the *destination's* horizon.
        // A violation means some path undercut the advertised per-pair
        // minimum latency — the destination may already have simulated past
        // `when`, so fail fast.
        RPCSCOPE_CHECK_GE(ev.when, horizons_[d])
            << "cross-domain event violates conservative lookahead";
        dst->sim().ScheduleAt(ev.when, std::move(ev.fn));
        ++transferred;
      }
      box.clear();
    }
  }
  cross_domain_events_ += transferred;
  return transferred;
}


int ShardExecutor::PlanParticipants() {
  const size_t n_active = active_.size();
  const size_t participants = std::min(static_cast<size_t>(effective_workers_), n_active);
  if (participants < 2) {
    return 1;
  }
  // Equal-count contiguous slices of the active list; each slice's work is
  // predicted from what its domains executed the last round they were active.
  slice_begin_.resize(participants + 1);
  for (size_t w = 0; w <= participants; ++w) {
    slice_begin_[w] = n_active * w / participants;
  }
  uint64_t total = 0;
  uint64_t largest = 0;
  for (size_t w = 0; w < participants; ++w) {
    uint64_t slice = 0;
    for (size_t k = slice_begin_[w]; k < slice_begin_[w + 1]; ++k) {
      slice += last_events_[static_cast<size_t>(active_[k])];
    }
    total += slice;
    largest = std::max(largest, slice);
  }
  return total - largest >= kMinOffloadedEvents ? static_cast<int>(participants) : 1;
}

uint64_t ShardExecutor::RunSlice(int w) {
  uint64_t executed = 0;
  for (size_t k = slice_begin_[static_cast<size_t>(w)]; k < slice_begin_[static_cast<size_t>(w) + 1];
       ++k) {
    const size_t i = static_cast<size_t>(active_[k]);
    last_events_[i] = domains_[i]->sim().RunBefore(horizons_[i]);
    executed += last_events_[i];
  }
  slice_events_[static_cast<size_t>(w)] = executed;
  return executed;
}

uint64_t ShardExecutor::RunToCompletion() {
  if (domains_.size() == 1) {
    // Single domain: no barriers — exactly the legacy Run() path. Reported as
    // one round so per-round derived stats stay meaningful across shard
    // counts.
    rounds_ = 1;
    return domains_[0]->sim().Run();
  }
  // Every participant of a pooled round runs its own slice and writes only
  // its own last_events_/slice_events_ entries; the pool's handshake
  // publishes the plan to the helpers and their results back.
  const std::function<void(int)> run_slice = [this](int w) { RunSlice(w); };
  uint64_t total = 0;
  while (PlanRound()) {
    const int participants = PlanParticipants();
    if (participants == 1) {
      slice_begin_.assign({0, active_.size()});
      total += RunSlice(0);
    } else {
      pool_->Run(participants, run_slice);
      for (int w = 0; w < participants; ++w) {
        total += slice_events_[static_cast<size_t>(w)];
      }
      ++pooled_rounds_;
    }
    ++rounds_;
    DrainOutboxes();
    if (options_.barrier_hook) {
      // Helpers are parked here, so the hook sees quiescent domains.
      options_.barrier_hook(watermark_);
    }
  }
  return total;
}

ShardWorkerPool::~ShardWorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : helpers_) {
    t.join();
  }
}

int ShardWorkerPool::threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(helpers_.size());
}

void ShardWorkerPool::Run(int participants, const std::function<void(int)>& task) {
  // Happens-before edges: everything the caller wrote before Run (the round
  // plan) is published under mu_ before the generation bump that wakes the
  // helpers; every helper's effects are visible to the caller once
  // remaining_ reaches 0 under mu_.
  {
    std::lock_guard<std::mutex> lock(mu_);
    while (static_cast<int>(helpers_.size()) < participants - 1) {
      const int w = static_cast<int>(helpers_.size()) + 1;
      helpers_.emplace_back([this, w, seen = generation_] { HelperLoop(w, seen); });
    }
    task_ = &task;
    participants_ = participants;
    remaining_ = participants;
    ++generation_;
  }
  work_cv_.notify_all();
  task(0);
  std::unique_lock<std::mutex> lock(mu_);
  --remaining_;
  done_cv_.wait(lock, [this] { return remaining_ == 0; });
  task_ = nullptr;
}

void ShardWorkerPool::HelperLoop(int w, uint64_t seen) {
  for (;;) {
    const std::function<void(int)>* task = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this, seen] { return stop_ || generation_ != seen; });
      if (stop_) {
        return;
      }
      seen = generation_;
      if (w >= participants_) {
        continue;  // Not needed this time; a smaller Run than the pool.
      }
      task = task_;
    }
    (*task)(w);
    std::lock_guard<std::mutex> lock(mu_);
    if (--remaining_ == 0) {
      done_cv_.notify_one();
    }
  }
}

}  // namespace rpcscope
