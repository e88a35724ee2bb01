// Cross-validation of EventQueue against the reference binary heap
// (tests/sim/reference_event_queue.h).
//
// The two queues must be observably identical: any interleaving of pushes and
// pops yields the same (time, seq) sequence from both. The randomized test
// drives both through the same op stream the way the simulator does (pushed
// times never precede the last popped time), mixing same-time ties,
// far-future jumps and full drain/refill cycles. The Simulator-level tests run
// the same workloads on Simulator and on a reference simulator built on the
// oracle, and compare executed counts and (time, seq) digests.
#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/sim/simulator.h"
#include "tests/sim/reference_event_queue.h"

namespace rpcscope {
namespace {

using TimeSeq = std::pair<SimTime, uint64_t>;

SimEvent MakeEvent(SimTime time, uint64_t seq) {
  SimEvent ev;
  ev.time = time;
  ev.seq = seq;
  ev.fn = SimCallback([] {});
  return ev;
}

// Pushes the same (time, seq) into both queues.
void PushBoth(EventQueue& queue, BinaryHeapEventQueue& oracle, SimTime time, uint64_t seq) {
  queue.Push(time, seq, SimCallback([] {}));
  oracle.Push(MakeEvent(time, seq));
}

// Pops both queues to empty and returns EventQueue's order, asserting every
// pop matches the oracle's.
std::vector<TimeSeq> DrainBoth(EventQueue& queue, BinaryHeapEventQueue& oracle) {
  std::vector<TimeSeq> order;
  while (!oracle.Empty()) {
    EXPECT_FALSE(queue.Empty());
    if (queue.Empty()) {
      break;
    }
    EXPECT_EQ(queue.PeekTime(), oracle.PeekTime());
    const SimEvent a = queue.PopFront();
    const SimEvent b = oracle.PopFront();
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.seq, b.seq);
    order.emplace_back(a.time, a.seq);
  }
  EXPECT_TRUE(queue.Empty());
  return order;
}

TEST(EventQueueTest, MatchesReferenceOnSequentialPops) {
  EventQueue queue;
  BinaryHeapEventQueue oracle;
  uint64_t seq = 0;
  for (SimTime t : {Millis(3), Millis(1), Millis(2), Millis(1), SimTime{0}}) {
    PushBoth(queue, oracle, t, seq++);
  }
  EXPECT_EQ(queue.Size(), 5u);
  EXPECT_EQ(DrainBoth(queue, oracle),
            (std::vector<TimeSeq>{
                {0, 4}, {Millis(1), 1}, {Millis(1), 3}, {Millis(2), 2}, {Millis(3), 0}}));
}

TEST(EventQueueTest, FarFutureEventsInterleaveWithNearOnes) {
  EventQueue queue;
  BinaryHeapEventQueue oracle;
  uint64_t seq = 0;
  for (SimTime t : {Seconds(20), Micros(5), Seconds(3), Micros(9), Hours(1), Seconds(3),
                    Micros(5), kMaxSimTime}) {
    PushBoth(queue, oracle, t, seq++);
  }
  const std::vector<TimeSeq> order = DrainBoth(queue, oracle);
  ASSERT_EQ(order.size(), 8u);
  EXPECT_EQ(order.front(), TimeSeq(Micros(5), 1));
  EXPECT_EQ(order.back(), TimeSeq(kMaxSimTime, 7));
}

TEST(EventQueueTest, PushBehindPeekedFrontStaysOrdered) {
  EventQueue queue;
  BinaryHeapEventQueue oracle;
  // Peek one event well ahead, then push earlier events in front of it.
  PushBoth(queue, oracle, Micros(1000), 0);
  EXPECT_EQ(queue.PeekTime(), Micros(1000));
  PushBoth(queue, oracle, Micros(10), 1);
  PushBoth(queue, oracle, Micros(500), 2);
  EXPECT_EQ(queue.PeekTime(), Micros(10));
  EXPECT_EQ(DrainBoth(queue, oracle), (std::vector<TimeSeq>{
                                          {Micros(10), 1}, {Micros(500), 2}, {Micros(1000), 0}}));
}

TEST(EventQueueTest, DenseClusterAheadOfAFarEventStaysOrdered) {
  // A 70-event cluster of distinct times just before a far event, then a push
  // landing after the far event once the cluster has started draining.
  EventQueue queue;
  BinaryHeapEventQueue oracle;
  uint64_t seq = 0;
  const SimTime far_time = 2120000;
  PushBoth(queue, oracle, far_time, seq++);
  const SimTime cluster_base = 1998900;
  for (int i = 0; i < 70; ++i) {
    PushBoth(queue, oracle, cluster_base + i * 50, seq++);
  }
  const SimEvent a = queue.PopFront();
  const SimEvent b = oracle.PopFront();
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.seq, b.seq);
  PushBoth(queue, oracle, far_time + 5000, seq++);
  const std::vector<TimeSeq> order = DrainBoth(queue, oracle);
  EXPECT_EQ(order.size(), 71u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(EventQueueTest, EqualTimeTiesPopInSequenceOrder) {
  // Seqs pushed out of order at a handful of shared times: within a time the
  // queue must hand them out by seq, whatever the push order.
  EventQueue queue;
  BinaryHeapEventQueue oracle;
  Rng rng(0x71e5);
  std::vector<uint64_t> seqs(600);
  for (size_t i = 0; i < seqs.size(); ++i) {
    seqs[i] = i;
  }
  for (size_t i = seqs.size() - 1; i > 0; --i) {
    std::swap(seqs[i], seqs[rng.NextBounded(i + 1)]);
  }
  for (const uint64_t seq : seqs) {
    PushBoth(queue, oracle, Micros(static_cast<int64_t>(seq % 3)), seq);
  }
  const std::vector<TimeSeq> order = DrainBoth(queue, oracle);
  ASSERT_EQ(order.size(), seqs.size());
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(EventQueueTest, SparsePushPopCyclesStayOrdered) {
  // A long sparse phase (one event per ~50 ms, pushed and popped one at a
  // time) with a second event parked far ahead the whole time.
  EventQueue queue;
  BinaryHeapEventQueue oracle;
  uint64_t seq = 0;
  PushBoth(queue, oracle, Hours(1), seq++);
  SimTime t = 0;
  for (int i = 0; i < 64; ++i) {
    t += Millis(50);
    PushBoth(queue, oracle, t, seq++);
    const SimEvent a = queue.PopFront();
    const SimEvent b = oracle.PopFront();
    ASSERT_EQ(a.time, t);
    ASSERT_EQ(a.time, b.time);
    ASSERT_EQ(a.seq, b.seq);
  }
  EXPECT_EQ(DrainBoth(queue, oracle), (std::vector<TimeSeq>{{Hours(1), 0}}));
}

TEST(EventQueueTest, PopFrontHandsOverTheCallbackAndReusesItsSlot) {
  EventQueue queue;
  int ran = 0;
  queue.Push(Micros(2), 1, SimCallback([&ran] { ran += 10; }));
  queue.Push(Micros(1), 0, SimCallback([&ran] { ran += 1; }));
  SimEvent first = queue.PopFront();
  // The popped callback owns its capture; pushing into the freed slot before
  // running it must not disturb it.
  queue.Push(Micros(3), 2, SimCallback([&ran] { ran += 100; }));
  first.fn();
  EXPECT_EQ(ran, 1);
  while (!queue.Empty()) {
    queue.PopFront().fn();
  }
  EXPECT_EQ(ran, 111);
}

TEST(EventQueueTest, RandomizedInterleavedOpsMatchReferenceExactly) {
  Rng rng(0xbadf00d);
  EventQueue queue;
  BinaryHeapEventQueue oracle;
  SimTime now = 0;  // Simulator invariant: pushes never precede the last pop.
  uint64_t seq = 0;
  uint64_t pops = 0;
  for (int op = 0; op < 200000; ++op) {
    const bool push = oracle.Empty() || rng.NextDouble() < 0.55;
    if (push) {
      SimDuration delta;
      const double r = rng.NextDouble();
      if (r < 0.70) {
        delta = static_cast<SimDuration>(rng.NextBounded(Micros(50)));   // Dense.
      } else if (r < 0.95) {
        delta = static_cast<SimDuration>(rng.NextBounded(Millis(5)));    // Timer-scale.
      } else {
        delta = static_cast<SimDuration>(rng.NextBounded(Seconds(30)));  // Far future.
      }
      if (rng.NextDouble() < 0.05) {
        delta = 0;  // Same-time tie with the last popped time.
      }
      PushBoth(queue, oracle, now + delta, seq++);
    } else {
      ASSERT_EQ(queue.PeekTime(), oracle.PeekTime()) << "op " << op;
      const SimEvent a = queue.PopFront();
      const SimEvent b = oracle.PopFront();
      ASSERT_EQ(a.time, b.time) << "op " << op;
      ASSERT_EQ(a.seq, b.seq) << "op " << op;
      now = a.time;
      ++pops;
    }
    ASSERT_EQ(queue.Size(), oracle.Size());
  }
  // Full drain of the remaining backlog.
  pops += DrainBoth(queue, oracle).size();
  EXPECT_EQ(pops, seq);
}

// ---------------------------------------------------------------------------
// Simulator level: Simulator against a reference simulator on the oracle heap,
// with the same clock rules and the same FNV-1a (time, seq) digest.

class ReferenceSimulator {
 public:
  SimTime Now() const { return now_; }
  void Schedule(SimDuration delay, SimCallback fn) {
    ScheduleAt(AddClamped(now_, delay), std::move(fn));
  }
  void ScheduleAt(SimTime when, SimCallback fn) {
    SimEvent ev;
    ev.time = when;
    ev.seq = next_seq_++;
    ev.fn = std::move(fn);
    queue_.Push(std::move(ev));
  }
  uint64_t Run() { return RunWhile([](SimTime) { return true; }); }
  uint64_t RunUntil(SimTime until) {
    const uint64_t n = RunWhile([until](SimTime t) { return t <= until; });
    now_ = std::max(now_, until);
    return n;
  }
  uint64_t RunBefore(SimTime until) {
    return RunWhile([until](SimTime t) { return t < until; });
  }
  [[nodiscard]] Status ResyncAt(SimTime barrier) {
    now_ = barrier;
    return Status::Ok();
  }
  uint64_t events_executed() const { return events_executed_; }
  uint64_t event_digest() const { return event_digest_; }

 private:
  template <typename Pred>
  uint64_t RunWhile(Pred pred) {
    uint64_t executed = 0;
    while (!queue_.Empty() && pred(queue_.PeekTime())) {
      SimEvent ev = queue_.PopFront();
      now_ = ev.time;
      event_digest_ = Mix(Mix(event_digest_, static_cast<uint64_t>(ev.time)), ev.seq);
      ev.fn();
      ++executed;
    }
    events_executed_ += executed;
    return executed;
  }
  static uint64_t Mix(uint64_t digest, uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (word >> (8 * i)) & 0xff;
      digest *= 1099511628211ull;
    }
    return digest;
  }

  BinaryHeapEventQueue queue_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_executed_ = 0;
  uint64_t event_digest_ = 14695981039346656037ull;
};

// Self-rescheduling chains with random fan-out: an interleaving that covers
// ties, bursts and long jumps.
template <typename SimT>
std::pair<uint64_t, uint64_t> RunFanOut(SimT& sim) {
  Rng rng(0x5eed);
  std::function<void(int)> spawn = [&](int depth) {
    if (depth >= 6) {
      return;
    }
    const int children = 1 + static_cast<int>(rng.NextBounded(3));
    for (int c = 0; c < children; ++c) {
      const SimDuration d = static_cast<SimDuration>(rng.NextBounded(Millis(20)));
      sim.Schedule(d, [&spawn, depth] { spawn(depth + 1); });
    }
  };
  for (int i = 0; i < 8; ++i) {
    sim.Schedule(static_cast<SimDuration>(rng.NextBounded(Micros(100))), [&spawn] { spawn(0); });
  }
  sim.Schedule(Hours(2), [] {});  // One far-future resident.
  sim.Run();
  return {sim.events_executed(), sim.event_digest()};
}

TEST(EventQueueTest, SimulatorDigestMatchesReference) {
  Simulator sim;
  ReferenceSimulator ref;
  const auto got = RunFanOut(sim);
  const auto want = RunFanOut(ref);
  EXPECT_EQ(got.first, want.first);
  EXPECT_EQ(got.second, want.second);
  EXPECT_GT(got.first, 100u);
}

// Events at, just before and just after each boundary; RunBefore leaves the
// boundary events pending and the clock at the last executed event, RunUntil
// runs them and advances the clock to the boundary.
template <typename SimT>
std::vector<std::pair<uint64_t, SimTime>> RunBoundaries(SimT& sim) {
  std::vector<std::pair<uint64_t, SimTime>> trace;
  auto record = [&](uint64_t executed) { trace.emplace_back(executed, sim.Now()); };
  for (int b = 1; b <= 4; ++b) {
    const SimTime edge = Millis(b);
    for (SimDuration off : {SimDuration{-1}, SimDuration{0}, SimDuration{0}, SimDuration{1}}) {
      sim.ScheduleAt(edge + off, [] {});
    }
  }
  record(sim.RunBefore(Millis(1)));
  // A message arriving exactly at the boundary after RunBefore: schedulable
  // without clamping, because the clock stayed behind the boundary.
  sim.ScheduleAt(Millis(1), [] {});
  record(sim.RunUntil(Millis(1)));
  record(sim.RunBefore(Millis(2)));
  record(sim.RunBefore(Millis(2)));  // Nothing left before 2 ms.
  record(sim.RunUntil(Millis(3)));
  record(sim.RunUntil(Millis(10)));  // Drains, clock to 10 ms.
  trace.emplace_back(sim.events_executed(), static_cast<SimTime>(sim.event_digest()));
  return trace;
}

TEST(EventQueueTest, RunBeforeAndRunUntilBoundariesMatchReference) {
  Simulator sim;
  ReferenceSimulator ref;
  const auto got = RunBoundaries(sim);
  EXPECT_EQ(got, RunBoundaries(ref));
  ASSERT_EQ(got.size(), 7u);
  EXPECT_EQ(got[0], (std::pair<uint64_t, SimTime>{1, Millis(1) - 1}));
  EXPECT_EQ(got[1], (std::pair<uint64_t, SimTime>{3, Millis(1)}));
  EXPECT_EQ(got[2], (std::pair<uint64_t, SimTime>{2, Millis(2) - 1}));
  EXPECT_EQ(got[3], (std::pair<uint64_t, SimTime>{0, Millis(2) - 1}));
  EXPECT_EQ(got[4], (std::pair<uint64_t, SimTime>{6, Millis(3)}));
  EXPECT_EQ(got[5], (std::pair<uint64_t, SimTime>{5, Millis(10)}));
  EXPECT_EQ(got[6].first, 17u);
  EXPECT_TRUE(sim.empty());
}

// Every event of a wave schedules a burst of zero-delay events, some of which
// schedule more: thousands of same-time events, each appended behind the ones
// already pending at that time.
template <typename SimT>
std::pair<uint64_t, uint64_t> RunZeroDelayFlood(SimT& sim, std::vector<int>* order) {
  int next_id = 0;
  std::function<void(int)> flood = [&](int depth) {
    order->push_back(next_id++);
    if (depth >= 3) {
      return;
    }
    for (int i = 0; i < 12; ++i) {
      sim.Schedule(0, [&flood, depth] { flood(depth + 1); });
    }
  };
  for (int wave = 0; wave < 4; ++wave) {
    sim.ScheduleAt(Micros(10 * wave), [&flood] { flood(0); });
  }
  sim.Run();
  return {sim.events_executed(), sim.event_digest()};
}

TEST(EventQueueTest, ZeroDelayFloodMatchesReference) {
  Simulator sim;
  ReferenceSimulator ref;
  std::vector<int> got_order;
  std::vector<int> want_order;
  const auto got = RunZeroDelayFlood(sim, &got_order);
  const auto want = RunZeroDelayFlood(ref, &want_order);
  EXPECT_EQ(got, want);
  EXPECT_EQ(got_order, want_order);
  EXPECT_EQ(got.first, 4u * (1 + 12 + 144 + 1728));
  EXPECT_EQ(sim.Now(), Micros(30));
}

// Segments separated by ResyncAt barriers, as the fleet's epoch loop runs them:
// each segment drains a fan-out, then the clocks jump to the next barrier.
template <typename SimT>
std::pair<uint64_t, uint64_t> RunResyncedSegments(SimT& sim) {
  for (int epoch = 1; epoch <= 5; ++epoch) {
    RunFanOut(sim);
    const SimTime barrier = Hours(3 * epoch);
    EXPECT_TRUE(sim.ResyncAt(barrier).ok());
    EXPECT_EQ(sim.Now(), barrier);
  }
  return {sim.events_executed(), sim.event_digest()};
}

TEST(EventQueueTest, ResyncAtReusesTheQueueAndMatchesReference) {
  Simulator sim;
  ReferenceSimulator ref;
  EXPECT_EQ(RunResyncedSegments(sim), RunResyncedSegments(ref));
  // Resync refuses while events are pending and leaves them untouched.
  sim.Schedule(Millis(1), [] {});
  EXPECT_FALSE(sim.ResyncAt(sim.Now() + Seconds(1)).ok());
  EXPECT_EQ(sim.Run(), 1u);
}

}  // namespace
}  // namespace rpcscope
