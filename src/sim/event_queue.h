// The discrete-event simulator's pending-event set.
//
// EventQueue hands out events in exact (time, insertion-sequence) order — the
// order the determinism digest folds. It is a binary min-heap of small
// trivially copyable (time, seq, slot) keys; each key names a slot in a slab
// of SimCallbacks that never moves while the heap sifts. A sift step copies 24
// bytes instead of relocating a callback through its type-erased ops, and a
// free list of slots keeps steady-state Push/PopFront allocation-free (the
// heap, slab and free list all retain their capacity).
//
// One heap over every pending event is the whole design: the fleet workloads
// hold tens to a few hundred pending events, where a calendar/ladder queue's
// bucket bookkeeping costs more than the O(log n) sift it avoids
// (docs/PERF.md#event-queue-design has the depths and the measurements).
#ifndef RPCSCOPE_SRC_SIM_EVENT_QUEUE_H_
#define RPCSCOPE_SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/time.h"
#include "src/sim/callback.h"

namespace rpcscope {

struct SimEvent {
  SimTime time = 0;
  uint64_t seq = 0;
  SimCallback fn;
};

class EventQueue {
 public:
  // Enqueues `fn` at (time, seq). time must not be negative, and seq must be
  // unique among pending events.
  void Push(SimTime time, uint64_t seq, SimCallback&& fn) {
    RPCSCOPE_DCHECK_GE(time, 0) << "event scheduled before time zero";
    uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slots_[slot] = std::move(fn);
    } else {
      slot = static_cast<uint32_t>(slots_.size());
      slots_.push_back(std::move(fn));
    }
    heap_.push_back(Key{time, seq, slot});
    SiftUp(heap_.size() - 1);
  }

  bool Empty() const { return heap_.empty(); }
  size_t Size() const { return heap_.size(); }

  // Time of the earliest event. Requires !Empty().
  SimTime PeekTime() const {
    RPCSCOPE_DCHECK(!heap_.empty()) << "PeekTime() on an empty event queue";
    return heap_.front().time;
  }

  // Removes and returns the earliest event. Requires !Empty(). The callback is
  // relocated out of its slot and the slot is freed before the caller runs it:
  // running it in place would be unsafe, since it may Push and grow the slab.
  SimEvent PopFront() {
    RPCSCOPE_DCHECK(!heap_.empty()) << "PopFront() on an empty event queue";
    const Key top = heap_.front();
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      SiftDownFromRoot(last);
    }
    free_slots_.push_back(top.slot);
    return SimEvent{top.time, top.seq, std::move(slots_[top.slot])};
  }

 private:
  struct Key {
    SimTime time;
    uint64_t seq;
    uint32_t slot;
  };
  static_assert(std::is_trivially_copyable_v<Key> && sizeof(Key) <= 24);

  // (time, seq) order as one 128-bit comparison: branch-free, which matters
  // because equal times are common and make a two-step compare mispredict.
  // Times are never negative (Push checks), so their unsigned bits order
  // the same way.
  static bool Before(const Key& a, const Key& b) {
    using U128 = unsigned __int128;
    return ((U128{static_cast<uint64_t>(a.time)} << 64) | a.seq) <
           ((U128{static_cast<uint64_t>(b.time)} << 64) | b.seq);
  }

  // Moves the key at `i` up to its place, shifting parents down into the hole.
  void SiftUp(size_t i) {
    const Key key = heap_[i];
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (!Before(key, heap_[parent])) {
        break;
      }
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = key;
  }

  // Places `key` (the former last element) into the hole left at the root:
  // walks the hole down along the smaller child to a leaf, then sifts `key`
  // up from there. The key came from the bottom, so it usually belongs near
  // the bottom, and this takes one comparison per level instead of two.
  void SiftDownFromRoot(const Key& key) {
    const size_t n = heap_.size();
    size_t hole = 0;
    size_t child = 1;
    while (child < n) {
      if (child + 1 < n) {
        child += static_cast<size_t>(Before(heap_[child + 1], heap_[child]));
      }
      heap_[hole] = heap_[child];
      hole = child;
      child = 2 * hole + 1;
    }
    while (hole > 0) {
      const size_t parent = (hole - 1) / 2;
      if (!Before(key, heap_[parent])) {
        break;
      }
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = key;
  }

  std::vector<Key> heap_;
  // Callback slab: slots_[key.slot] holds the event's callback while it is
  // pending. Slots named by free_slots_ hold empty callbacks.
  std::vector<SimCallback> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_SIM_EVENT_QUEUE_H_
