// Ordering oracle for EventQueue: the classic binary min-heap over whole
// SimEvents (std::push_heap/std::pop_heap), the simulator's original queue.
// Slow — every sift step relocates a callback — but obviously correct, so the
// tests in tests/sim/ drive it and EventQueue through the same operations and
// require the identical (time, seq) stream.
#ifndef RPCSCOPE_TESTS_SIM_REFERENCE_EVENT_QUEUE_H_
#define RPCSCOPE_TESTS_SIM_REFERENCE_EVENT_QUEUE_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"

namespace rpcscope {

class BinaryHeapEventQueue {
 public:
  void Push(SimEvent ev) {
    heap_.push_back(std::move(ev));
    std::push_heap(heap_.begin(), heap_.end(), ExecutesAfter{});
  }

  bool Empty() const { return heap_.empty(); }
  size_t Size() const { return heap_.size(); }

  // Time of the earliest event. Requires !Empty().
  SimTime PeekTime() const { return heap_.front().time; }

  // Removes and returns the earliest event. Requires !Empty().
  SimEvent PopFront() {
    std::pop_heap(heap_.begin(), heap_.end(), ExecutesAfter{});
    SimEvent ev = std::move(heap_.back());
    heap_.pop_back();
    return ev;
  }

 private:
  // "a executes after b": orders a max-heap whose front is the earliest event.
  struct ExecutesAfter {
    bool operator()(const SimEvent& a, const SimEvent& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  std::vector<SimEvent> heap_;
};

}  // namespace rpcscope

#endif  // RPCSCOPE_TESTS_SIM_REFERENCE_EVENT_QUEUE_H_
