#include "src/trace/tree.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "src/common/check.h"

namespace rpcscope {

namespace {

constexpr uint32_t kNoSpan = std::numeric_limits<uint32_t>::max();

// Span id -> index of the first span holding it. Linear probing over a
// power-of-two table at most half full, Fibonacci-hashed so that sequential
// or shard-offset ids spread evenly. Indexes are inserted in ascending order
// and an id already present is skipped, so the first occurrence wins.
class FirstIndexById {
 public:
  explicit FirstIndexById(const std::vector<Span>& spans)
      : slots_(std::bit_ceil(std::max<size_t>(2 * spans.size(), 16))),
        shift_(64 - std::countr_zero(slots_.size())) {
    for (size_t i = 0; i < spans.size(); ++i) {
      Slot& slot = slots_[SlotOf(spans[i].span_id)];
      if (slot.index == kNoSpan) {
        slot = {spans[i].span_id, static_cast<uint32_t>(i)};
      }
    }
  }

  // kNoSpan when no span has this id.
  uint32_t Find(SpanId id) const { return slots_[SlotOf(id)].index; }

 private:
  struct Slot {
    SpanId id = 0;
    uint32_t index = kNoSpan;
  };

  // The slot holding `id`, or the empty slot where it would go.
  size_t SlotOf(SpanId id) const {
    const size_t mask = slots_.size() - 1;
    size_t at = static_cast<size_t>((id * 0x9e3779b97f4a7c15ull) >> shift_);
    while (slots_[at].index != kNoSpan && slots_[at].id != id) {
      at = (at + 1) & mask;
    }
    return at;
  }

  std::vector<Slot> slots_;
  int shift_;  // Keeps the top log2(slots_.size()) bits of the hash.
};

}  // namespace

TraceForest::TraceForest(const std::vector<Span>& spans) {
  const size_t n = spans.size();
  RPCSCOPE_CHECK_LT(n, size_t{kNoSpan}) << "too many spans for one forest";
  span_shapes_.resize(n);

  // parent[i]: index of span i's parent, kNoSpan for roots. child_begin
  // first counts children per parent, then becomes the start of each
  // parent's range in `children` (ranges end at child_begin[p + 1]).
  std::vector<uint32_t> parent(n, kNoSpan);
  std::vector<uint32_t> child_begin(n + 1, 0);
  {
    const FirstIndexById first_index(spans);
    for (size_t i = 0; i < n; ++i) {
      span_shapes_[i].span_index = i;
      if (spans[i].parent_span_id == 0) {
        continue;
      }
      const uint32_t p = first_index.Find(spans[i].parent_span_id);
      if (p != kNoSpan && p != i) {  // Orphans and self-parents stay roots.
        parent[i] = p;
        ++child_begin[p];
      }
    }
  }
  for (size_t p = 1; p < n; ++p) {
    child_begin[p] += child_begin[p - 1];  // Now the end of p's range.
  }
  if (n > 0) {
    child_begin[n] = child_begin[n - 1];
  }
  std::vector<uint32_t> children(child_begin[n]);
  for (size_t i = n; i-- > 0;) {  // Backwards, so each range ends up in index order.
    if (parent[i] != kNoSpan) {
      children[--child_begin[parent[i]]] = static_cast<uint32_t>(i);
    }
  }

  // Iterative DFS from every root: depth on the way down, spans per depth in
  // `width` (all zero again between trees), preorder into `order`.
  std::vector<uint32_t> order;
  order.reserve(n);
  std::vector<uint32_t> stack;
  std::vector<int64_t> width;
  std::vector<TraceShape> per_root;
  for (size_t root = 0; root < n; ++root) {
    if (parent[root] != kNoSpan) {
      continue;
    }
    const size_t first = order.size();
    int64_t max_depth = 0;
    stack.push_back(static_cast<uint32_t>(root));
    while (!stack.empty()) {
      const uint32_t idx = stack.back();
      stack.pop_back();
      order.push_back(idx);
      const int64_t depth = span_shapes_[idx].ancestors;
      if (static_cast<size_t>(depth) == width.size()) {
        width.push_back(0);
      }
      ++width[static_cast<size_t>(depth)];
      max_depth = std::max(max_depth, depth);
      for (uint32_t k = child_begin[idx]; k < child_begin[idx + 1]; ++k) {
        span_shapes_[children[k]].ancestors = depth + 1;
        stack.push_back(children[k]);
      }
    }
    int64_t max_width = 0;
    for (int64_t d = 0; d <= max_depth; ++d) {
      max_width = std::max(max_width, width[static_cast<size_t>(d)]);
      width[static_cast<size_t>(d)] = 0;
    }
    per_root.push_back({.trace_id = spans[root].trace_id,
                        .total_spans = static_cast<int64_t>(order.size() - first),
                        .max_depth = max_depth,
                        .max_width = max_width});
  }

  // Acyclicity: every span must be reachable from some root. A span left
  // unvisited sits on a parent-link cycle (a -> b -> a), which would silently
  // drop it — and its whole subtree — from every descendant/ancestor
  // statistic. Collectors can only create such spans by corrupting ids, so
  // treat it as a fatal invariant rather than partial-trace noise.
  if (order.size() != n) {
    std::vector<bool> visited(n, false);
    for (uint32_t idx : order) {
      visited[idx] = true;
    }
    for (size_t i = 0; i < n; ++i) {
      RPCSCOPE_CHECK(visited[i]) << "span index " << i << " (span_id=" << spans[i].span_id
                                 << ") unreachable from any root: parent-link cycle";
    }
  }

  // Reverse preorder reaches every span after all of its descendants.
  for (size_t k = n; k-- > 0;) {
    const uint32_t idx = order[k];
    if (parent[idx] != kNoSpan) {
      span_shapes_[parent[idx]].descendants += 1 + span_shapes_[idx].descendants;
    }
  }

  // Trees sharing a root trace id fold into one shape, in trace id order.
  std::sort(per_root.begin(), per_root.end(),
            [](const TraceShape& a, const TraceShape& b) { return a.trace_id < b.trace_id; });
  for (const TraceShape& tree : per_root) {
    if (trace_shapes_.empty() || trace_shapes_.back().trace_id != tree.trace_id) {
      trace_shapes_.push_back(tree);
      continue;
    }
    TraceShape& shape = trace_shapes_.back();
    shape.total_spans += tree.total_spans;
    shape.max_depth = std::max(shape.max_depth, tree.max_depth);
    shape.max_width = std::max(shape.max_width, tree.max_width);
  }
}

}  // namespace rpcscope
