// Trace-tree assembly and shape statistics (descendants / ancestors).
//
// §2.4 of the paper characterizes nested RPC call graphs by the number of
// descendants (the scale of distributed computation below a call) and the
// number of ancestors (return distance to the root). TraceForest assembles
// collected spans into trees and computes both per span.
#ifndef RPCSCOPE_SRC_TRACE_TREE_H_
#define RPCSCOPE_SRC_TRACE_TREE_H_

#include <cstdint>
#include <vector>

#include "src/trace/span.h"

namespace rpcscope {

struct SpanShape {
  size_t span_index = 0;    // Index into the input span vector.
  int64_t descendants = 0;  // Spans strictly below this one in its tree.
  int64_t ancestors = 0;    // Depth: hops from this span up to the root.
};

struct TraceShape {
  TraceId trace_id = 0;
  int64_t total_spans = 0;
  int64_t max_depth = 0;     // Longest root-to-leaf ancestor count.
  int64_t max_width = 0;     // Largest number of spans at a single depth.
};

// Edge-case rules:
//  * A span is a root when its parent_span_id is 0, names no span in the
//    collection (an orphan: Dapper shows the same artifact with partial
//    traces), or resolves to the span itself (a self-parent).
//  * When several spans share a span id, a parent id resolves to the first
//    of them in input order; the later ones are still spans of their own.
//  * A tree belongs to its root's trace id. Trees whose roots share a trace
//    id (say, several orphans of one trace) fold into one TraceShape: spans
//    summed, max_depth and max_width the maximum over those trees.
//  * A span that no root reaches sits on a parent-link cycle (a -> b -> a);
//    construction CHECK-fails rather than silently dropping it.
//
// Cost: O(n) for n spans (an open-addressed id index, children in one flat
// array, one iterative DFS with a width-per-depth array reused across
// trees), plus O(r log r) to order the r per-root records by trace id.
// Inputs are limited to fewer than 2^32 - 1 spans (CHECK-enforced).
class TraceForest {
 public:
  explicit TraceForest(const std::vector<Span>& spans);

  // Indexed like the input: span_shapes()[i].span_index == i.
  const std::vector<SpanShape>& span_shapes() const { return span_shapes_; }
  // One entry per distinct root trace id, ascending by trace id.
  const std::vector<TraceShape>& trace_shapes() const { return trace_shapes_; }

 private:
  std::vector<SpanShape> span_shapes_;
  std::vector<TraceShape> trace_shapes_;
};

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_TRACE_TREE_H_
