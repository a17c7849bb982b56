//===- TraceSummary.h - Self time by span name ------------------*- C++ -*-==//
///
/// \file
/// Reduces the program's TraceCollector forest to totals by span name. A
/// span's self time is its duration minus the part its children cover.
/// Traced runs arm the collector around one operation at a time, so every
/// operation is its own root span and memory stays bounded by the largest
/// single operation.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACESUMMARY_H
#define PERFBENCH_TRACESUMMARY_H

#include "support/Json.h"

#include <cstdint>
#include <map>
#include <string>

namespace pb {

struct SpanTotals {
  std::map<std::string, double> SelfSeconds;
  std::map<std::string, uint64_t> Count;
  /// Wall time of the outermost `solve` / `session_check` spans.
  double SolveSeconds = 0;
  /// Self time of the automata-layer leaf spans (intersect, determinize,
  /// concat_intersect, decide_*) inside those solves.
  double NamedLeafInSolveSeconds = 0;
  uint64_t Spans = 0;
  uint64_t Dropped = 0;

  double self(const std::string &Name) const;
  /// Sum of self times of every span whose name starts with \p Prefix.
  double selfWithPrefix(const std::string &Prefix) const;
  void add(const SpanTotals &Other);
};

/// Totals of a TraceCollector::toJson() document.
SpanTotals summarizeTrace(const dprle::Json &Trace);

/// Arms the process-wide collector for one operation; the destructor
/// disarms it and folds the operation's spans into \p Into. The caller
/// opens its own root span inside the scope.
class OpTrace {
public:
  explicit OpTrace(SpanTotals &Into);
  ~OpTrace();
  OpTrace(const OpTrace &) = delete;
  OpTrace &operator=(const OpTrace &) = delete;

private:
  SpanTotals &Into;
};

/// Span cap for traced runs, far above what one operation opens, so that
/// no span is dropped (trace.dropped_spans reports any that are).
constexpr size_t TraceMaxSpans = size_t(1) << 22;

} // namespace pb

#endif // PERFBENCH_TRACESUMMARY_H
