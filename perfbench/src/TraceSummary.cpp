//===- TraceSummary.cpp - Self time by span name --------------------------===//

#include "TraceSummary.h"

#include "support/Trace.h"

using namespace pb;
using dprle::Json;

double SpanTotals::self(const std::string &Name) const {
  auto It = SelfSeconds.find(Name);
  return It == SelfSeconds.end() ? 0 : It->second;
}

double SpanTotals::selfWithPrefix(const std::string &Prefix) const {
  double Sum = 0;
  for (const auto &[Name, Seconds] : SelfSeconds)
    if (Name.rfind(Prefix, 0) == 0)
      Sum += Seconds;
  return Sum;
}

void SpanTotals::add(const SpanTotals &Other) {
  for (const auto &[Name, Seconds] : Other.SelfSeconds)
    SelfSeconds[Name] += Seconds;
  for (const auto &[Name, N] : Other.Count)
    Count[Name] += N;
  SolveSeconds += Other.SolveSeconds;
  NamedLeafInSolveSeconds += Other.NamedLeafInSolveSeconds;
  Spans += Other.Spans;
  Dropped += Other.Dropped;
}

namespace {

bool isNamedLeaf(const std::string &Name) {
  return Name == "intersect" || Name == "determinize" ||
         Name == "concat_intersect" || Name.rfind("decide_", 0) == 0;
}

void walk(const Json &Span, bool InSolve, SpanTotals &T) {
  const Json *NameJ = Span.find("name");
  const Json *DurJ = Span.find("duration_seconds");
  if (!NameJ || !DurJ)
    return;
  const std::string &Name = NameJ->asString();
  double Duration = DurJ->asDouble();
  bool OpensSolve =
      !InSolve && (Name == "solve" || Name == "session_check");
  if (OpensSolve)
    T.SolveSeconds += Duration;
  double ChildSeconds = 0;
  if (const Json *Kids = Span.find("children"))
    for (const Json &Kid : Kids->elements()) {
      if (const Json *D = Kid.find("duration_seconds"))
        ChildSeconds += D->asDouble();
      walk(Kid, InSolve || OpensSolve, T);
    }
  double Self = Duration > ChildSeconds ? Duration - ChildSeconds : 0;
  T.SelfSeconds[Name] += Self;
  ++T.Count[Name];
  if (InSolve && isNamedLeaf(Name))
    T.NamedLeafInSolveSeconds += Self;
}

} // namespace

SpanTotals pb::summarizeTrace(const Json &Trace) {
  SpanTotals T;
  if (const Json *Spans = Trace.find("spans"))
    for (const Json &Root : Spans->elements())
      walk(Root, false, T);
  if (const Json *N = Trace.find("span_count"))
    T.Spans = N->asUnsigned();
  if (const Json *D = Trace.find("dropped_spans"))
    T.Dropped = D->asUnsigned();
  return T;
}

OpTrace::OpTrace(SpanTotals &Into) : Into(Into) {
  dprle::TraceCollector &C = dprle::TraceCollector::global();
  C.setMaxSpans(TraceMaxSpans);
  C.start();
}

OpTrace::~OpTrace() {
  dprle::TraceCollector &C = dprle::TraceCollector::global();
  C.stop();
  Into.add(summarizeTrace(C.toJson()));
}
