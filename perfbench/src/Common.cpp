//===- Common.cpp - Plumbing shared by the workloads ----------------------===//

#include "Workloads.h"

#include "automata/Decide.h"
#include "automata/NfaOps.h"

#include <algorithm>
#include <cstdio>

using namespace pb;

const std::vector<std::pair<std::string, std::string>> &
pb::endToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> M = {
      {"setup_s", "s"},       {"pass_s", "s"},
      {"op_ms.p50", "ms"},    {"op_ms.p99", "ms"},
      {"max_ops_per_s", "1/s"}, {"peak_rss_mb", "MB"},
      {"ok_frac", "frac"},
  };
  return M;
}

const std::vector<std::pair<std::string, std::string>> &
pb::perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> M = {
      // miniphp
      {"miniphp.parse_ms", "ms"},
      {"miniphp.cfg_ms", "ms"},
      {"miniphp.symexec_ms", "ms"},
      {"miniphp.taint_ms", "ms"},
      {"miniphp.sink_paths", "count"},
      {"miniphp.taint.sinks_proven_safe", "count"},
      // regex
      {"regex.constraint_parse_ms", "ms"},
      // solver
      {"solver.solve_ms", "ms"},
      {"solver.graph_ms", "ms"},
      {"solver.reduce_ms", "ms"},
      {"solver.process_nodes_ms", "ms"},
      {"solver.enumerate_ms", "ms"},
      {"solver.assemble_ms", "ms"},
      {"solver.states_visited", "count"},
      {"solver.concats_built", "count"},
      {"solver.combinations_tried", "count"},
      {"solver.combinations_accepted", "count"},
      {"solver.named_leaf_frac", "frac"},
      // solver (Session)
      {"session.push_ms", "ms"},
      {"session.check_ms", "ms"},
      {"session.pop_ms", "ms"},
      {"session.reuse_ratio", "frac"},
      {"session.groups_reused", "count"},
      {"session.groups_total", "count"},
      {"session.cold_check_ms", "ms"},
      // automata
      {"automata.intersect_ms", "ms"},
      {"automata.determinize_ms", "ms"},
      {"automata.concat_intersect_ms", "ms"},
      {"automata.decide_ms", "ms"},
      {"automata.product_states_visited", "count"},
      {"automata.trim_states_visited", "count"},
      {"automata.determinize_states_visited", "count"},
      {"automata.epsilon_closure_steps", "count"},
      {"csr.builds", "count"},
      {"csr.reuses", "count"},
      {"decide.cache_hits", "count"},
      {"decide.cache_misses", "count"},
      {"decide.hit_ratio", "frac"},
      {"decide.product_pairs_visited", "count"},
      {"decide.macro_pairs_visited", "count"},
      {"minimize.hits", "count"},
      {"minimize.misses", "count"},
      {"alloc.count", "count"},
      {"alloc.bytes", "bytes"},
      {"proc.sys_s", "s"},
      // service
      {"serve.rtt_ms.p50", "ms"},
      {"serve.solve_ms.p50", "ms"},
      {"serve.overhead_ms.p50", "ms"},
      {"serve.route_ms", "ms"},
      {"serve.parse_ms", "ms"},
      {"router.shard_balance", "ratio"},
      // support (trace) and the run itself
      {"trace.overhead_frac", "frac"},
      {"trace.dropped_spans", "count"},
      {"trace.spans_per_pass", "count"},
      {"op.samples", "count"},
  };
  return M;
}

void pb::clearProgramCaches() {
  dprle::DecisionCache::global().clear();
  dprle::clearMinimizeCache();
}

double pb::medianSetupSeconds(const std::function<void()> &Setup) {
  std::vector<double> Times;
  double Total = 0;
  while (Times.size() < size_t(SetupMinRepeats) ||
         (Total < SetupMinSeconds && Times.size() < size_t(SetupMaxRepeats))) {
    SteadyClock::time_point Start = SteadyClock::now();
    Setup();
    Times.push_back(secondsSince(Start));
    Total += Times.back();
  }
  Quartiles Q = quartiles(Times);
  std::fprintf(stderr, "set-up: %zu times, quartiles %.4f %.4f %.4f s\n",
               Times.size(), Q.Q1, Q.Q2, Q.Q3);
  return median(Times);
}

void pb::addEndToEnd(RunResult &R, const EndToEnd &E) {
  const ClosedLoopFigures F = closedLoopFigures(E.PassS, E.OpMs);
  const size_t PerPass = E.OpMs.size() / E.PassS.size();
  std::fprintf(stderr,
               "ops: %zu samples, %zu per pass; op_ms.p50 %.4f; op_ms.p99 "
               "reported at p%.2f of the %zu per-operation fastest times, "
               "with %zu beyond\n",
               E.OpMs.size(), PerPass, F.OpP50, F.Tail.Level * 100,
               F.Tail.Samples, F.Tail.Beyond);
  Quartiles Pass = quartiles(E.PassS);
  std::fprintf(stderr,
               "pass_s %.4f at full speed; measured passes' quartiles %.4f "
               "%.4f %.4f; pass seconds:",
               F.PassS, Pass.Q1, Pass.Q2, Pass.Q3);
  for (double P : E.PassS)
    std::fprintf(stderr, " %.4f", P);
  std::fprintf(stderr, "\n");
  double Attempted = double(std::max<uint64_t>(R.Attempted, 1));
  R.add("setup_s", E.SetupS, "s");
  R.add("pass_s", F.PassS, "s");
  R.add("op_ms.p50", F.OpP50, "ms");
  R.add("op_ms.p99", F.OpP99, "ms");
  R.add("max_ops_per_s", double(PerPass) / F.PassS, "1/s");
  R.add("peak_rss_mb", selfPeakRssMb(), "MB");
  R.add("ok_frac", 1.0 - double(R.Failed) / Attempted, "frac");
}

void LayerReport::emit(RunResult &R) const {
  for (const auto &[Name, Unit] : perLayerMetrics()) {
    auto It = Values.find(Name);
    R.add(Name, It == Values.end() ? 0.0 : It->second, Unit);
  }
}

std::map<std::string, double> CounterWindow::deltas() const {
  std::map<std::string, double> Out;
  for (const auto &[Name, Value] : dprle::StatsRegistry::delta(
           Before, dprle::StatsRegistry::global().snapshot()))
    Out[Name] = double(Value);
  return Out;
}

namespace {
double get(const std::map<std::string, double> &M, const char *Name) {
  auto It = M.find(Name);
  return It == M.end() ? 0 : It->second;
}
} // namespace

void pb::finishTracedLayers(LayerReport &L, const SpanTotals &Spans,
                            const std::map<std::string, double> &Deltas,
                            double SysBefore,
                            const std::vector<double> &TracedPassS,
                            const std::vector<double> &UntracedPassS,
                            size_t OpSamples) {
  const double Passes = double(TracedPassS.size());
  for (const char *Name :
       {"automata.product_states_visited", "automata.trim_states_visited",
        "automata.determinize_states_visited",
        "automata.epsilon_closure_steps", "csr.builds", "csr.reuses",
        "decide.cache_hits", "decide.cache_misses",
        "decide.product_pairs_visited", "decide.macro_pairs_visited",
        "minimize.hits", "minimize.misses",
        "miniphp.taint.sinks_proven_safe"})
    L[Name] = get(Deltas, Name) / Passes;
  double Hits = get(Deltas, "decide.cache_hits");
  double Misses = get(Deltas, "decide.cache_misses");
  L["decide.hit_ratio"] = Hits + Misses > 0 ? Hits / (Hits + Misses) : 0;
  L["automata.intersect_ms"] = Spans.self("intersect") * 1e3 / Passes;
  L["automata.determinize_ms"] = Spans.self("determinize") * 1e3 / Passes;
  L["automata.concat_intersect_ms"] =
      Spans.self("concat_intersect") * 1e3 / Passes;
  L["automata.decide_ms"] = Spans.selfWithPrefix("decide_") * 1e3 / Passes;
  L["solver.graph_ms"] = Spans.self("build_dependency_graph") * 1e3 / Passes;
  L["solver.reduce_ms"] = Spans.self("reduce") * 1e3 / Passes;
  L["solver.process_nodes_ms"] = Spans.self("process_nodes") * 1e3 / Passes;
  L["solver.enumerate_ms"] =
      Spans.self("enumerate_solutions") * 1e3 / Passes;
  L["solver.assemble_ms"] = Spans.self("assemble") * 1e3 / Passes;
  L["solver.named_leaf_frac"] =
      Spans.SolveSeconds > 0
          ? Spans.NamedLeafInSolveSeconds / Spans.SolveSeconds
          : 0;
  L["miniphp.taint_ms"] = (Spans.self("taint_dataflow") +
                           Spans.self("taint_slice")) *
                          1e3 / Passes;
  AllocTotals Alloc = allocTotals();
  L["alloc.count"] = double(Alloc.Count) / Passes;
  L["alloc.bytes"] = double(Alloc.Bytes) / Passes;
  L["proc.sys_s"] = (selfSystemSeconds() - SysBefore) / Passes;
  L["op.samples"] = double(OpSamples);
  L["trace.overhead_frac"] = median(TracedPassS) / median(UntracedPassS) - 1;
  L["trace.dropped_spans"] = double(Spans.Dropped);
  L["trace.spans_per_pass"] = double(Spans.Spans) / Passes;
  // The self-time table, by span name, for the reader of the run log.
  std::fprintf(stderr, "%-28s %12s %10s\n", "span (self time)", "ms/pass",
               "count");
  for (const auto &[Name, Seconds] : Spans.SelfSeconds)
    std::fprintf(stderr, "%-28s %12.3f %10.0f\n", Name.c_str(),
                 Seconds * 1e3 / Passes,
                 double(Spans.Count.at(Name)) / Passes);
  std::fprintf(stderr, "named leaf share of solve time: %.3f; dropped "
                       "spans: %llu\n",
               Spans.SolveSeconds > 0
                   ? Spans.NamedLeafInSolveSeconds / Spans.SolveSeconds
                   : 0.0,
               static_cast<unsigned long long>(Spans.Dropped));
}
