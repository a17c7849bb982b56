//===- Fig12.cpp - fig12_faithful: the paper's own experiment -------------===//
//
// Each pass analyses every Figure 12 row cold, in paper-faithful mode
// (constants not canonicalized, first solution only), as one `dprle
// analyze` run per file would: the process-wide caches are cleared before
// each row, and each pass runs on a fresh thread so SymExec's thread-local
// branch memo starts cold too. About two thirds of the time goes to the
// miniphp front end (symbolic execution and its taint pass) and most of
// the rest to the solver (process_nodes, enumerate_solutions, intersect);
// the service and sessions do nothing here.
//
// The rows are the 16 ordinary ones; the pathological `secure` row is
// left out (see fig12Rows).
//
// Reference: each row must be vulnerable with the |FG| and |C| its
// generator was asked for (the paper's).
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Pipeline.h"
#include "Workloads.h"

#include "miniphp/Analysis.h"
#include "support/Trace.h"


using namespace pb;
using namespace dprle;
using namespace dprle::miniphp;

namespace {

AnalysisOptions faithfulOptions() {
  AnalysisOptions Opts;
  Opts.Solver.CanonicalizeConstants = false;
  return Opts;
}

void checkRow(RunResult &R, const Fig12Row &Row, bool Vulnerable,
              unsigned Blocks, unsigned Constraints) {
  ++R.Attempted;
  if (!Vulnerable || Blocks != Row.Blocks || Constraints != Row.Constraints)
    R.fail(Row.Label + ": vulnerable=" + std::to_string(Vulnerable) +
           " |FG|=" + std::to_string(Blocks) + " (want " +
           std::to_string(Row.Blocks) + ") |C|=" +
           std::to_string(Constraints) + " (want " +
           std::to_string(Row.Constraints) + ")");
}

} // namespace

RunResult pb::runFig12(const Options &O) {
  RunResult R;
  const AnalysisOptions Opts = faithfulOptions();
  std::vector<Fig12Row> Rows;
  EndToEnd E;
  // Set-up: generate the rows and warm the process with one canonicalized
  // analysis of each row.
  E.SetupS = medianSetupSeconds([&] {
    Rows = fig12Rows(O.Seed);
    clearProgramCaches();
    for (const Fig12Row &Row : Rows)
      analyzeSource(Row.Source, AttackSpec::sqlQuote());
  });
  if (O.CorruptReference)
    ++Rows.front().Constraints;

  // Untraced passes: analyzeSource per row, exactly the user's call.
  auto UntracedPass = [&](std::vector<double> &OpMs) {
    double PassS = 0;
    onFreshThread([&] {
      SteadyClock::time_point Start = SteadyClock::now();
      for (const Fig12Row &Row : Rows) {
        clearProgramCaches();
        SteadyClock::time_point OpStart = SteadyClock::now();
        AnalysisResult A =
            analyzeSource(Row.Source, AttackSpec::sqlQuote(), Opts);
        OpMs.push_back(secondsSince(OpStart) * 1e3);
        checkRow(R, Row, A.vulnerable(), A.NumBlocks, A.NumConstraints);
      }
      PassS = secondsSince(Start);
    });
    return PassS;
  };

  const double Budget = O.Trace ? O.Seconds / 2 : O.Seconds;
  SteadyClock::time_point RunStart = SteadyClock::now();
  do
    E.PassS.push_back(UntracedPass(E.OpMs));
  while (secondsSince(RunStart) < Budget);

  if (!O.Trace) {
    addEndToEnd(R, E);
    return R;
  }

  PipelineTimes Times;
  SpanTotals Spans;
  std::vector<double> TracedPassS;
  CounterWindow Counters;
  double SysBefore = selfSystemSeconds();
  armAllocCounting(true);
  RunStart = SteadyClock::now();
  do {
    double PassS = 0;
    onFreshThread([&] {
      for (const Fig12Row &Row : Rows) {
        clearProgramCaches();
        PipelineResult P;
        SteadyClock::time_point OpStart = SteadyClock::now();
        {
          OpTrace Op(Spans);
          DPRLE_TRACE_SPAN("pb.row");
          P = runPipelineTimed(Row.Source, {AttackSpec::sqlQuote()}, Opts,
                               Times);
          PassS += secondsSince(OpStart);
        }
        checkRow(R, Row, P.ParseOk && P.Verdicts.at(0).Vulnerable, P.Blocks,
                 P.Verdicts.at(0).NumConstraints);
      }
    });
    TracedPassS.push_back(PassS);
  } while (secondsSince(RunStart) < O.Seconds - Budget);
  armAllocCounting(false);

  LayerReport L;
  Times.fill(L, double(TracedPassS.size()));
  finishTracedLayers(L, Spans, Counters.deltas(), SysBefore, TracedPassS,
                     E.PassS, E.OpMs.size());
  L.emit(R);
  return R;
}
