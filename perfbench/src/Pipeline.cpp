//===- Pipeline.cpp - The analysis pipeline, timed step by step -----------===//

#include "Pipeline.h"

#include "miniphp/Cfg.h"
#include "miniphp/Inline.h"
#include "miniphp/Parser.h"
#include "miniphp/SymExec.h"
#include "miniphp/Unroll.h"
#include "support/Trace.h"

using namespace pb;
using namespace dprle;
using namespace dprle::miniphp;

void PipelineTimes::fill(LayerReport &L, double Passes) const {
  L["miniphp.parse_ms"] = ParseS * 1e3 / Passes;
  L["miniphp.cfg_ms"] = CfgS * 1e3 / Passes;
  L["miniphp.symexec_ms"] = SymExecS * 1e3 / Passes;
  L["miniphp.sink_paths"] = SinkPaths / Passes;
  L["solver.solve_ms"] = SolveS * 1e3 / Passes;
  L["solver.states_visited"] = StatesVisited / Passes;
  L["solver.concats_built"] = ConcatsBuilt / Passes;
  L["solver.combinations_tried"] = CombinationsTried / Passes;
  L["solver.combinations_accepted"] = CombinationsAccepted / Passes;
}

PipelineResult pb::runPipelineTimed(const std::string &Source,
                                    const std::vector<AttackSpec> &Specs,
                                    const AnalysisOptions &Opts,
                                    PipelineTimes &T) {
  PipelineResult Out;
  SteadyClock::time_point Start = SteadyClock::now();
  InlineResult Inlined;
  {
    DPRLE_TRACE_SPAN("pb.parse");
    ParseResult Parsed = parseProgram(Source);
    if (!Parsed.Ok)
      return Out;
    Inlined = inlineFunctions(Parsed.Prog);
  }
  T.ParseS += secondsSince(Start);
  if (!Inlined.Ok)
    return Out;
  Out.ParseOk = true;

  Start = SteadyClock::now();
  Program Prog;
  Cfg G;
  {
    DPRLE_TRACE_SPAN("pb.cfg");
    Prog = unrollLoops(Inlined.Prog, Opts.LoopUnroll);
    G = Cfg::build(Prog);
  }
  T.CfgS += secondsSince(Start);
  Out.Blocks = G.numBlocks();

  Start = SteadyClock::now();
  std::vector<SymExecResult> Sym;
  {
    DPRLE_TRACE_SPAN("pb.symexec");
    SymExecOptions SymOpts = Opts.SymExec;
    SymOpts.TaintPrune = Opts.TaintPrune;
    Sym = runSymExecAll(Prog, G, Specs, SymOpts);
  }
  T.SymExecS += secondsSince(Start);

  for (const SymExecResult &S : Sym) {
    SpecVerdict V;
    T.SinkPaths += double(S.Paths.size());
    Solver TheSolver(Opts.Solver);
    for (const PathCondition &PC : S.Paths) {
      Start = SteadyClock::now();
      SolveResult SR;
      {
        DPRLE_TRACE_SPAN("pb.solve");
        SR = TheSolver.solve(PC.Instance);
      }
      T.SolveS += secondsSince(Start);
      T.StatesVisited += double(SR.Stats.StatesVisited);
      T.ConcatsBuilt += double(SR.Stats.ConcatsBuilt);
      T.CombinationsTried += double(SR.Stats.CombinationsTried);
      T.CombinationsAccepted += double(SR.Stats.CombinationsAccepted);
      if (!SR.Satisfiable)
        continue;
      V.Vulnerable = true;
      V.NumConstraints = PC.NumConstraints;
      break; // first vulnerable path only, as the analysis does
    }
    Out.Verdicts.push_back(V);
  }
  return Out;
}
