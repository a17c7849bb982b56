//===- Pipeline.h - The analysis pipeline, timed step by step ---*- C++ -*-==//
///
/// \file
/// The traced run of fig12_faithful replays what analyzeSource does, one
/// public call at a time, so that each layer's time is measured from
/// outside it: parseProgram + inlineFunctions, unrollLoops + Cfg::build,
/// runSymExecAll, and one Solver::solve per sink path until the first
/// vulnerable one per attack spec. The untraced runs call analyzeSource
/// themselves.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PIPELINE_H
#define PERFBENCH_PIPELINE_H

#include "Workloads.h"

#include "miniphp/Analysis.h"

#include <string>
#include <vector>

namespace pb {

/// Per-layer totals accumulated over the traced passes.
struct PipelineTimes {
  double ParseS = 0, CfgS = 0, SymExecS = 0, SolveS = 0;
  double SinkPaths = 0;
  double StatesVisited = 0, ConcatsBuilt = 0, CombinationsTried = 0,
         CombinationsAccepted = 0;
  void fill(LayerReport &L, double Passes) const;
};

/// Verdict of one file under one spec, as the checks compare it.
struct SpecVerdict {
  bool Vulnerable = false;
  unsigned NumConstraints = 0;
};

struct PipelineResult {
  bool ParseOk = false;
  unsigned Blocks = 0;
  std::vector<SpecVerdict> Verdicts;
};

PipelineResult
runPipelineTimed(const std::string &Source,
                 const std::vector<dprle::miniphp::AttackSpec> &Specs,
                 const dprle::miniphp::AnalysisOptions &Opts, PipelineTimes &T);

} // namespace pb

#endif // PERFBENCH_PIPELINE_H
