//===- SessionEdit.cpp - session_edit: incremental editing ----------------===//
//
// Long SolverSession trajectories, as an editor or `dprle repl` user
// drives them: one session per base system (the sink-path constraint
// systems of the Figure 12 rows and of Figure 11 pages), then a seeded
// sequence of edits. An operation is one edit: push(one-constraint delta)
// -> check -> pop -> check. Pushes and pops are the writes; the two checks
// are reads. Most of the time goes to the session's own solve pipeline and
// its content-keyed caches, which fig12_faithful never touches. The
// traced run also measures the service layer (see ServiceLayer.cpp).
//
// Reference: every check must be bit-identical (verdict, every
// assignment's language and witness) to a cold Solver::solve of the same
// flattened system, computed during set-up.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Workloads.h"

#include "automata/Decide.h"
#include "solver/ConstraintParser.h"
#include "solver/Session.h"
#include "solver/Solver.h"
#include "support/Trace.h"

#include <sstream>

using namespace pb;
using namespace dprle;

namespace {

/// Edits per base system per pass: about 3,800 edits, so that a pass
/// lasts over a second and its median is steady.
constexpr unsigned EditsPerBase = 200;

/// Everything the session equivalence guarantee covers: status bits, and
/// each assignment's language (structural encoding) and witness.
std::string fingerprint(const SolveResult &R) {
  std::ostringstream Os;
  Os << "sat=" << R.Satisfiable << " cancelled=" << R.Cancelled
     << " exhausted=" << R.ResourceExhausted << " n=" << R.Assignments.size()
     << "\n";
  for (const Assignment &A : R.Assignments)
    for (VarId V = 0; V != A.numVariables(); ++V) {
      std::optional<std::string> W = A.witness(V);
      Os << V << " lang=" << structuralEncoding(A.language(V))
         << " witness=" << (W ? *W : std::string("<empty>")) << "\n";
    }
  return Os.str();
}

/// First solution, no maximality widening: what the analysis asks for.
SolverOptions sessionOptions() {
  SolverOptions Opts;
  Opts.MaxSolutions = 1;
  Opts.MaximizeSolutions = false;
  return Opts;
}

struct Reference {
  std::vector<std::string> Base;
  std::vector<std::vector<std::string>> Delta;
  std::vector<double> ColdCheckMs;
};

/// Cold solves of every state a trajectory can reach.
Reference coldReference(const SessionPlan &Plan, const SolverOptions &Opts,
                        RunResult &R) {
  Reference Ref;
  Solver Cold(Opts);
  auto Solve = [&](const Problem &P) {
    SteadyClock::time_point Start = SteadyClock::now();
    SolveResult S = Cold.solve(P);
    Ref.ColdCheckMs.push_back(secondsSince(Start) * 1e3);
    return fingerprint(S);
  };
  for (size_t B = 0; B != Plan.Bases.size(); ++B) {
    SolverSession Flat(Opts);
    std::string Err;
    if (!Flat.assertText(Plan.Bases[B], &Err))
      R.fail(Plan.BaseLabels[B] + ": base does not parse: " + Err);
    Ref.Base.push_back(Solve(Flat.problem()));
    Ref.Delta.emplace_back();
    for (const std::string &D : Plan.Deltas[B]) {
      if (!Flat.push(D, &Err))
        R.fail(Plan.BaseLabels[B] + ": delta does not parse: " + Err);
      Ref.Delta.back().push_back(Solve(Flat.problem()));
      Flat.pop();
    }
  }
  return Ref;
}

/// Per-pass tallies of the session layer.
struct SessionTimes {
  double PushS = 0, CheckS = 0, PopS = 0, ParseS = 0;
  double Pushes = 0, Checks = 0, Pops = 0, Parses = 0;
  double GroupsReused = 0, GroupsTotal = 0;
};

} // namespace

RunResult pb::runSessionEdit(const Options &O) {
  RunResult R;
  const SolverOptions Opts = sessionOptions();
  SessionPlan Plan;
  Reference Ref;
  EndToEnd E;
  // Set-up: extract the base systems from the corpus, draw the edits, and
  // solve every reachable state cold for the reference.
  E.SetupS = medianSetupSeconds([&] {
    Plan = sessionPlan(O.Seed, EditsPerBase);
    clearProgramCaches();
    Ref = coldReference(Plan, Opts, R);
  });
  if (O.CorruptReference)
    Ref.Base.front() += "corrupted";

  auto Check = [&](SolverSession &S, const std::string &Want,
                   const std::string &What, SessionTimes &T) {
    SteadyClock::time_point Start = SteadyClock::now();
    SolveResult Got;
    {
      DPRLE_TRACE_SPAN("pb.check");
      Got = S.check();
    }
    double Seconds = secondsSince(Start);
    T.CheckS += Seconds;
    ++T.Checks;
    T.GroupsReused += double(S.lastCheckInfo().GroupsReused);
    T.GroupsTotal += double(S.lastCheckInfo().GroupsTotal);
    ++R.Attempted;
    if (fingerprint(Got) != Want)
      R.fail(What + ": check differs from the cold solve");
    return Seconds;
  };

  // One pass; returns its wall time excluding the fingerprint checks.
  auto Pass = [&](bool Traced, SessionTimes &T, SpanTotals &Spans,
                  std::vector<double> *OpMs) {
    clearProgramCaches();
    double PassS = 0;
    for (uint32_t B : Plan.Order) {
      const std::string &Label = Plan.BaseLabels[B];
      SolverSession S(Opts);
      SteadyClock::time_point Start = SteadyClock::now();
      S.assertText(Plan.Bases[B]);
      PassS += secondsSince(Start);
      PassS += Check(S, Ref.Base[B], Label + " open", T);
      std::map<std::string, Nfa> Lets;
      for (uint32_t D : Plan.Edits[B]) {
        const std::string &Delta = Plan.Deltas[B][D];
        if (Traced) {
          SteadyClock::time_point ParseStart = SteadyClock::now();
          parseConstraintDelta(Delta, S.problem(), Lets);
          T.ParseS += secondsSince(ParseStart);
          ++T.Parses;
        }
        std::optional<OpTrace> Op;
        if (Traced)
          Op.emplace(Spans);
        DPRLE_TRACE_SPAN("pb.edit");
        double OpS = 0;
        Start = SteadyClock::now();
        {
          DPRLE_TRACE_SPAN("pb.push");
          S.push(Delta);
        }
        double PushS = secondsSince(Start);
        T.PushS += PushS;
        ++T.Pushes;
        OpS += PushS;
        OpS += Check(S, Ref.Delta[B][D], Label + " +delta", T);
        Start = SteadyClock::now();
        {
          DPRLE_TRACE_SPAN("pb.pop");
          S.pop();
        }
        double PopS = secondsSince(Start);
        T.PopS += PopS;
        ++T.Pops;
        OpS += PopS;
        OpS += Check(S, Ref.Base[B], Label + " -delta", T);
        PassS += OpS;
        if (OpMs)
          OpMs->push_back(OpS * 1e3);
      }
    }
    return PassS;
  };

  SessionTimes Untraced;
  SpanTotals NoSpans;
  const double Budget = O.Trace ? O.Seconds / 2 : O.Seconds;
  SteadyClock::time_point RunStart = SteadyClock::now();
  do
    E.PassS.push_back(Pass(false, Untraced, NoSpans, &E.OpMs));
  while (secondsSince(RunStart) < Budget);

  if (!O.Trace) {
    addEndToEnd(R, E);
    return R;
  }

  SessionTimes T;
  SpanTotals Spans;
  std::vector<double> TracedPassS;
  CounterWindow Counters;
  double SysBefore = selfSystemSeconds();
  armAllocCounting(true);
  RunStart = SteadyClock::now();
  do
    TracedPassS.push_back(Pass(true, T, Spans, nullptr));
  while (secondsSince(RunStart) < O.Seconds - Budget);
  armAllocCounting(false);

  const double Passes = double(TracedPassS.size());
  LayerReport L;
  L["session.push_ms"] = T.PushS * 1e3 / T.Pushes;
  L["session.check_ms"] = T.CheckS * 1e3 / T.Checks;
  L["session.pop_ms"] = T.PopS * 1e3 / T.Pops;
  L["regex.constraint_parse_ms"] = T.ParseS * 1e3 / T.Parses;
  L["session.groups_reused"] = T.GroupsReused / Passes;
  L["session.groups_total"] = T.GroupsTotal / Passes;
  L["session.reuse_ratio"] =
      T.GroupsTotal > 0 ? T.GroupsReused / T.GroupsTotal : 0;
  L["session.cold_check_ms"] = median(Ref.ColdCheckMs);
  L["solver.solve_ms"] = T.CheckS * 1e3 / Passes;
  finishTracedLayers(L, Spans, Counters.deltas(), SysBefore, TracedPassS,
                     E.PassS, E.OpMs.size());
  // After the session layers' counters are read, so that the service
  // stream does not enter them.
  measureServiceLayer(O.Seed, R, L);
  L.emit(R);
  return R;
}
