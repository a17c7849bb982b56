//===- Slice.cpp - Backward slices of taint sinks -------------------------===//

#include "miniphp/Slice.h"
#include "miniphp/Policy.h"
#include "support/Trace.h"

#include <deque>

using namespace dprle;
using namespace dprle::miniphp;

const SinkSlice *CfgSlices::sliceFor(const Stmt *S) const {
  for (const SinkSlice &Slice : Slices)
    if (Slice.Sink == S)
      return &Slice;
  return nullptr;
}

std::vector<char>
CfgSlices::blocksReaching(const std::vector<char> &Targets) const {
  std::vector<char> Reaches(Preds.size(), 0);
  std::deque<BlockId> Work;
  for (BlockId B = 0; B != Preds.size(); ++B)
    if (Targets[B]) {
      Reaches[B] = 1;
      Work.push_back(B);
    }
  while (!Work.empty()) {
    BlockId B = Work.front();
    Work.pop_front();
    for (BlockId P : Preds[B])
      if (!Reaches[P]) {
        Reaches[P] = 1;
        Work.push_back(P);
      }
  }
  return Reaches;
}

namespace {

void addVars(const StrExpr &E, std::set<std::string> &Vars) {
  for (const Atom &A : E)
    if (A.AtomKind == Atom::Kind::Variable)
      Vars.insert(A.Text);
}

/// One statement defining a variable: `v = expr`, or a sanitizer call
/// `$v = san($y)`, which counts as a definition of v from $y — the
/// *model's* output is independent of y (miniphp/Policy.h), but the
/// human-facing slice keeps the data provenance.
struct Definition {
  const std::string *Target;
  const StrExpr *Value;
};

/// The definitions in the blocks with \p InScope set.
std::vector<Definition> definitionsIn(const Cfg &G,
                                      const std::vector<char> &InScope) {
  std::vector<Definition> Defs;
  for (BlockId B = 0; B != G.numBlocks(); ++B) {
    if (!InScope[B])
      continue;
    for (const Stmt *S : G.block(B).Stmts) {
      if (S->StmtKind == Stmt::Kind::Assign)
        Defs.push_back({&S->Target, &S->Value});
      else if (S->StmtKind == Stmt::Kind::Call && !S->Target.empty() &&
               PolicyRegistry::global().sanitizerFor(S->Callee))
        Defs.push_back({&S->Target, &S->Arg});
    }
  }
  return Defs;
}

/// Closes \p Vars over \p Defs: while some definition assigns a variable
/// of Vars, the variables it reads are in Vars too.
void closeOverDefinitions(const std::vector<Definition> &Defs,
                          std::set<std::string> &Vars) {
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const Definition &D : Defs) {
      if (!Vars.count(*D.Target))
        continue;
      for (const Atom &A : *D.Value)
        if (A.AtomKind == Atom::Kind::Variable && Vars.insert(A.Text).second)
          Changed = true;
    }
  }
}

bool auditedByAny(const std::vector<AttackSpec> &Specs,
                  const std::string &Callee) {
  for (const AttackSpec &Spec : Specs)
    if (Spec.appliesTo(Callee))
      return true;
  return false;
}

} // namespace

CfgSlices dprle::miniphp::sliceSinks(const Cfg &G,
                                     const std::vector<AttackSpec> &Specs) {
  DPRLE_TRACE_SPAN("taint_slice");
  CfgSlices Result;
  const unsigned N = G.numBlocks();
  Result.Preds.resize(N);
  std::vector<char> SinkBlocks(N, 0);
  for (BlockId B = 0; B != N; ++B) {
    for (BlockId S : G.block(B).Succs)
      Result.Preds[S].push_back(B);
    for (const Stmt *S : G.block(B).Stmts)
      if (S->StmtKind == Stmt::Kind::Sink && auditedByAny(Specs, S->Callee)) {
        SinkSlice Slice;
        Slice.Sink = S;
        Slice.Line = S->Line;
        Slice.Block = B;
        Result.Slices.push_back(std::move(Slice));
        SinkBlocks[B] = 1;
      }
  }
  Result.Reachable.assign(N, 0);
  if (N != 0) {
    // Forward reachability from the entry (Cfg::lower gives unreachable
    // code its own predecessor-less blocks).
    std::deque<BlockId> Work{G.entry()};
    Result.Reachable[G.entry()] = 1;
    while (!Work.empty()) {
      BlockId B = Work.front();
      Work.pop_front();
      for (BlockId S : G.block(B).Succs)
        if (!Result.Reachable[S]) {
          Result.Reachable[S] = 1;
          Work.push_back(S);
        }
    }
  }
  Result.ReachesSink = Result.blocksReaching(SinkBlocks);

  // Per-sink slices: the sink's own variables closed over the
  // definitions in the blocks that can reach the sink (ValueVars), plus
  // the condition variables of every guarding branch, closed again
  // (Vars); the slice lines are those definitions, the guards, and the
  // sink itself. Sinks of one block share its guards.
  std::vector<char> Guards;
  std::vector<Definition> Defs;
  for (size_t I = 0; I != Result.Slices.size(); ++I) {
    SinkSlice &Slice = Result.Slices[I];
    if (I == 0 || Result.Slices[I - 1].Block != Slice.Block) {
      std::vector<char> Target(N, 0);
      Target[Slice.Block] = 1;
      Guards = Result.blocksReaching(Target);
      Defs = definitionsIn(G, Guards);
    }
    addVars(Slice.Sink->Arg, Slice.ValueVars);
    closeOverDefinitions(Defs, Slice.ValueVars);
    Slice.Vars = Slice.ValueVars;
    for (BlockId B = 0; B != N; ++B)
      if (Guards[B] && G.block(B).Terminator)
        addVars(G.block(B).Terminator->Cond.Operand, Slice.Vars);
    closeOverDefinitions(Defs, Slice.Vars);
    if (Result.Reachable[Slice.Block])
      Result.ValueVars.insert(Slice.ValueVars.begin(), Slice.ValueVars.end());

    Slice.Lines.insert(Slice.Line);
    for (BlockId B = 0; B != N; ++B) {
      if (!Guards[B])
        continue;
      for (const Stmt *S : G.block(B).Stmts) {
        if (S == Slice.Sink)
          break; // statements after the sink cannot affect it
        if ((S->StmtKind == Stmt::Kind::Assign ||
             (S->StmtKind == Stmt::Kind::Call && !S->Target.empty())) &&
            Slice.Vars.count(S->Target))
          Slice.Lines.insert(S->Line);
      }
      if (G.block(B).Terminator && B != Slice.Block)
        Slice.Lines.insert(G.block(B).Terminator->Line);
    }
  }
  return Result;
}

PruneSummary dprle::miniphp::pruneSummary(const CfgSlices &Slices,
                                          const std::vector<char> &Live) {
  PruneSummary Result;
  std::vector<char> LiveBlocks(Slices.Preds.size(), 0);
  for (size_t I = 0; I != Slices.Slices.size(); ++I) {
    if (!Live[I])
      continue;
    const SinkSlice &Slice = Slices.Slices[I];
    Result.RelevantVars.insert(Slice.Vars.begin(), Slice.Vars.end());
    LiveBlocks[Slice.Block] = 1;
  }
  Result.ReachesLiveSink = Slices.blocksReaching(LiveBlocks);
  return Result;
}
