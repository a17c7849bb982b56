//===- Taint.cpp - Forward taint dataflow over mini-PHP CFGs --------------===//

#include "miniphp/Taint.h"
#include "miniphp/Policy.h"
#include "automata/Decide.h"
#include "automata/NfaOps.h"
#include "regex/RegexCompiler.h"
#include "regex/RegexParser.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <map>
#include <optional>
#include <unordered_map>

using namespace dprle;
using namespace dprle::miniphp;

const char *dprle::miniphp::taintLevelName(TaintLevel L) {
  switch (L) {
  case TaintLevel::Untainted:
    return "untainted";
  case TaintLevel::Tainted:
    return "tainted";
  case TaintLevel::Top:
    return "top";
  }
  return "top";
}

namespace {

/// Shared singleton machines: the common abstract languages are reused
/// by pointer so joins of untouched variables short-circuit.
std::shared_ptr<const Nfa> sharedEmptyLiteral() {
  static const std::shared_ptr<const Nfa> M =
      std::make_shared<const Nfa>(Nfa::literal(""));
  return M;
}

std::shared_ptr<const Nfa> sharedSigmaStar() {
  static const std::shared_ptr<const Nfa> M =
      std::make_shared<const Nfa>(Nfa::sigmaStar());
  return M;
}

std::shared_ptr<const Nfa> share(Nfa M) {
  return std::make_shared<const Nfa>(std::move(M));
}

} // namespace

TaintValue TaintValue::emptyString() {
  TaintValue V;
  V.Approx = sharedEmptyLiteral();
  return V;
}

TaintValue TaintValue::untrustedInput(const std::string &Key) {
  TaintValue V;
  V.Level = TaintLevel::Tainted;
  V.Approx = sharedSigmaStar();
  V.Sources.insert(Key);
  return V;
}

TaintValue TaintValue::top() {
  TaintValue V;
  V.Level = TaintLevel::Top;
  V.Approx = sharedSigmaStar();
  return V;
}

TaintStats &TaintStats::global() {
  static TaintStats Stats;
  return Stats;
}

unsigned TaintResult::numProvenSafe() const {
  unsigned N = 0;
  for (const SinkFact &F : Sinks)
    N += F.ProvenSafe;
  return N;
}

namespace {

/// Publishes the taint counters into the unified StatsRegistry at load
/// time; the dotted names are part of the stable schema of
/// docs/OBSERVABILITY.md.
struct RegisterTaintStats {
  RegisterTaintStats() {
    TaintStats &S = TaintStats::global();
    StatsRegistry &R = StatsRegistry::global();
    R.registerCounter("miniphp.taint.runs", &S.Runs);
    R.registerCounter("miniphp.taint.sinks_seen", &S.SinksSeen);
    R.registerCounter("miniphp.taint.sinks_proven_safe", &S.SinksProvenSafe);
    R.registerCounter("miniphp.taint.edges_refined", &S.EdgesRefined);
    R.registerCounter("miniphp.taint.sanitizers_applied",
                      &S.SanitizersApplied);
    R.registerCounter("miniphp.taint.approx_widened", &S.ApproxWidened);
    R.registerCounter("miniphp.taint.fixpoint_passes", &S.FixpointPasses);
    R.registerCounter("miniphp.taint.blocks_pruned", &S.BlocksPruned);
    R.registerCounter("miniphp.taint.assigns_skipped", &S.AssignsSkipped);
    R.registerCounter("miniphp.taint.sink_paths_pruned", &S.SinkPathsPruned);
  }
};

RegisterTaintStats RegisterTaintStatsInit;

/// The tracked variables (CfgSlices::ValueVars), densely numbered.
class TrackedVars {
public:
  explicit TrackedVars(const std::set<std::string> &Vars)
      : Names(Vars.begin(), Vars.end()) {}

  size_t size() const { return Names.size(); }

  /// The index of \p Var, or -1 when the sweep does not track it.
  int indexOf(const std::string &Var) const {
    auto It = std::lower_bound(Names.begin(), Names.end(), Var);
    return It != Names.end() && *It == Var ? int(It - Names.begin()) : -1;
  }

private:
  std::vector<std::string> Names; // sorted
};

/// Per-block abstract environment: tracked variable index -> abstract
/// value. A variable not yet assigned holds TaintValue::emptyString(),
/// the empty string PHP reads, exactly as in SymExec's concrete
/// semantics.
using Env = std::vector<TaintValue>;

/// Widens \p V's approximation to Sigma-star past the state cap, keeping
/// joins and concatenations bounded.
void capApprox(TaintValue &V, const TaintOptions &Opts) {
  if (V.Approx->numStates() <= Opts.ApproxStateCap)
    return;
  V.Approx = sharedSigmaStar();
  ++TaintStats::global().ApproxWidened;
}

/// The minimal machine for L(M), or Sigma-star (a widening) when the
/// determinization passes the state cap — the minimal machine then could
/// exceed it too, and the rest of the subset construction is not built.
std::shared_ptr<const Nfa> minimizedWithinCap(const Nfa &M,
                                              const TaintOptions &Opts) {
  std::optional<Dfa> D = determinizeWithin(M, Opts.ApproxStateCap);
  if (!D) {
    ++TaintStats::global().ApproxWidened;
    return sharedSigmaStar();
  }
  return share(D->minimized().toNfa());
}

/// Lattice join of \p From into \p Into: level max, language union,
/// source/line union. Identical values (a variable untouched by either
/// branch) are left as they are without building a union.
void joinInto(TaintValue &Into, const TaintValue &From,
              const TaintOptions &Opts) {
  if (Into.Approx == From.Approx && Into.Level == From.Level &&
      Into.Sources == From.Sources && Into.DefLines == From.DefLines)
    return;
  Into.Level = joinTaint(Into.Level, From.Level);
  if (Into.Approx != From.Approx)
    Into.Approx = share(alternate(*Into.Approx, *From.Approx));
  Into.Sources.insert(From.Sources.begin(), From.Sources.end());
  Into.DefLines.insert(From.DefLines.begin(), From.DefLines.end());
  capApprox(Into, Opts);
}

/// Joins \p From into \p Into pointwise (the first predecessor's
/// environment is taken as is).
void joinEnv(std::optional<Env> &Into, const Env &From,
             const TaintOptions &Opts) {
  if (!Into) {
    Into = From;
    return;
  }
  for (size_t I = 0; I != From.size(); ++I)
    joinInto((*Into)[I], From[I], Opts);
}

/// Abstract evaluation of a string expression: concatenation of the
/// atoms' abstract values. Runs of literal atoms collapse into a single
/// literal machine, and a lone variable/input atom reuses its shared
/// machine outright. An untracked variable reads as the empty string; the
/// slices guarantee no sink observes such a read.
TaintValue evalTaint(const StrExpr &E, const Env &Environment,
                     const TrackedVars &Tracked, const TaintOptions &Opts) {
  static const TaintValue Empty = TaintValue::emptyString();
  TaintValue Out;
  std::string Lit;                  // pending run of literal text
  auto flushLit = [&] {
    if (Lit.empty())
      return;
    Nfa L = Nfa::literal(Lit);
    Out.Approx = Out.Approx ? share(concat(*Out.Approx, L)) : share(std::move(L));
    Lit.clear();
  };
  for (const Atom &A : E) {
    if (A.AtomKind == Atom::Kind::Literal) {
      Lit += A.Text;
      continue;
    }
    TaintValue Input;
    const TaintValue *AtomVal = &Input;
    if (A.AtomKind == Atom::Kind::Input) {
      Input = TaintValue::untrustedInput(A.Source + ":" + A.Text);
    } else {
      int Var = Tracked.indexOf(A.Text);
      AtomVal = Var < 0 ? &Empty : &Environment[Var];
    }
    flushLit();
    Out.Approx = Out.Approx ? share(concat(*Out.Approx, *AtomVal->Approx))
                            : AtomVal->Approx;
    Out.Level = joinTaint(Out.Level, AtomVal->Level);
    Out.Sources.insert(AtomVal->Sources.begin(), AtomVal->Sources.end());
    Out.DefLines.insert(AtomVal->DefLines.begin(), AtomVal->DefLines.end());
    capApprox(Out, Opts);
  }
  flushLit();
  if (!Out.Approx)
    Out.Approx = sharedEmptyLiteral(); // empty expression: ""
  else
    capApprox(Out, Opts);
  return Out;
}

/// A tracked variable's value narrowed on one branch edge.
struct Refinement {
  unsigned Var;
  TaintValue Value;
};

/// Search languages of the preg_match patterns seen in one sweep; null
/// for an unparseable pattern.
using PatternCache = std::map<std::string, std::shared_ptr<const Nfa>>;

/// Sanitizer (partial) kills: the refinement of \p E for the branch edge
/// where \p Cond is known to have outcome \p Taken, if any. Only positive
/// information on single-variable operands is used — a taken preg_match
/// narrows the variable to the pattern's search language (stored
/// minimized), an equality against a literal pins it to that literal (a
/// full kill). Negative outcomes, Length/Substr checks and untracked
/// operands add no refinement, which is sound (the approximation merely
/// stays wider) and, for untracked operands, unobservable at any sink.
std::optional<Refinement> refineForEdge(const Env &E,
                                        const TrackedVars &Tracked,
                                        const Condition &Cond, bool Taken,
                                        unsigned Line, PatternCache &Patterns,
                                        const TaintOptions &Opts) {
  bool WantMatch = Taken != Cond.Negated;
  if (!WantMatch)
    return std::nullopt;
  if (Cond.Operand.size() != 1 ||
      Cond.Operand[0].AtomKind != Atom::Kind::Variable)
    return std::nullopt;
  int Var = Tracked.indexOf(Cond.Operand[0].Text);
  if (Var < 0)
    return std::nullopt;
  if (Cond.CondKind == Condition::Kind::EqualsLiteral) {
    Refinement R{unsigned(Var), TaintValue()};
    R.Value.Approx = share(Nfa::literal(Cond.Literal));
    R.Value.DefLines = E[Var].DefLines;
    R.Value.DefLines.insert(Line);
    ++TaintStats::global().EdgesRefined;
    return R;
  }
  if (Cond.CondKind == Condition::Kind::PregMatch) {
    auto [It, Inserted] = Patterns.try_emplace(Cond.Pattern);
    if (Inserted) {
      RegexParseResult Parsed = parseRegex(Cond.Pattern);
      if (Parsed.ok())
        It->second = share(searchLanguage(Parsed));
    }
    if (!It->second)
      return std::nullopt; // unparseable pattern: unconstraining, as in SymExec
    Refinement R{unsigned(Var), E[Var]};
    R.Value.Approx = minimizedWithinCap(
        intersect(*R.Value.Approx, *It->second).trimmed(), Opts);
    R.Value.DefLines.insert(Line);
    ++TaintStats::global().EdgesRefined;
    return R;
  }
  return std::nullopt;
}

/// Topological order of the blocks reachable from the entry (Kahn).
/// Returns an empty vector if a cycle prevents ordering — impossible for
/// Cfg::build output, which lowers structured control flow into a DAG.
std::vector<BlockId> topologicalOrder(const Cfg &G,
                                      const std::vector<char> &Reachable) {
  std::vector<unsigned> InDegree(G.numBlocks(), 0);
  unsigned NumReachable = 0;
  for (BlockId B = 0; B != G.numBlocks(); ++B) {
    if (!Reachable[B])
      continue;
    ++NumReachable;
    for (BlockId S : G.block(B).Succs)
      ++InDegree[S];
  }
  std::vector<BlockId> Order;
  Order.reserve(NumReachable);
  std::deque<BlockId> Ready{G.entry()};
  while (!Ready.empty()) {
    BlockId B = Ready.front();
    Ready.pop_front();
    Order.push_back(B);
    for (BlockId S : G.block(B).Succs)
      if (--InDegree[S] == 0)
        Ready.push_back(S);
  }
  if (Order.size() != NumReachable)
    return {};
  return Order;
}

} // namespace

TaintAudit dprle::miniphp::analyzeTaintAll(const Cfg &G,
                                           const std::vector<AttackSpec> &Specs,
                                           const TaintOptions &Opts) {
  DPRLE_TRACE_SPAN("taint_dataflow");
  TaintStats &Stats = TaintStats::global();
  ++Stats.Runs;

  // Step 1: the backward slices scope the sweep.
  TaintAudit Audit;
  Audit.Slices = sliceSinks(G, Specs);
  const CfgSlices &Slices = Audit.Slices;
  Audit.PerSpec.resize(Specs.size());
  std::vector<BlockId> Order;
  if (G.numBlocks() != 0) {
    Order = topologicalOrder(G, Slices.Reachable);
    // Cycle: no sound single-sweep order exists. Report failure; callers
    // fall back to un-pruned symbolic execution.
    if (Order.empty())
      return Audit;
  }

  // Step 2: the forward sweep in topological order over the blocks that
  // can reach a sink: every predecessor's out-edge environment is joined
  // into InEnv before the block itself is processed. A predecessor of
  // such a block reaches the sink too, so no environment a sink can
  // observe is skipped.
  // The environments are spec-independent, so one sweep serves every
  // spec; only the per-sink ProvenSafe check consults an attack language.
  TrackedVars Tracked(Slices.ValueVars);
  PatternCache Patterns;
  std::unordered_map<const Stmt *, size_t> SliceIndex;
  for (size_t I = 0; I != Slices.Slices.size(); ++I)
    SliceIndex.emplace(Slices.Slices[I].Sink, I);
  // Facts[spec][slice]: set once the sweep reaches the sink.
  std::vector<std::vector<std::optional<SinkFact>>> Facts(
      Specs.size(),
      std::vector<std::optional<SinkFact>>(Slices.Slices.size()));
  std::vector<std::optional<Env>> InEnv(G.numBlocks());
  if (G.numBlocks() != 0)
    InEnv[G.entry()] = Env(Tracked.size(), TaintValue::emptyString());
  ++Stats.FixpointPasses;
  for (BlockId B : Order) {
    if (!Slices.ReachesSink[B])
      continue;
    assert(InEnv[B] && "topological order visits predecessors first");
    Env Current = std::move(*InEnv[B]);
    InEnv[B].reset();
    const BasicBlock &Block = G.block(B);
    for (const Stmt *S : Block.Stmts) {
      switch (S->StmtKind) {
      case Stmt::Kind::Assign: {
        int Var = Tracked.indexOf(S->Target);
        if (Var < 0)
          break; // flows into no sink
        TaintValue V = evalTaint(S->Value, Current, Tracked, Opts);
        V.DefLines.insert(S->Line);
        Current[Var] = std::move(V);
        break;
      }
      case Stmt::Kind::Sink: {
        auto It = SliceIndex.find(S);
        if (It == SliceIndex.end())
          break; // no spec audits this callee
        TaintValue V = evalTaint(S->Arg, Current, Tracked, Opts);
        for (size_t I = 0; I != Specs.size(); ++I) {
          if (!Specs[I].appliesTo(S->Callee))
            continue;
          SinkFact Fact;
          Fact.Sink = S;
          Fact.Line = S->Line;
          Fact.Callee = S->Callee;
          Fact.Level = V.Level;
          Fact.Sources = V.Sources;
          Fact.ValueLines = V.DefLines;
          Fact.ValueLines.insert(S->Line);
          // Decision kernel: the lazy product BFS exits at the first
          // accepting pair, and shared Approx machines (sigma-star,
          // common literals) hit the decision cache across sinks,
          // specs, and files.
          Fact.ProvenSafe =
              emptyIntersection(*V.Approx, Specs[I].AttackLanguage);
          Facts[I][It->second] = std::move(Fact);
        }
        break;
      }
      case Stmt::Kind::Call: {
        // A registered sanitizer transformer ($x = addslashes($y))
        // confines its result to the model's output language; the taint
        // level and provenance still flow from the argument so reports
        // can say "tainted but language-safe". Other calls that assign
        // their (unknown) result lose all information about the target,
        // mirroring SymExec.
        if (S->Target.empty())
          break;
        int Var = Tracked.indexOf(S->Target);
        if (Var < 0)
          break; // flows into no sink
        const SanitizerModel *San =
            PolicyRegistry::global().sanitizerFor(S->Callee);
        if (!San) {
          Current[Var] = TaintValue::top();
          break;
        }
        TaintValue Arg = evalTaint(S->Arg, Current, Tracked, Opts);
        TaintValue V;
        V.Level = Arg.Level;
        V.Approx = San->Output;
        V.Sources = std::move(Arg.Sources);
        V.DefLines = std::move(Arg.DefLines);
        V.DefLines.insert(S->Line);
        Current[Var] = std::move(V);
        ++Stats.SanitizersApplied;
        break;
      }
      case Stmt::Kind::Exit:
      case Stmt::Kind::Return:
        break;
      case Stmt::Kind::If:
      case Stmt::Kind::While:
        assert(false && "If/While statements terminate blocks");
        break;
      }
    }
    if (Block.Terminator)
      assert(Block.Succs.size() == 2 && "if block must have two succs");
    for (unsigned Edge = 0; Edge != Block.Succs.size(); ++Edge) {
      BlockId Succ = Block.Succs[Edge];
      if (!Slices.ReachesSink[Succ])
        continue;
      std::optional<Refinement> R;
      if (Block.Terminator)
        R = refineForEdge(Current, Tracked, Block.Terminator->Cond,
                          /*Taken=*/Edge == 0, Block.Terminator->Line,
                          Patterns, Opts);
      if (!R) {
        joinEnv(InEnv[Succ], Current, Opts);
        continue;
      }
      // Join the refined environment without copying it: swap the one
      // refined value in and back out.
      std::swap(Current[R->Var], R->Value);
      joinEnv(InEnv[Succ], Current, Opts);
      std::swap(Current[R->Var], R->Value);
    }
  }

  // Emit facts in deterministic (block, statement) order; sinks in dead
  // blocks are trivially safe (no path from the entry reaches them).
  // Step 3: the prune summaries over each spec's live sinks, and over
  // the sinks live for any spec.
  std::vector<char> LiveForAny(Slices.Slices.size(), 0);
  for (size_t I = 0; I != Specs.size(); ++I) {
    TaintResult &Result = Audit.PerSpec[I];
    std::vector<char> Live(Slices.Slices.size(), 0);
    for (size_t K = 0; K != Slices.Slices.size(); ++K) {
      const SinkSlice &Slice = Slices.Slices[K];
      if (!Specs[I].appliesTo(Slice.Sink->Callee))
        continue;
      if (Facts[I][K]) {
        Live[K] = !Facts[I][K]->ProvenSafe;
        Result.Sinks.push_back(std::move(*Facts[I][K]));
        continue;
      }
      SinkFact Dead;
      Dead.Sink = Slice.Sink;
      Dead.Line = Slice.Line;
      Dead.Callee = Slice.Sink->Callee;
      Dead.Reachable = false;
      Dead.ProvenSafe = true;
      Result.Sinks.push_back(std::move(Dead));
    }
    Result.Prune = pruneSummary(Slices, Live);
    for (size_t K = 0; K != Live.size(); ++K)
      LiveForAny[K] |= Live[K];
    Stats.SinksSeen += Result.Sinks.size();
    Stats.SinksProvenSafe += Result.numProvenSafe();
  }
  Audit.Prune = pruneSummary(Slices, LiveForAny);
  Audit.Ok = true;
  return Audit;
}
