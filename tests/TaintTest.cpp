//===- TaintTest.cpp - Taint dataflow and slicing unit tests --------------===//
//
// Pins the taint lattice (join, sanitizer kills, loop fixpoint under
// unrolling), the proven-safe criterion, the backward slices, and the
// soundness of taint-driven pruning in the symbolic executor.
//
//===----------------------------------------------------------------------===//

#include "miniphp/Taint.h"
#include "automata/NfaOps.h"
#include "miniphp/Parser.h"
#include "miniphp/Slice.h"
#include "miniphp/SymExec.h"
#include "miniphp/Unroll.h"
#include "regex/RegexCompiler.h"
#include "regex/RegexParser.h"

#include <gtest/gtest.h>

using namespace dprle;
using namespace dprle::miniphp;

namespace {

/// Parses, unrolls, builds the CFG, and runs the taint pass — the same
/// front half of the pipeline Analysis.cpp drives.
struct TaintRun {
  Program Prog;
  Cfg G;
  TaintAudit Audit;
  TaintResult T;

  explicit TaintRun(const std::string &Source, unsigned Unroll = 3) {
    ParseResult R = parseProgram(Source);
    EXPECT_TRUE(R.Ok) << R.Error;
    Prog = unrollLoops(R.Prog, Unroll);
    G = Cfg::build(Prog);
    Audit = analyzeTaintAll(G, {AttackSpec::sqlQuote()});
    EXPECT_TRUE(Audit.Ok);
    T = Audit.PerSpec.front();
  }
};

} // namespace

TEST(TaintTest, JoinIsLeastUpperBound) {
  using L = TaintLevel;
  for (L A : {L::Untainted, L::Tainted, L::Top}) {
    EXPECT_EQ(joinTaint(A, A), A);               // idempotent
    EXPECT_EQ(joinTaint(L::Untainted, A), A);    // bottom is identity
    EXPECT_EQ(joinTaint(A, L::Top), L::Top);     // top absorbs
    for (L B : {L::Untainted, L::Tainted, L::Top})
      EXPECT_EQ(joinTaint(A, B), joinTaint(B, A)); // commutative
  }
  EXPECT_EQ(joinTaint(TaintLevel::Untainted, TaintLevel::Tainted),
            TaintLevel::Tainted);
}

TEST(TaintTest, TaintedSourceReachesSink) {
  TaintRun Run("$x = $_POST['k'];\nquery(\"id=\" . $x);\n");
  ASSERT_EQ(Run.T.Sinks.size(), 1u);
  const SinkFact &F = Run.T.Sinks.front();
  EXPECT_EQ(F.Level, TaintLevel::Tainted);
  EXPECT_FALSE(F.ProvenSafe);
  EXPECT_TRUE(F.Reachable);
  EXPECT_EQ(F.Sources, std::set<std::string>{"_POST:k"});
  EXPECT_TRUE(F.ValueLines.count(1));
  EXPECT_TRUE(F.ValueLines.count(2));
}

TEST(TaintTest, UntaintedIsNotEnoughToProveSafety) {
  // The sink is fully constant — Untainted — yet still carries a quote,
  // so the baseline pipeline reports it vulnerable. ProvenSafe must come
  // from the language over-approximation, never from the level alone.
  TaintRun Run("query(\"it's a constant\");\n");
  ASSERT_EQ(Run.T.Sinks.size(), 1u);
  EXPECT_EQ(Run.T.Sinks.front().Level, TaintLevel::Untainted);
  EXPECT_FALSE(Run.T.Sinks.front().ProvenSafe);

  TaintRun Clean("query(\"no quote here\");\n");
  ASSERT_EQ(Clean.T.Sinks.size(), 1u);
  EXPECT_TRUE(Clean.T.Sinks.front().ProvenSafe);
}

TEST(TaintTest, AnchoredPregMatchIsAPartialKill) {
  // The taken branch narrows $x to digits: no quote can flow through.
  // The value stays Tainted (it is still attacker-chosen) — only the
  // language shrinks.
  TaintRun Run("$x = $_POST['k'];\n"
               "if (!preg_match('/^[0-9]+$/', $x)) { exit; }\n"
               "query(\"id=\" . $x);\n");
  ASSERT_EQ(Run.T.Sinks.size(), 1u);
  EXPECT_EQ(Run.T.Sinks.front().Level, TaintLevel::Tainted);
  EXPECT_TRUE(Run.T.Sinks.front().ProvenSafe);
}

TEST(TaintTest, UnanchoredPregMatchDoesNotProveSafety) {
  // Figure 1's faulty filter: [\d]+$ leaves room for a quote before the
  // digits, so the sink must stay live.
  TaintRun Run("$x = $_POST['k'];\n"
               "if (!preg_match('/[0-9]+$/', $x)) { exit; }\n"
               "query(\"id=\" . $x);\n");
  ASSERT_EQ(Run.T.Sinks.size(), 1u);
  EXPECT_FALSE(Run.T.Sinks.front().ProvenSafe);
}

TEST(TaintTest, EqualityGuardIsAFullKill) {
  // Inside the then-branch $x is exactly 'safe': Untainted, no quote.
  TaintRun Run("$x = $_GET['q'];\n"
               "if ($x == 'safe') { query(\"k=\" . $x); }\n");
  ASSERT_EQ(Run.T.Sinks.size(), 1u);
  EXPECT_EQ(Run.T.Sinks.front().Level, TaintLevel::Untainted);
  EXPECT_TRUE(Run.T.Sinks.front().ProvenSafe);
}

TEST(TaintTest, NegatedOutcomeGetsNoRefinement) {
  // On the else edge of `== 'safe'` the value is anything BUT 'safe' —
  // refining to the literal would be unsound, so no kill applies.
  TaintRun Run("$x = $_GET['q'];\n"
               "if ($x == 'safe') { exit; }\n"
               "query(\"k=\" . $x);\n");
  ASSERT_EQ(Run.T.Sinks.size(), 1u);
  EXPECT_EQ(Run.T.Sinks.front().Level, TaintLevel::Tainted);
  EXPECT_FALSE(Run.T.Sinks.front().ProvenSafe);
}

TEST(TaintTest, JoinMergesBranchValues) {
  // Both branches bind constants without quotes: the join stays safe.
  TaintRun Safe("$q = $_GET['c'];\n"
                "if (preg_match('/x/', $q)) { $y = 'a'; } "
                "else { $y = 'b'; }\n"
                "query($y);\n");
  ASSERT_EQ(Safe.T.Sinks.size(), 1u);
  EXPECT_TRUE(Safe.T.Sinks.front().ProvenSafe);

  // One branch leaks the input: the join is tainted and live.
  TaintRun Leaky("$q = $_GET['c'];\n"
                 "if (preg_match('/x/', $q)) { $y = 'a'; } "
                 "else { $y = $q; }\n"
                 "query($y);\n");
  ASSERT_EQ(Leaky.T.Sinks.size(), 1u);
  EXPECT_EQ(Leaky.T.Sinks.front().Level, TaintLevel::Tainted);
  EXPECT_FALSE(Leaky.T.Sinks.front().ProvenSafe);
}

TEST(TaintTest, OpaqueCallResultIsTop) {
  TaintRun Run("$x = mystery();\nquery($x);\n");
  ASSERT_EQ(Run.T.Sinks.size(), 1u);
  EXPECT_EQ(Run.T.Sinks.front().Level, TaintLevel::Top);
  EXPECT_FALSE(Run.T.Sinks.front().ProvenSafe);
}

TEST(TaintTest, LoopFixpointUnderUnroll) {
  // The unrolled loop keeps appending untrusted input; every unrolled
  // copy must agree the sink is live.
  TaintRun Leaky("$s = 'x';\n"
                 "while (preg_match('/y/', $_GET['c'])) "
                 "{ $s = $s . $_GET['q']; }\n"
                 "query($s);\n");
  ASSERT_EQ(Leaky.T.Sinks.size(), 1u);
  EXPECT_EQ(Leaky.T.Sinks.front().Level, TaintLevel::Tainted);
  EXPECT_FALSE(Leaky.T.Sinks.front().ProvenSafe);
  EXPECT_EQ(Leaky.T.Sinks.front().Sources.count("_GET:q"), 1u);

  // A loop that only appends quote-free constants converges to a safe
  // over-approximation across all unrolled iterations.
  TaintRun Benign("$s = 'x';\n"
                  "while (preg_match('/y/', $_GET['c'])) "
                  "{ $s = $s . 'a'; }\n"
                  "query($s);\n");
  ASSERT_EQ(Benign.T.Sinks.size(), 1u);
  EXPECT_TRUE(Benign.T.Sinks.front().ProvenSafe);
}

TEST(TaintTest, DeadCodeSinkIsUnreachable) {
  // Both branches exit, so the join block holding the sink has no
  // predecessors (Cfg keeps such dead blocks for the |FG| statistic).
  TaintRun Run("$x = $_GET['q'];\n"
               "if (preg_match('/a/', $x)) { exit; } else { exit; }\n"
               "query($x);\n");
  ASSERT_EQ(Run.T.Sinks.size(), 1u);
  EXPECT_FALSE(Run.T.Sinks.front().Reachable);
  EXPECT_TRUE(Run.T.Sinks.front().ProvenSafe);
}

TEST(TaintTest, SliceTracksDefsAndGuards) {
  TaintRun Run("$a = $_GET['u'];\n"
               "$junk = 'unrelated';\n"
               "if (preg_match('/x/', $a)) { $b = $a . '!'; } "
               "else { $b = 'c'; }\n"
               "query($b);\n");
  ASSERT_EQ(Run.Audit.Slices.Slices.size(), 1u);
  const SinkSlice &Slice = Run.Audit.Slices.Slices.front();
  // $b's definitions, $a's definition, the guard, and the sink — but
  // not the unrelated line 2.
  EXPECT_EQ(Slice.Lines, (std::set<unsigned>{1, 3, 4}));
  EXPECT_EQ(Slice.Vars, (std::set<std::string>{"a", "b"}));
  EXPECT_TRUE(Run.T.Prune.RelevantVars.count("a"));
  EXPECT_FALSE(Run.T.Prune.RelevantVars.count("junk"));
}

TEST(TaintTest, NoLiveSinkMeansNothingIsRelevant) {
  TaintRun Run("$x = $_POST['k'];\n"
               "if (!preg_match('/^[0-9]+$/', $x)) { exit; }\n"
               "query(\"id=\" . $x);\n");
  const PruneSummary &S = Run.T.Prune;
  EXPECT_TRUE(S.RelevantVars.empty());
  ASSERT_EQ(S.ReachesLiveSink.size(), Run.G.numBlocks());
  for (BlockId B = 0; B != Run.G.numBlocks(); ++B)
    EXPECT_FALSE(S.ReachesLiveSink[B]);
}

TEST(TaintTest, PruningDropsProvenSafeSinkPaths) {
  // The then-sink is digits-only (safe); the else-sink is live. The
  // pruned run must skip the safe path but reach the same verdict set.
  const std::string Source =
      "$x = $_GET['q'];\n"
      "if (preg_match('/^[0-9]+$/', $x)) { query($x); } "
      "else { query($x); }\n";
  ParseResult R = parseProgram(Source);
  ASSERT_TRUE(R.Ok) << R.Error;
  Cfg G = Cfg::build(R.Prog);

  SymExecOptions Raw;
  SymExecResult Baseline =
      runSymExec(R.Prog, G, AttackSpec::sqlQuote(), Raw);
  EXPECT_FALSE(Baseline.TaintUsed);
  EXPECT_EQ(Baseline.Paths.size(), 2u);
  EXPECT_EQ(Baseline.SinksFound, 2u);

  SymExecOptions Pruning;
  Pruning.TaintPrune = true;
  SymExecResult Pruned =
      runSymExec(R.Prog, G, AttackSpec::sqlQuote(), Pruning);
  EXPECT_TRUE(Pruned.TaintUsed);
  EXPECT_EQ(Pruned.SinksProvenSafe, 1u);
  ASSERT_EQ(Pruned.Paths.size(), 1u);
  // The surviving path is the live else-sink, same line the baseline's
  // second path reports.
  EXPECT_EQ(Pruned.Paths.front().SinkLine,
            Baseline.Paths.back().SinkLine);
}

namespace {

/// Counter deltas of one taint pass.
struct TaintCounters {
  uint64_t EdgesRefined, ApproxWidened;

  static TaintCounters now() {
    const TaintStats &S = TaintStats::global();
    return {S.EdgesRefined.get(), S.ApproxWidened.get()};
  }
  TaintCounters operator-(const TaintCounters &Before) const {
    return {EdgesRefined - Before.EdgesRefined,
            ApproxWidened - Before.ApproxWidened};
  }
};

} // namespace

TEST(TaintTest, RefinementsOutsideTheSliceCostNothing) {
  // $z guards the sink but its value never flows into it, and $w is
  // checked only after the sink, on edges that reach no sink: the sweep
  // tracks neither, so the one refinement it pays for is $x's filter.
  TaintCounters Before = TaintCounters::now();
  TaintRun Run("$x = $_GET['a'];\n"
               "$z = $_GET['z'];\n"
               "if (!preg_match('/^[a-z]+$/', $z)) { exit; }\n"
               "if (!preg_match('/^[0-9]+$/', $x)) { exit; }\n"
               "query(\"id=\" . $x);\n"
               "$w = $_GET['w'];\n"
               "if (preg_match('/^[a-z]+$/', $w)) { $v = $w; }\n");
  TaintCounters Delta = TaintCounters::now() - Before;
  EXPECT_EQ(Delta.EdgesRefined, 1u);
  EXPECT_EQ(Delta.ApproxWidened, 0u);
  EXPECT_EQ(Run.Audit.Slices.ValueVars, std::set<std::string>{"x"});
  ASSERT_EQ(Run.T.Sinks.size(), 1u);
  EXPECT_TRUE(Run.T.Sinks.front().ProvenSafe);
  // The guard variable still belongs to the sink's slice, for symbolic
  // execution's path feasibility.
  EXPECT_TRUE(Run.Audit.Slices.Slices.front().Vars.count("z"));
}

TEST(TaintTest, RefinementChainsStayMinimal) {
  // Twelve anchored digit filters on one input: each refinement is
  // stored minimized, so the chain never grows toward the state cap and
  // nothing is widened.
  std::string Source = "$x = $_GET['id'];\n";
  for (unsigned I = 0; I != 12; ++I)
    Source += I % 2 ? "if (!preg_match('/^[0-9]+$/', $x)) { exit; }\n"
                    : "if (!preg_match('/^[0-9][0-9]*$/', $x)) { exit; }\n";
  Source += "query(\"id=\" . $x);\n";
  TaintCounters Before = TaintCounters::now();
  TaintRun Run(Source);
  TaintCounters Delta = TaintCounters::now() - Before;
  EXPECT_EQ(Delta.EdgesRefined, 12u);
  EXPECT_EQ(Delta.ApproxWidened, 0u);
  ASSERT_EQ(Run.T.Sinks.size(), 1u);
  EXPECT_TRUE(Run.T.Sinks.front().ProvenSafe);
  EXPECT_EQ(Run.T.Sinks.front().ValueLines.size(), 14u); // def, 12 filters, sink
}

TEST(TaintTest, RefinementPastTheCapIsWidenedNotBuilt) {
  // The search language of an a followed by eight a-or-b letters at the
  // end needs a DFA of more than 2^8 states: far past the 128-state cap.
  // The refinement is widened to Sigma-star instead of determinized in
  // full, which is sound — the sink merely stays live.
  const std::string Pattern = "a[ab][ab][ab][ab][ab][ab][ab][ab]$";
  RegexParseResult R = parseRegex(Pattern);
  ASSERT_TRUE(R.ok());
  Nfa Search = searchLanguage(R);
  EXPECT_FALSE(determinizeWithin(Search, TaintOptions().ApproxStateCap));
  EXPECT_GT(determinize(Search).numStates(), TaintOptions().ApproxStateCap);

  TaintCounters Before = TaintCounters::now();
  TaintRun Run("$x = $_GET['q'];\n"
               "if (preg_match('/" + Pattern + "/', $x)) { query($x); }\n");
  TaintCounters Delta = TaintCounters::now() - Before;
  EXPECT_EQ(Delta.EdgesRefined, 1u);
  EXPECT_EQ(Delta.ApproxWidened, 1u);
  ASSERT_EQ(Run.T.Sinks.size(), 1u);
  EXPECT_FALSE(Run.T.Sinks.front().ProvenSafe);
  EXPECT_EQ(Run.T.Sinks.front().ValueLines, (std::set<unsigned>{1, 2}));
}
