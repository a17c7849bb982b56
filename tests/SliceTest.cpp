//===- SliceTest.cpp - Multi-policy backward slicing unit tests -----------===//
//
// Pins the per-policy backward slices on programs mixing several sink
// classes (SQL injection, XSS, command injection, path traversal): each
// policy's slice must keep exactly the variables feeding ITS sinks, the
// audit-wide unions must combine the per-policy summaries, and the
// shared slices must agree with what a standalone single-policy pass
// computes — the invariant that lets runSymExecAll prune one walk for
// all policies without changing any verdict (see docs/TAINT.md).
//
//===----------------------------------------------------------------------===//

#include "miniphp/Parser.h"
#include "miniphp/Policy.h"
#include "miniphp/Slice.h"
#include "miniphp/Taint.h"
#include "miniphp/Unroll.h"

#include <gtest/gtest.h>

using namespace dprle;
using namespace dprle::miniphp;

namespace {

/// The registry's attack specs, in registry order (sqli, xss, path, cmd).
std::vector<AttackSpec> registrySpecs() {
  std::vector<AttackSpec> Specs;
  for (const Policy &P : PolicyRegistry::global().policies())
    Specs.push_back(P.Attack);
  return Specs;
}

/// Parses, unrolls, builds the CFG, and runs the shared taint pre-pass
/// (slices, sweep, prune summaries) over every registered policy.
struct AuditSliceRun {
  Program Prog;
  Cfg G;
  TaintAudit Audit;

  explicit AuditSliceRun(const std::string &Source) {
    ParseResult R = parseProgram(Source);
    EXPECT_TRUE(R.Ok) << R.Error;
    Prog = unrollLoops(R.Prog, 3);
    G = Cfg::build(Prog);
    Audit = analyzeTaintAll(G, registrySpecs());
    EXPECT_TRUE(Audit.Ok);
  }

  /// Index of \p Id in the registry's policy order.
  static size_t policyIndex(const std::string &Id) {
    const auto &Policies = PolicyRegistry::global().policies();
    for (size_t I = 0; I != Policies.size(); ++I)
      if (Policies[I].Id == Id)
        return I;
    ADD_FAILURE() << "unknown policy " << Id;
    return 0;
  }

  const TaintResult &forPolicy(const std::string &Id) const {
    return Audit.PerSpec[policyIndex(Id)];
  }

  /// The slice of the \p N-th sink policy \p Id audits.
  const SinkSlice &sliceOf(const std::string &Id, size_t N) const {
    const SinkSlice *Slice =
        Audit.Slices.sliceFor(forPolicy(Id).Sinks.at(N).Sink);
    EXPECT_NE(Slice, nullptr);
    return *Slice;
  }
};

/// A straight-line program with one sink per class, each fed by its own
/// input, plus one variable feeding nothing.
const char *MultiClassSource = R"php(
$id = $_GET['id'];
$name = $_POST['name'];
$color = $_GET['color'];
$junk = $_GET['junk'];
$sql = "SELECT * FROM t WHERE id=" . $id;
query($sql);
echo "<b>" . $name . "</b>";
exec("paint " . $color);
)php";

} // namespace

TEST(SliceTest, EachPolicyKeepsExactlyItsVariables) {
  AuditSliceRun Run(MultiClassSource);

  const TaintResult &Sql = Run.forPolicy("sqli");
  ASSERT_EQ(Sql.Sinks.size(), 1u);
  EXPECT_EQ(Sql.Prune.RelevantVars, (std::set<std::string>{"id", "sql"}));

  const TaintResult &Xss = Run.forPolicy("xss");
  ASSERT_EQ(Xss.Sinks.size(), 1u);
  EXPECT_EQ(Xss.Prune.RelevantVars, (std::set<std::string>{"name"}));

  const TaintResult &Cmd = Run.forPolicy("cmd");
  ASSERT_EQ(Cmd.Sinks.size(), 1u);
  EXPECT_EQ(Cmd.Prune.RelevantVars, (std::set<std::string>{"color"}));

  // No path sinks anywhere: an empty slice, not an error.
  const TaintResult &Path = Run.forPolicy("path");
  EXPECT_TRUE(Run.Audit.Ok);
  EXPECT_TRUE(Path.Sinks.empty());
  EXPECT_TRUE(Path.Prune.RelevantVars.empty());

  // The sweep tracks the union of the sinks' value variables — never
  // $junk, which feeds no sink.
  EXPECT_EQ(Run.Audit.Slices.ValueVars,
            (std::set<std::string>{"id", "sql", "name", "color"}));
}

TEST(SliceTest, AuditUnionsCombinePoliciesAndDropDeadVariables) {
  AuditSliceRun Run(MultiClassSource);

  // The union keeps every variable some policy needs — and nothing else:
  // $junk feeds no sink of any class, so the shared walk may skip its
  // binding for all policies at once.
  EXPECT_EQ(Run.Audit.Prune.RelevantVars,
            (std::set<std::string>{"id", "sql", "name", "color"}));
  EXPECT_EQ(Run.Audit.Prune.RelevantVars.count("junk"), 0u);

  // Straight-line code with live sinks: every block reaches one.
  ASSERT_EQ(Run.Audit.Prune.ReachesLiveSink.size(), Run.G.numBlocks());
  for (unsigned B = 0; B != Run.G.numBlocks(); ++B)
    EXPECT_TRUE(Run.Audit.Prune.ReachesLiveSink[B]) << "block " << B;
}

TEST(SliceTest, SharedSlicesMatchStandaloneSinglePolicyRuns) {
  // The shared pass tracks the value variables of every policy's sinks,
  // a standalone pass only its own: the facts and summaries must agree.
  AuditSliceRun Run(MultiClassSource);
  std::vector<AttackSpec> Specs = registrySpecs();
  for (size_t I = 0; I != Specs.size(); ++I) {
    TaintAudit Single = analyzeTaintAll(Run.G, {Specs[I]});
    ASSERT_TRUE(Single.Ok);
    const TaintResult &Expected = Single.PerSpec.front();
    const TaintResult &Shared = Run.Audit.PerSpec[I];
    ASSERT_EQ(Shared.Sinks.size(), Expected.Sinks.size());
    ASSERT_EQ(Single.Slices.Slices.size(), Expected.Sinks.size());
    for (size_t S = 0; S != Expected.Sinks.size(); ++S) {
      const SinkFact &E = Expected.Sinks[S], &F = Shared.Sinks[S];
      EXPECT_EQ(F.Sink, E.Sink);
      EXPECT_EQ(F.Level, E.Level);
      EXPECT_EQ(F.Sources, E.Sources);
      EXPECT_EQ(F.ValueLines, E.ValueLines);
      EXPECT_EQ(F.ProvenSafe, E.ProvenSafe);
      EXPECT_EQ(F.Reachable, E.Reachable);
      const SinkSlice &Want = Single.Slices.Slices[S];
      const SinkSlice *Got = Run.Audit.Slices.sliceFor(F.Sink);
      ASSERT_NE(Got, nullptr);
      EXPECT_EQ(Got->Line, Want.Line);
      EXPECT_EQ(Got->Lines, Want.Lines);
      EXPECT_EQ(Got->Vars, Want.Vars);
    }
    EXPECT_EQ(Shared.Prune.RelevantVars, Expected.Prune.RelevantVars);
    EXPECT_EQ(Shared.Prune.ReachesLiveSink, Expected.Prune.ReachesLiveSink);
  }
}

TEST(SliceTest, GuardedSinkKeepsFilterAndGuardVariable) {
  // The filter guards only the command sink; the XSS sink sits before
  // the branch, so its slice must not absorb the guard variable.
  AuditSliceRun Run(R"php(
$name = $_POST['name'];
echo "<b>" . $name . "</b>";
$color = $_GET['color'];
if (!preg_match('/[a-z]+$/', $color)) { unp_msgBox('bad'); exit; }
exec("paint " . $color);
)php");

  const TaintResult &Cmd = Run.forPolicy("cmd");
  ASSERT_EQ(Cmd.Sinks.size(), 1u);
  EXPECT_TRUE(Cmd.Prune.RelevantVars.count("color"));
  // The unanchored filter does not prove the sink safe, so its lines —
  // definition, filter, sink — are all in the slice.
  const SinkSlice &CmdSlice = Run.sliceOf("cmd", 0);
  EXPECT_TRUE(CmdSlice.Lines.count(4)); // $color = ...
  EXPECT_TRUE(CmdSlice.Lines.count(5)); // the preg_match guard
  EXPECT_TRUE(CmdSlice.Lines.count(6)); // the sink

  // The echo sink shares a block with the branch terminator, and the
  // slicer conservatively keeps the condition variables of every block
  // on a path to the sink — including the sink's own block — so the
  // guard variable rides along (sound: pruning keeps more, never less).
  // Its value never flows into the echo, so the taint sweep need not
  // track it for that sink.
  const TaintResult &Xss = Run.forPolicy("xss");
  ASSERT_EQ(Xss.Sinks.size(), 1u);
  EXPECT_EQ(Xss.Prune.RelevantVars, (std::set<std::string>{"color", "name"}));
  EXPECT_EQ(Run.sliceOf("xss", 0).ValueVars, (std::set<std::string>{"name"}));
}

TEST(SliceTest, SanitizedSinksLeaveNoLiveResidue) {
  // Every sink either sanitized or behind an anchored whitelist: nothing
  // is live, so the audit-wide prune summaries are empty and the shared
  // walk can skip everything.
  AuditSliceRun Run(R"php(
$name = $_POST['name'];
$safe = addslashes($name);
query("SELECT * FROM t WHERE name=" . $safe);
$dir = $_GET['dir'];
if (!preg_match('/^[a-z]+$/', $dir)) { unp_msgBox('bad'); exit; }
include("pages/" . $dir);
)php");

  for (const char *Id : {"sqli", "path"}) {
    const TaintResult &S = Run.forPolicy(Id);
    ASSERT_EQ(S.Sinks.size(), 1u) << Id;
    EXPECT_TRUE(S.Prune.RelevantVars.empty()) << Id;
  }
  EXPECT_TRUE(Run.Audit.Prune.RelevantVars.empty());
  for (unsigned B = 0; B != Run.G.numBlocks(); ++B)
    EXPECT_FALSE(Run.Audit.Prune.ReachesLiveSink[B]) << "block " << B;

  // The sanitizer call still counts as a defining statement in the
  // human-facing slice of its sink (data provenance), even though the
  // model output is input-independent.
  const SinkSlice &SqlSlice = Run.sliceOf("sqli", 0);
  EXPECT_TRUE(SqlSlice.Vars.count("safe"));
  EXPECT_TRUE(SqlSlice.Vars.count("name"));
}
