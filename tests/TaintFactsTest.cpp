//===- TaintFactsTest.cpp - Pinned taint facts over the corpora -----------===//
//
// Pins every SinkFact the taint pre-pass derives (level, sources, value
// lines, proven-safe, reachable) over the Figure 12 rows, the Figure 11
// corpus plus the audit showcase, and a fixed set of benign files, each
// under the paper's SQL attack spec and under every registered policy at
// once. The facts are folded into one 64-bit digest per corpus and spec
// set, recorded before the pre-pass was restructured: any change to the
// pass's scope, its transfer functions or its widening that moves a
// single fact shows up here.
//
//===----------------------------------------------------------------------===//

#include "miniphp/Analysis.h"
#include "miniphp/Corpus.h"
#include "miniphp/Inline.h"
#include "miniphp/Parser.h"
#include "miniphp/Policy.h"
#include "miniphp/Taint.h"
#include "miniphp/Unroll.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

using namespace dprle;
using namespace dprle::miniphp;

namespace {

/// FNV-1a over a canonical rendering of the facts.
struct Digest {
  uint64_t Hash = 1469598103934665603ull;
  unsigned Sinks = 0;
  unsigned ProvenSafe = 0;

  void add(const std::string &Text) {
    for (unsigned char C : Text) {
      Hash ^= C;
      Hash *= 1099511628211ull;
    }
    Hash ^= 0xff; // field separator
    Hash *= 1099511628211ull;
  }

  void add(const SinkFact &F) {
    ++Sinks;
    ProvenSafe += F.ProvenSafe;
    std::string Text = std::to_string(F.Line) + " " + F.Callee + " " +
                       taintLevelName(F.Level) + (F.ProvenSafe ? " S" : " L") +
                       (F.Reachable ? " R" : " D") + " src";
    for (const std::string &S : F.Sources)
      Text += " " + S;
    Text += " lines";
    for (unsigned L : F.ValueLines)
      Text += " " + std::to_string(L);
    add(Text);
  }
};

std::vector<AttackSpec> registrySpecs() {
  std::vector<AttackSpec> Specs;
  for (const Policy &P : PolicyRegistry::global().policies())
    Specs.push_back(P.Attack);
  return Specs;
}

/// The per-spec taint facts of \p Source, through the same front half
/// of the pipeline analyzeSource drives.
TaintAudit taintFacts(const std::string &Source,
                      const std::vector<AttackSpec> &Specs) {
  ParseResult Parsed = parseProgram(Source);
  EXPECT_TRUE(Parsed.Ok) << Parsed.Error;
  InlineResult Inlined = inlineFunctions(Parsed.Prog);
  EXPECT_TRUE(Inlined.Ok) << Inlined.Error;
  Program Prog = unrollLoops(Inlined.Prog, AnalysisOptions().LoopUnroll);
  Cfg G = Cfg::build(Prog);
  return analyzeTaintAll(G, Specs);
}

/// Folds the facts of every source under \p Specs into one digest; the
/// file index and the spec index are part of the rendering.
Digest digestOf(const std::vector<std::string> &Sources,
                const std::vector<AttackSpec> &Specs) {
  Digest D;
  for (size_t File = 0; File != Sources.size(); ++File) {
    TaintAudit Audit = taintFacts(Sources[File], Specs);
    EXPECT_TRUE(Audit.Ok);
    EXPECT_EQ(Audit.PerSpec.size(), Specs.size());
    for (size_t Spec = 0; Spec != Audit.PerSpec.size(); ++Spec) {
      D.add("file " + std::to_string(File) + " spec " + std::to_string(Spec));
      for (const SinkFact &F : Audit.PerSpec[Spec].Sinks)
        D.add(F);
    }
  }
  return D;
}

std::vector<std::string> figure12Sources() {
  std::vector<std::string> Sources;
  for (const VulnSpec &Spec : figure12Specs())
    Sources.push_back(generateVulnerableSource(Spec));
  return Sources;
}

std::vector<std::string> figure11Sources() {
  std::vector<std::string> Sources;
  std::vector<Suite> Suites = figure11Suites();
  Suites.push_back(auditShowcase());
  for (const Suite &S : Suites)
    for (const SuiteFile &F : S.Files)
      Sources.push_back(F.Source);
  return Sources;
}

std::vector<std::string> benignSources() {
  std::vector<std::string> Sources;
  for (unsigned Seed = 0; Seed != 300; ++Seed)
    Sources.push_back(generateBenignSource(Seed, 60 + 4 * (Seed % 50)));
  return Sources;
}

void expectDigest(const Digest &D, uint64_t Hash, unsigned Sinks,
                  unsigned ProvenSafe) {
  EXPECT_EQ(D.Sinks, Sinks);
  EXPECT_EQ(D.ProvenSafe, ProvenSafe);
  EXPECT_EQ(D.Hash, Hash) << "digest 0x" << std::hex << D.Hash;
}

} // namespace

TEST(TaintFactsTest, Figure12RowsSqlQuote) {
  expectDigest(digestOf(figure12Sources(), {AttackSpec::sqlQuote()}),
               0x6a93fdb12ee6b6c6ull, 17, 0);
}

TEST(TaintFactsTest, Figure12RowsAllPolicies) {
  expectDigest(digestOf(figure12Sources(), registrySpecs()),
               0x17fc29997dbadbd5ull, 17, 0);
}

TEST(TaintFactsTest, Figure11CorpusSqlQuote) {
  expectDigest(digestOf(figure11Sources(), {AttackSpec::sqlQuote()}),
               0xf88031dcd31332c7ull, 80, 61);
}

TEST(TaintFactsTest, Figure11CorpusAllPolicies) {
  expectDigest(digestOf(figure11Sources(), registrySpecs()),
               0x64813c1ed879e0efull, 93, 68);
}

TEST(TaintFactsTest, BenignFilesSqlQuote) {
  expectDigest(digestOf(benignSources(), {AttackSpec::sqlQuote()}),
               0x598a311eff5ef7cfull, 300, 300);
}

TEST(TaintFactsTest, BenignFilesAllPolicies) {
  expectDigest(digestOf(benignSources(), registrySpecs()),
               0x7a377408ad60b39full, 300, 300);
}
