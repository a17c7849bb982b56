//===- Inputs.cpp - Seeded workload inputs --------------------------------===//

#include "Inputs.h"

#include "miniphp/Cfg.h"
#include "miniphp/Corpus.h"
#include "miniphp/Inline.h"
#include "miniphp/Parser.h"
#include "miniphp/SymExec.h"
#include "miniphp/Unroll.h"
#include "automata/Serialize.h"
#include "regex/RegexCompiler.h"
#include "solver/ConstraintParser.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <regex>

using namespace pb;
using namespace dprle;
using namespace dprle::miniphp;

uint64_t Rng::next() {
  uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

unsigned pb::reseed(unsigned DefaultSeed, uint64_t RunSeed) {
  if (RunSeed == 0)
    return DefaultSeed;
  Rng R(RunSeed * 0x100000001B3ull ^ DefaultSeed);
  unsigned S = unsigned(R.next());
  // The corpus generator's xorshift state is S * 2654435761 + 1; a zero
  // state would stay zero and emit one word forever.
  while (S * 2654435761u + 1u == 0)
    ++S;
  return S;
}

namespace {

template <typename T> void shuffle(std::vector<T> &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(I)]);
}

} // namespace

std::vector<Fig12Row> pb::fig12Rows(uint64_t Seed) {
  std::vector<Fig12Row> Rows;
  auto Add = [&](VulnSpec Spec) {
    Spec.Seed = reseed(Spec.Seed, Seed);
    Fig12Row Row;
    Row.Label = Spec.Suite + "/" + Spec.Name;
    Row.Blocks = Spec.TargetBlocks;
    Row.Constraints = Spec.TargetConstraints;
    Row.Source = generateVulnerableSource(Spec);
    Rows.push_back(std::move(Row));
  };
  // The pathological `secure` row is left out: in full it takes about
  // 100 s, and scaled down to the smallest sizes its generator allows
  // (|C| = 64..67, 0.5-1.6 s each) its times spread too widely between
  // runs for a gate (see README.md).
  for (const VulnSpec &Spec : figure12Specs())
    if (!Spec.Pathological)
      Add(Spec);
  return Rows;
}

namespace {

/// Problem::str() names inputs after their PHP source ("_POST:id"); the
/// constraint parser takes identifiers only, so ':' outside the /regex/
/// literals becomes '_'.
std::string parseableText(std::string Text) {
  bool InRegex = false;
  for (size_t I = 0; I != Text.size(); ++I) {
    char C = Text[I];
    if (InRegex && C == '\\') {
      ++I;
      continue;
    }
    if (C == '/')
      InRegex = !InRegex;
    else if (!InRegex && C == ':')
      Text[I] = '_';
  }
  return Text;
}

} // namespace

std::vector<std::string> pb::sinkPathSystems(const std::string &Source,
                                             size_t MaxPaths) {
  std::vector<std::string> Out;
  ParseResult Parsed = parseProgram(Source);
  if (!Parsed.Ok)
    return Out;
  InlineResult Inlined = inlineFunctions(Parsed.Prog);
  if (!Inlined.Ok)
    return Out;
  Program Prog = unrollLoops(Inlined.Prog, 3);
  Cfg G = Cfg::build(Prog);
  SymExecOptions Opts;
  Opts.MaxPaths = MaxPaths;
  for (const PathCondition &PC :
       enumerateSinkPaths(Prog, G, AttackSpec::sqlQuote(), Opts))
    Out.push_back(parseableText(PC.Instance.str()));
  return Out;
}

namespace {

/// Right-hand sides of the edit deltas: the filter shapes the corpus
/// itself uses (anchored and unanchored digit/word checks, a quote scan).
const char *const DeltaPatterns[] = {
    "[0-9]+",   "[0-9]*$",      "^[a-z0-9_]+$", "[a-z]",
    "'",        "^[^']*$",      "[0-9]{1,4}$",  ".*=.*",
    "[a-zA-Z]", "^[0-9a-f]+$",
};
constexpr size_t NumDeltaPatterns =
    sizeof(DeltaPatterns) / sizeof(DeltaPatterns[0]);

/// Variables of a system a delta may constrain (identifier names only).
std::vector<std::string> deltaTargets(const std::string &System) {
  std::vector<std::string> Names;
  ConstraintParseResult P = parseConstraintText(System);
  if (!P.Ok)
    return Names;
  static const std::regex Ident("[A-Za-z_][A-Za-z0-9_]*");
  for (unsigned V = 0; V != P.Instance.numVariables(); ++V)
    if (std::regex_match(P.Instance.variableName(V), Ident))
      Names.push_back(P.Instance.variableName(V));
  return Names;
}

} // namespace

SessionPlan pb::sessionPlan(uint64_t Seed, unsigned EditsPerBase) {
  SessionPlan Plan;
  Rng R(Seed ^ 0x5E551011ull);
  // Bases: the first sink path of every ordinary Figure 12 row (xw_mn
  // is |C|=387), and one path from each of three Figure 11 benign pages.
  for (VulnSpec Spec : figure12Specs()) {
    if (Spec.Pathological)
      continue;
    Spec.Seed = reseed(Spec.Seed, Seed);
    std::vector<std::string> Paths =
        sinkPathSystems(generateVulnerableSource(Spec), 1);
    if (Paths.empty())
      continue;
    Plan.BaseLabels.push_back(Spec.Suite + "/" + Spec.Name);
    Plan.Bases.push_back(std::move(Paths[0]));
  }
  for (unsigned I = 0; I != 3; ++I) {
    std::vector<std::string> Paths = sinkPathSystems(
        generateBenignSource(reseed(1000 + I, Seed), 40 + 20 * I), 1);
    if (Paths.empty())
      continue;
    Plan.BaseLabels.push_back("page" + std::to_string(I));
    Plan.Bases.push_back(std::move(Paths[0]));
  }

  // The deltas of a base are fixed: each of its first five identifier
  // variables (round robin) under a rotating filter pattern, and one fresh
  // variable. The seed draws the trajectory: the order of the sessions and
  // of the edits, each delta appearing equally often. Which delta hits
  // which group decides how much a check re-solves, so drawing the deltas
  // themselves would change the work from seed to seed.
  constexpr unsigned DeltasPerBase = 6;
  for (size_t B = 0; B != Plan.Bases.size(); ++B) {
    std::vector<std::string> Targets = deltaTargets(Plan.Bases[B]);
    std::vector<std::string> Deltas;
    for (unsigned D = 0; D != DeltasPerBase; ++D) {
      std::string Pattern = DeltaPatterns[(B + D) % NumDeltaPatterns];
      if (Targets.empty() || D + 1 == DeltasPerBase)
        Deltas.push_back("var pb_edit" + std::to_string(D) + "; pb_edit" +
                         std::to_string(D) + " <= /" + Pattern + "/;\n");
      else
        Deltas.push_back(Targets[D % Targets.size()] + " <= /" + Pattern +
                         "/;\n");
    }
    std::vector<uint32_t> Edits(EditsPerBase);
    for (unsigned E = 0; E != EditsPerBase; ++E)
      Edits[E] = E % DeltasPerBase;
    shuffle(Edits, R);
    Plan.Deltas.push_back(std::move(Deltas));
    Plan.Edits.push_back(std::move(Edits));
    Plan.Order.push_back(uint32_t(B));
  }
  shuffle(Plan.Order, R);
  return Plan;
}

namespace {

std::string escapeJson(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 16);
  for (char C : S) {
    switch (C) {
    case '"': Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\n': Out += "\\n"; break;
    case '\t': Out += "\\t"; break;
    case '\r': Out += "\\r"; break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

} // namespace

ServePlan pb::servePlan(uint64_t Seed, size_t StreamLength) {
  ServePlan Plan;
  Rng R(Seed ^ 0x5E27Eull);
  // Solve requests: sink paths of the Figure 11 pages and of the ordinary
  // vulnerable rows with at most 40 constraints (the service answers
  // these in well under a millisecond; the `secure` and |C| > 40 rows are
  // audit work, not request traffic).
  std::vector<std::string> Systems;
  for (VulnSpec Spec : figure12Specs()) {
    if (Spec.Pathological || Spec.TargetConstraints > 40)
      continue;
    Spec.Seed = reseed(Spec.Seed, Seed);
    for (std::string &S : sinkPathSystems(generateVulnerableSource(Spec), 4))
      Systems.push_back(std::move(S));
  }
  for (std::string &S :
       sinkPathSystems(generateBenignSource(reseed(1000, Seed), 40), 4))
    Systems.push_back(std::move(S));
  std::sort(Systems.begin(), Systems.end());
  Systems.erase(std::unique(Systems.begin(), Systems.end()), Systems.end());
  for (const std::string &S : Systems) {
    Plan.Bodies.push_back(
        "\"method\":\"solve\",\"params\":{\"constraints\":\"" +
        escapeJson(S) + "\",\"max_solutions\":1}}");
    Plan.Constraints.push_back(S);
  }
  // Decide requests: subset and empty-intersection queries between the
  // languages of the filter patterns the edits use (preg_match search
  // semantics), serialized as the protocol carries machines.
  std::vector<std::string> Machines;
  for (const char *Pattern : DeltaPatterns) {
    std::string Text = serializeNfa(searchLanguage(Pattern));
    if (parseNfa(Text).ok())
      Machines.push_back(escapeJson(Text));
  }
  for (const char *Query : {"subset", "empty-intersection"})
    for (size_t I = 0; I != Machines.size(); ++I)
      for (size_t J = 0; J != Machines.size(); ++J) {
        if (I == J)
          continue;
        Plan.Bodies.push_back(
            std::string("\"method\":\"decide\",\"params\":{\"query\":\"") +
            Query + "\",\"lhs\":\"" + Machines[I] + "\",\"rhs\":\"" +
            Machines[J] + "\"}}");
        Plan.Constraints.emplace_back();
      }
  // Three requests in four are solves. Within each kind, a Zipf-like
  // popularity over a fixed ranking: a few hot requests repeat (warm shard
  // caches), the tail is seen rarely or once. The seed draws the sequence;
  // the ranking stays fixed, so the mix of costs does not move with it.
  std::vector<uint32_t> Solves, Decides;
  for (uint32_t I = 0; I != Plan.Bodies.size(); ++I)
    (Plan.Constraints[I].empty() ? Decides : Solves).push_back(I);
  auto Popularity = [](const std::vector<uint32_t> &Ranked) {
    std::vector<double> Cumulative(Ranked.size());
    double Total = 0;
    for (size_t I = 0; I != Ranked.size(); ++I)
      Cumulative[I] = Total += 1.0 / std::pow(double(I + 1), 0.9);
    return Cumulative;
  };
  const std::vector<double> SolveCdf = Popularity(Solves);
  const std::vector<double> DecideCdf = Popularity(Decides);
  Plan.Stream.resize(StreamLength);
  for (uint32_t &S : Plan.Stream) {
    bool Solve = R.below(4) != 0;
    const std::vector<uint32_t> &Ranked = Solve ? Solves : Decides;
    const std::vector<double> &Cdf = Solve ? SolveCdf : DecideCdf;
    size_t K = size_t(std::lower_bound(Cdf.begin(), Cdf.end(),
                                       R.unit() * Cdf.back()) -
                      Cdf.begin());
    S = Ranked[std::min(K, Ranked.size() - 1)];
  }
  return Plan;
}

std::string pb::requestLine(uint64_t Id, const std::string &Body) {
  return "{\"id\":" + std::to_string(Id) + "," + Body;
}
