//===- SelfTest.cpp - The benchmark's own tests ---------------------------===//
//
// Seeded inputs (determinism and shape), the statistics helpers, the tail
// percentile rule, per-operation latency, and the result line.
// Built and run by `python3 perfbench/run.py --self-test`.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Measure.h"

#include "miniphp/Cfg.h"
#include "miniphp/Corpus.h"
#include "miniphp/Inline.h"
#include "miniphp/Parser.h"
#include "miniphp/SymExec.h"
#include "miniphp/Unroll.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace pb;
using namespace dprle;
using namespace dprle::miniphp;

namespace {

/// |FG| and the first sink path's |C| of \p Source, as the analysis
/// counts them (paper-faithful settings do not change either).
std::pair<unsigned, unsigned> shape(const std::string &Source) {
  ParseResult P = parseProgram(Source);
  InlineResult I = inlineFunctions(P.Prog);
  Program Prog = unrollLoops(I.Prog, 3);
  Cfg G = Cfg::build(Prog);
  SymExecOptions Opts;
  Opts.TaintPrune = true;
  SymExecResult S = runSymExec(Prog, G, AttackSpec::sqlQuote(), Opts);
  return {G.numBlocks(), S.Paths.empty() ? 0 : S.Paths[0].NumConstraints};
}

} // namespace

TEST(Inputs, SameSeedGivesIdenticalInputs) {
  for (uint64_t Seed : {0ull, 5ull}) {
    std::vector<Fig12Row> A = fig12Rows(Seed), B = fig12Rows(Seed);
    ASSERT_EQ(A.size(), B.size());
    for (size_t I = 0; I != A.size(); ++I)
      EXPECT_EQ(A[I].Source, B[I].Source);
    SessionPlan SA = sessionPlan(Seed, 20), SB = sessionPlan(Seed, 20);
    EXPECT_EQ(SA.Bases, SB.Bases);
    EXPECT_EQ(SA.Deltas, SB.Deltas);
    EXPECT_EQ(SA.Edits, SB.Edits);
    EXPECT_EQ(SA.Order, SB.Order);
    ServePlan PA = servePlan(Seed, 500), PB = servePlan(Seed, 500);
    EXPECT_EQ(PA.Bodies, PB.Bodies);
    EXPECT_EQ(PA.Stream, PB.Stream);
  }
}

TEST(Inputs, Fig12SeedsChangeTextNotShape) {
  std::vector<Fig12Row> A = fig12Rows(0), B = fig12Rows(9);
  ASSERT_EQ(A.size(), 16u);
  ASSERT_EQ(B.size(), A.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Label, B[I].Label);
    EXPECT_NE(A[I].Source, B[I].Source) << A[I].Label;
    EXPECT_EQ(A[I].Blocks, B[I].Blocks);
    EXPECT_EQ(A[I].Constraints, B[I].Constraints);
    auto [Blocks, Constraints] = shape(B[I].Source);
    EXPECT_EQ(Blocks, B[I].Blocks) << B[I].Label;
    EXPECT_EQ(Constraints, B[I].Constraints) << B[I].Label;
  }
}

TEST(Inputs, OtherSeedsDrawOtherEditsAndRequests) {
  SessionPlan A = sessionPlan(1, 50), B = sessionPlan(2, 50);
  EXPECT_EQ(A.Bases.size(), B.Bases.size());
  EXPECT_NE(A.Edits, B.Edits);
  for (const std::vector<uint32_t> &E : A.Edits)
    EXPECT_EQ(E.size(), 50u);
  ServePlan PA = servePlan(1, 1000), PB = servePlan(2, 1000);
  EXPECT_EQ(PA.Bodies.size(), PB.Bodies.size());
  EXPECT_NE(PA.Stream, PB.Stream);
  // Three requests in four are solves; some repeat, and most bodies are
  // drawn at least once.
  size_t Solves = 0;
  std::vector<unsigned> Seen(PA.Bodies.size());
  for (uint32_t I : PA.Stream) {
    Solves += !PA.Constraints[I].empty();
    ++Seen[I];
  }
  EXPECT_NEAR(double(Solves) / 1000, 0.75, 0.05);
  EXPECT_GT(*std::max_element(Seen.begin(), Seen.end()), 20u);
}

TEST(Statistics, Median) {
  EXPECT_EQ(median({}), 0);
  EXPECT_EQ(median({3}), 3);
  EXPECT_EQ(median({5, 1, 3}), 3);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Statistics, QuartilesMatchPythonStatisticsQuantiles) {
  // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
  Quartiles Q = quartiles({4, 2, 1, 3});
  EXPECT_DOUBLE_EQ(Q.Q1, 1.25);
  EXPECT_DOUBLE_EQ(Q.Q2, 2.5);
  EXPECT_DOUBLE_EQ(Q.Q3, 3.75);
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  Q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(Q.Q1, 2.75);
  EXPECT_DOUBLE_EQ(Q.Q2, 5.5);
  EXPECT_DOUBLE_EQ(Q.Q3, 8.25);
  // statistics.quantiles([1.0, 10.0], n=4) == [-1.25, 5.5, 12.25]
  Q = quartiles({10, 1});
  EXPECT_DOUBLE_EQ(Q.Q1, -1.25);
  EXPECT_DOUBLE_EQ(Q.Q3, 12.25);
}

TEST(Statistics, TailPercentileKeepsTenSamplesBeyond) {
  std::vector<double> V;
  for (int I = 1; I <= 2000; ++I)
    V.push_back(I);
  TailPercentile T = tailPercentile(V, 0.99);
  EXPECT_DOUBLE_EQ(T.Level, 0.99);
  EXPECT_EQ(T.Value, 1980);
  EXPECT_EQ(T.Beyond, 20u);

  // 1000 samples: p99 has exactly ten beyond it.
  V.resize(1000);
  T = tailPercentile(V, 0.99);
  EXPECT_DOUBLE_EQ(T.Level, 0.99);
  EXPECT_EQ(T.Beyond, 10u);

  // 50 samples: p99 would have none beyond; report p80 instead.
  V.resize(50);
  T = tailPercentile(V, 0.99);
  EXPECT_EQ(T.Beyond, 10u);
  EXPECT_DOUBLE_EQ(T.Level, 0.8);
  EXPECT_EQ(T.Value, 40);

  // Ten samples or fewer: no level qualifies.
  V.resize(10);
  T = tailPercentile(V, 0.99);
  EXPECT_EQ(T.Level, 0);
  EXPECT_EQ(T.Samples, 10u);
}

TEST(Statistics, ClosedLoopFiguresDoNotMoveWithThePassCount) {
  // 20 very different operations and 5 ms
  // per pass outside them: a run that fits more passes of the same
  // operations reports the same figures of the same operations.
  std::vector<double> Row;
  for (int I = 1; I <= 20; ++I)
    Row.push_back(I * I);
  const double RowS = 2870 / 1e3; // the sum of 1^2 .. 20^2, in seconds
  auto Passes = [&](int N) {
    std::vector<double> PassS(N, RowS + 0.005), OpMs;
    for (int P = 0; P != N; ++P)
      OpMs.insert(OpMs.end(), Row.begin(), Row.end());
    return closedLoopFigures(PassS, OpMs);
  };
  ClosedLoopFigures Few = Passes(3);
  EXPECT_NEAR(Few.PassS, RowS + 0.005, 1e-12);
  for (int N : {1, 6, 11, 40}) {
    ClosedLoopFigures More = Passes(N);
    EXPECT_DOUBLE_EQ(More.PassS, Few.PassS) << N << " passes";
    EXPECT_DOUBLE_EQ(More.OpP50, Few.OpP50) << N << " passes";
    EXPECT_DOUBLE_EQ(More.OpP99, Few.OpP99) << N << " passes";
    EXPECT_EQ(More.Tail.Samples, 20u);
  }
  // 20 operations leave ten beyond the median at most: the tail is
  // reported at p50 and equals the median.
  EXPECT_DOUBLE_EQ(Few.Tail.Level, 0.5);
  EXPECT_EQ(Few.Tail.Beyond, 10u);
  EXPECT_DOUBLE_EQ(Few.OpP99, Few.OpP50);
  // 16 operations, as the rows of fig12_faithful, leave ten beyond only
  // below the median: the tail repeats the median.
  ClosedLoopFigures Sixteen = closedLoopFigures(
      {0.01}, std::vector<double>(Row.begin(), Row.begin() + 16));
  EXPECT_LT(Sixteen.Tail.Level, 0.5);
  EXPECT_DOUBLE_EQ(Sixteen.OpP99, Sixteen.OpP50);

  // Passes slowed by the host, whole or in part, move nothing as long as
  // each operation ran at full speed once.
  std::vector<double> PassS, OpMs;
  for (int P = 0; P != 5; ++P) {
    double Slow = P == 2 ? 1.6 : 1.0;
    for (size_t I = 0; I != Row.size(); ++I)
      OpMs.push_back(Row[I] * (P == 3 && I < 10 ? 1.6 : Slow));
    PassS.push_back((RowS + 0.005) * Slow + (P == 3 ? 1 : 0));
  }
  ClosedLoopFigures Noisy = closedLoopFigures(PassS, OpMs);
  EXPECT_NEAR(Noisy.PassS, Few.PassS, 1e-12);
  EXPECT_DOUBLE_EQ(Noisy.OpP50, Few.OpP50);
  EXPECT_DOUBLE_EQ(Noisy.OpP99, Few.OpP99);

  // 2,000 operations per pass reach p99 with 20 beyond.
  std::vector<double> Many;
  for (int I = 1; I <= 2000; ++I)
    Many.push_back(I);
  Many.insert(Many.end(), Many.begin(), Many.end());
  // Each pass is 1 + 2 + ... + 2000 ms, nothing outside the operations.
  ClosedLoopFigures L = closedLoopFigures({2001, 2001}, Many);
  EXPECT_DOUBLE_EQ(L.Tail.Level, 0.99);
  EXPECT_EQ(L.Tail.Beyond, 20u);
  EXPECT_NEAR(L.OpP99, 0.99 * 2001, 1);
  EXPECT_GT(L.OpP99, L.OpP50);
  EXPECT_NEAR(L.PassS, 2001, 1e-9);
}

TEST(Result, JsonLineCarriesEveryDigit) {
  RunResult R;
  R.Attempted = 3;
  R.add("latency_ms", 1.2345678901234567, "ms");
  EXPECT_EQ(R.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.2345678901234567, "
            "\"unit\": \"ms\"}}}");
  R.fail("one mismatch");
  EXPECT_FALSE(R.Correct);
  EXPECT_EQ(R.Failed, 1u);
}

TEST(Statistics, HarrellDavisMedian) {
  EXPECT_EQ(harrellDavis({}, 0.5), 0);
  EXPECT_DOUBLE_EQ(harrellDavis({7}, 0.5), 7);
  EXPECT_NEAR(harrellDavis({4, 4, 4, 4}, 0.5), 4, 1e-12);
  // Symmetric samples: the estimate is the centre.
  EXPECT_NEAR(harrellDavis({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.5), 5.5,
              1e-9);
  EXPECT_NEAR(harrellDavis({3, 1, 2}, 0.5), 2, 1e-9);
  // Two clusters with a gap in the middle: the sample median sits on the
  // gap's edges; the estimate blends both sides and moves only a little
  // when one edge sample moves a lot.
  std::vector<double> Gap = {1, 1, 1, 1, 1, 10, 10, 10, 10, 10};
  double Before = harrellDavis(Gap, 0.5);
  EXPECT_NEAR(Before, 5.5, 1e-9);
  Gap[4] = 3;
  EXPECT_LT(harrellDavis(Gap, 0.5) - Before, 0.5);
  // Weights sum to one for large inputs too.
  std::vector<double> Ones(5000, 1.0);
  EXPECT_NEAR(harrellDavis(Ones, 0.5), 1, 1e-9);
  EXPECT_NEAR(harrellDavis(Ones, 0.99), 1, 1e-9);
}
