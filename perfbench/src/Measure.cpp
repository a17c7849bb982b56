//===- Measure.cpp - Statistics, clocks and the result line ---------------===//

#include "Measure.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include <sys/resource.h>

using namespace pb;

double pb::median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2;
}

namespace {

/// Continued fraction of the incomplete beta function (modified Lentz).
double betaFraction(double A, double B, double X) {
  const double Tiny = 1e-300;
  double C = 1, D = 1 - (A + B) * X / (A + 1);
  D = 1 / (std::fabs(D) < Tiny ? Tiny : D);
  double H = D;
  for (int M = 1; M != 100000; ++M) {
    for (int Half = 0; Half != 2; ++Half) {
      double Num = Half == 0
                       ? M * (B - M) * X / ((A + 2 * M - 1) * (A + 2 * M))
                       : -(A + M) * (A + B + M) * X /
                             ((A + 2 * M) * (A + 2 * M + 1));
      D = 1 + Num * D;
      D = 1 / (std::fabs(D) < Tiny ? Tiny : D);
      C = 1 + Num / C;
      C = std::fabs(C) < Tiny ? Tiny : C;
      H *= D * C;
      if (Half == 1 && std::fabs(D * C - 1) < 1e-15)
        return H;
    }
  }
  return H;
}

/// The regularized incomplete beta function I_x(a, b).
double incompleteBeta(double A, double B, double X) {
  if (X <= 0)
    return 0;
  if (X >= 1)
    return 1;
  double Front = std::exp(std::lgamma(A + B) - std::lgamma(A) -
                          std::lgamma(B) + A * std::log(X) +
                          B * std::log1p(-X));
  if (X < (A + 1) / (A + B + 2))
    return Front * betaFraction(A, B, X) / A;
  return 1 - Front * betaFraction(B, A, 1 - X) / B;
}

} // namespace

double pb::harrellDavis(std::vector<double> Values, double Level) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  const double N = double(Values.size());
  const double A = Level * (N + 1), B = (1 - Level) * (N + 1);
  double Sum = 0, Below = 0;
  for (size_t I = 0; I != Values.size(); ++I) {
    double Upto = incompleteBeta(A, B, double(I + 1) / N);
    Sum += (Upto - Below) * Values[I];
    Below = Upto;
  }
  return Sum;
}

Quartiles pb::quartiles(std::vector<double> Values) {
  Quartiles Q;
  if (Values.empty())
    return Q;
  if (Values.size() == 1) {
    Q.Q1 = Q.Q2 = Q.Q3 = Values[0];
    return Q;
  }
  std::sort(Values.begin(), Values.end());
  // statistics.quantiles, method='exclusive', n=4, in exact integer math.
  const long Ld = long(Values.size()), M = Ld + 1, N = 4;
  double Cut[3];
  for (long I = 1; I != N; ++I) {
    long J = std::clamp(I * M / N, 1L, Ld - 1);
    long Delta = I * M - J * N;
    Cut[I - 1] =
        (Values[J - 1] * double(N - Delta) + Values[J] * double(Delta)) /
        double(N);
  }
  Q.Q1 = Cut[0];
  Q.Q2 = Cut[1];
  Q.Q3 = Cut[2];
  return Q;
}

TailPercentile pb::tailPercentile(std::vector<double> Values, double Wanted,
                                  size_t MinBeyond) {
  TailPercentile T;
  T.Samples = Values.size();
  if (T.Samples <= MinBeyond)
    return T;
  std::sort(Values.begin(), Values.end());
  // Nearest rank of the wanted level, capped so that MinBeyond samples
  // stay above the reported one.
  size_t Rank = size_t(std::ceil(Wanted * double(T.Samples)));
  Rank = std::clamp<size_t>(Rank, 1, T.Samples - MinBeyond);
  T.Value = Values[Rank - 1];
  T.Beyond = T.Samples - Rank;
  T.Level = std::min(Wanted, double(Rank) / double(T.Samples));
  return T;
}

ClosedLoopFigures pb::closedLoopFigures(const std::vector<double> &PassS,
                                        const std::vector<double> &OpMs) {
  ClosedLoopFigures F;
  if (PassS.empty() || OpMs.empty())
    return F;
  const size_t PerPass = OpMs.size() / PassS.size();
  std::vector<double> Fastest(OpMs.begin(), OpMs.begin() + PerPass);
  double Between = PassS[0];
  for (size_t P = 0; P != PassS.size(); ++P) {
    double InOps = 0;
    for (size_t Op = 0; Op != PerPass; ++Op) {
      double Ms = OpMs[P * PerPass + Op];
      Fastest[Op] = std::min(Fastest[Op], Ms);
      InOps += Ms / 1e3;
    }
    Between = std::min(Between, std::max(0.0, PassS[P] - InOps));
  }
  for (double Ms : Fastest)
    F.PassS += Ms / 1e3;
  F.PassS += Between;
  F.OpP50 = harrellDavis(Fastest, 0.5);
  F.Tail = tailPercentile(Fastest, 0.99);
  // Below the median the ten-beyond rule leaves no tail to report.
  F.OpP99 = F.Tail.Level >= 0.5 ? harrellDavis(Fastest, F.Tail.Level)
                                : F.OpP50;
  return F;
}

double pb::selfPeakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

double pb::selfSystemSeconds() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_stime.tv_sec) + double(U.ru_stime.tv_usec) * 1e-6;
}

void RunResult::fail(const std::string &What) {
  ++Failed;
  Correct = false;
  if (Failed <= 10)
    std::fprintf(stderr, "MISMATCH: %s\n", What.c_str());
}

std::string RunResult::json() const {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  char Buf[64];
  for (size_t I = 0; I != Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    double V = std::isfinite(M.Value) ? M.Value : 0.0;
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    Out += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + M.Unit + "\"}";
  }
  Out += "}}";
  return Out;
}
