//===- Measure.h - Statistics, clocks and the result line -------*- C++ -*-==//
///
/// \file
/// The arithmetic every workload shares: medians, quartiles, the tail
/// percentile rule, per-operation latency, process resource readings, and
/// the one JSON result line the benchmark prints last.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

using SteadyClock = std::chrono::steady_clock;

inline double secondsSince(SteadyClock::time_point Start) {
  return std::chrono::duration<double>(SteadyClock::now() - Start).count();
}

/// Median of \p Values (mean of the middle pair for an even count); 0 for
/// an empty input.
double median(std::vector<double> Values);

/// The Harrell-Davis estimate of the \p Level quantile: a weighted mean of
/// all order statistics with Beta((n+1)p, (n+1)(1-p)) weights. Where the
/// samples near the quantile are sparse (a few very different
/// operations), the plain sample median jumps between neighbours; this
/// estimate moves smoothly. 0 for an empty input.
double harrellDavis(std::vector<double> Values, double Level);

/// The three cut points of Python's statistics.quantiles(values, n=4)
/// (the default "exclusive" method); all three equal the value for a
/// single input, and 0 for an empty one.
struct Quartiles {
  double Q1 = 0, Q2 = 0, Q3 = 0;
};
Quartiles quartiles(std::vector<double> Values);

/// A tail percentile reported under the rule "at least MinBeyond samples
/// lie above it": the requested level when the sample count allows it,
/// otherwise the highest level that still has MinBeyond samples beyond.
struct TailPercentile {
  double Value = 0;
  /// The level actually reported, in (0, 1]; 0 when no level qualifies.
  double Level = 0;
  size_t Samples = 0;
  /// Samples strictly after the reported order statistic.
  size_t Beyond = 0;
};
TailPercentile tailPercentile(std::vector<double> Values, double Wanted,
                              size_t MinBeyond = 10);

/// What a closed-loop workload, which runs the same operations in the
/// same order every pass, reports about its passes and operations. Every
/// figure is read from one value per operation: its fastest time across
/// the passes. The host this benchmark was tuned on switches between a
/// fast and a slow mode (about 1.6x apart) every fraction of a second,
/// and interference only ever adds time, so an operation's fastest repeat
/// is the closest reading of what the program itself costs. One value per
/// operation also keeps the percentiles on the same operations however
/// many passes a run fits; the fastest of more repeats can only read
/// lower, a small bias in the direction of a change in speed, never
/// against it.
struct ClosedLoopFigures {
  /// One pass at full speed: the per-operation fastest times, plus the
  /// fastest of the passes' time outside their operations (opening
  /// sessions, clearing caches).
  double PassS = 0;
  /// Harrell-Davis median of the per-operation fastest times.
  double OpP50 = 0;
  /// Harrell-Davis estimate of the same at Tail.Level, the level the
  /// ten-beyond rule allows (p99 when there are enough operations). The
  /// same estimator as OpP50, so it never reads below it; OpP50 itself
  /// when the rule allows no level at or above the median.
  double OpP99 = 0;
  TailPercentile Tail;
};
/// \p PassS holds each pass's wall seconds, \p OpMs each operation's
/// milliseconds, pass after pass; every pass runs the same operations.
ClosedLoopFigures closedLoopFigures(const std::vector<double> &PassS,
                                    const std::vector<double> &OpMs);

/// Peak resident set size of this process, in MiB (getrusage).
double selfPeakRssMb();
/// System CPU seconds this process has used so far.
double selfSystemSeconds();

/// One metric of the result line.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// The benchmark's verdict for one run: printed as the last line of
/// standard output, {"correct", "attempted", "failed", "metrics"}.
struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  /// Records an operation whose output disagreed with its reference (or
  /// errored): counted as failed and the run is marked incorrect.
  void fail(const std::string &What);
  std::string json() const;
};

} // namespace pb

#endif // PERFBENCH_MEASURE_H
