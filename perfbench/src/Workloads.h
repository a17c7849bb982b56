//===- Workloads.h - The workloads and their shared plumbing ----*- C++ -*-===//
///
/// \file
/// Each workload runs its set-up several times (reporting the median), then
/// measures for the requested number of seconds, checks every output
/// against a reference it did not take from the code under test's own
/// answer for that operation, and fills a RunResult. With tracing off it
/// reports the end-to-end metrics; with tracing on, the per-layer metrics.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Measure.h"
#include "TraceSummary.h"

#include "support/Stats.h"

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace pb {

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  /// Flips one reference answer, to show that the checks catch it.
  bool CorruptReference = false;
};

/// Set-up runs at least SetupMinRepeats times and until SetupMinSeconds
/// have passed in all (at most SetupMaxRepeats times); setup_s is the
/// median. A short set-up is repeated often enough that its median is
/// steady; a long one still gets five samples.
constexpr int SetupMinRepeats = 5;
constexpr double SetupMinSeconds = 3;
constexpr int SetupMaxRepeats = 200;

RunResult runFig12(const Options &O);
RunResult runSessionEdit(const Options &O);

/// Drops every process-wide memo a cold `dprle analyze` run would not
/// have: the decision cache and the minimize-result cache.
void clearProgramCaches();

/// Runs \p F on a new thread and waits for it: thread-local memos (such as
/// SymExec's branch-condition cache) start cold, as in a new process.
template <typename Fn> void onFreshThread(Fn &&F) {
  std::thread T(std::forward<Fn>(F));
  T.join();
}

/// Runs \p Setup as often as the constants above say and returns the
/// median wall seconds.
double medianSetupSeconds(const std::function<void()> &Setup);

/// The end-to-end metrics (tracing off) of a closed-loop workload: one
/// caller repeating the same operations in the same order every pass
/// (see closedLoopFigures).
struct EndToEnd {
  double SetupS = 0;
  /// Every pass's wall time.
  std::vector<double> PassS;
  /// Every operation's latency, pass after pass.
  std::vector<double> OpMs;
};
void addEndToEnd(RunResult &R, const EndToEnd &E);

/// Names and units of the per-layer metrics, in report order.
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();
/// Names and units of the end-to-end metrics, in report order.
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();

/// Per-layer values for one traced run. Metrics a workload does not touch
/// stay 0 (the layer is bypassed there); every name is always printed.
struct LayerReport {
  std::map<std::string, double> Values;
  double &operator[](const std::string &Name) { return Values[Name]; }
  void emit(RunResult &R) const;
};

/// The service layer's per-layer metrics (serve.*, router.shard_balance):
/// a seeded stream of solve and decide requests through Router::shardFor
/// and in-process SolverService shards, then over a Unix socket. Every
/// verdict is checked into \p R.
void measureServiceLayer(uint64_t Seed, RunResult &R, LayerReport &L);

/// StatsRegistry counter deltas over an interval.
class CounterWindow {
public:
  CounterWindow() : Before(dprle::StatsRegistry::global().snapshot()) {}
  /// Counter deltas since construction, by name.
  std::map<std::string, double> deltas() const;

private:
  dprle::StatsRegistry::Snapshot Before;
};

/// Fills the layers every traced run measures the same way: solver and
/// automata self times from \p Spans, the StatsRegistry counter deltas
/// \p Deltas, allocations and system time since \p SysBefore, and the
/// trace's own validity (overhead of the traced passes against the
/// untraced ones, dropped spans, spans per pass). Prints the self-time
/// table on standard error.
void finishTracedLayers(LayerReport &L, const SpanTotals &Spans,
                        const std::map<std::string, double> &Deltas,
                        double SysBefore,
                        const std::vector<double> &TracedPassS,
                        const std::vector<double> &UntracedPassS,
                        size_t OpSamples);

/// Allocation counters of the benchmark binary's operator new, counted
/// only while armed (traced passes).
struct AllocTotals {
  uint64_t Count = 0;
  uint64_t Bytes = 0;
};
void armAllocCounting(bool On);
AllocTotals allocTotals();

} // namespace pb

#endif // PERFBENCH_WORKLOADS_H
