//===- Inputs.h - Seeded workload inputs ------------------------*- C++ -*-==//
///
/// \file
/// Every input the benchmark feeds the program is made here from the
/// --seed value: the same seed gives byte-identical inputs, and another
/// seed gives different text with the same shape (|FG|, |C|). The program only ever sees the generated inputs.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

/// splitmix64: a small, well-mixed generator for every seeded draw.
struct Rng {
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return next() % N; }
  double unit() { return double(next() >> 11) * 0x1.0p-53; }
  uint64_t State;
};

/// Derives the corpus generator seed of one file from its default seed
/// and the run seed; seed 0 keeps the default.
unsigned reseed(unsigned DefaultSeed, uint64_t RunSeed);

/// One Figure 12 row as a cold `dprle analyze` input, with the |FG| and
/// |C| the paper fixes for it.
struct Fig12Row {
  std::string Label;
  std::string Source;
  unsigned Blocks = 0;
  unsigned Constraints = 0;
};

/// The 16 ordinary Figure 12 rows (all but the pathological `secure`).
std::vector<Fig12Row> fig12Rows(uint64_t Seed);

/// The constraint systems of the sink paths of \p Source under the SQL
/// attack, in the text form the constraint parser reads (at most
/// \p MaxPaths).
std::vector<std::string> sinkPathSystems(const std::string &Source,
                                         size_t MaxPaths);

/// An incremental-editing trajectory: one session per base system, and
/// per session a seeded sequence of one-constraint deltas, each pushed,
/// checked, popped and checked again.
struct SessionPlan {
  std::vector<std::string> BaseLabels;
  std::vector<std::string> Bases;
  /// Deltas[b]: the distinct delta texts edits on base b draw from.
  std::vector<std::vector<std::string>> Deltas;
  /// Edits[b]: indices into Deltas[b], in trajectory order.
  std::vector<std::vector<uint32_t>> Edits;
  /// Order in which the sessions run.
  std::vector<uint32_t> Order;
};

SessionPlan sessionPlan(uint64_t Seed, unsigned EditsPerBase);

/// The service request mix: distinct request bodies, and a stream of
/// draws from them with a seeded skew (so some repeat and some are new).
struct ServePlan {
  /// The request object without its id: `"method": ..., "params": ...}`.
  std::vector<std::string> Bodies;
  /// The constraint text of each solve request; empty for decides.
  std::vector<std::string> Constraints;
  /// Request index per stream position.
  std::vector<uint32_t> Stream;
};

ServePlan servePlan(uint64_t Seed, size_t StreamLength);

/// The full NDJSON line of request \p Body under integer id \p Id.
std::string requestLine(uint64_t Id, const std::string &Body);

} // namespace pb

#endif // PERFBENCH_INPUTS_H
