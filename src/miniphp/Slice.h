//===- Slice.h - Backward slices of taint sinks -----------------*- C++ -*-==//
///
/// \file
/// Backward slicing over a Cfg: the first step of the taint pre-pass
/// (Taint.h). For every sink an audit looks at, the slicer computes the
/// statements that can affect the sink expression — the assignments
/// (transitively) defining its variables and the branch conditions
/// guarding the sink. This needs the CFG and the sink statements only, no
/// language approximation, so it runs before the taint sweep and tells
/// the sweep where to look: blocks that can reach a sink, and variables
/// whose values can flow into one.
///
/// Once the sweep knows which sinks are live (not proven safe),
/// pruneSummary() derives the two program-wide summaries the symbolic
/// executor uses to prune its walk:
///
///  * `ReachesLiveSink[b]` — whether block `b` can still reach a sink
///    that needs solving; exploration stops at blocks that cannot.
///  * `RelevantVars` — variables whose values can flow into a live sink
///    expression or into a branch condition guarding one; assignments to
///    any other variable are skipped during path exploration (they can
///    affect neither the sink constraint nor path feasibility).
///
/// See docs/TAINT.md for the slicing rules and the soundness argument.
///
//===----------------------------------------------------------------------===//

#ifndef DPRLE_MINIPHP_SLICE_H
#define DPRLE_MINIPHP_SLICE_H

#include "miniphp/Cfg.h"
#include "miniphp/Policy.h"

#include <set>
#include <string>
#include <vector>

namespace dprle {
namespace miniphp {

/// The backward slice of one sink.
struct SinkSlice {
  const Stmt *Sink = nullptr;
  unsigned Line = 0;
  /// The block holding the sink.
  BlockId Block = 0;
  /// Source lines of the slice: the sink itself, the assignments that
  /// can (transitively) define its variables, and the conditions of the
  /// branches guarding it.
  std::set<unsigned> Lines;
  /// Variables that can affect the sink expression or its guards.
  std::set<std::string> Vars;
  /// The part of Vars whose values can flow into the sink expression:
  /// its own variables closed over their definitions, without variables
  /// that only feed guards. The taint sweep tracks exactly these.
  std::set<std::string> ValueVars;
};

/// The slices of every sink some spec audits, and the CFG facts the taint
/// sweep and the prune summaries share.
struct CfgSlices {
  /// One slice per audited sink, in CFG (block, index) order.
  std::vector<SinkSlice> Slices;
  /// Per block: its predecessors.
  std::vector<std::vector<BlockId>> Preds;
  /// Per block: is it reachable from the entry? Sinks in other blocks
  /// are dead code.
  std::vector<char> Reachable;
  /// Per block: can it reach an audited sink? (A block holding one
  /// counts.) The taint sweep visits only blocks that are Reachable and
  /// ReachesSink.
  std::vector<char> ReachesSink;
  /// Union of ValueVars over the reachable sinks: the variables the
  /// taint sweep tracks.
  std::set<std::string> ValueVars;

  const SinkSlice *sliceFor(const Stmt *S) const;
  /// Blocks from which a block with \p Targets set is reachable (a
  /// target block itself counts), walking Preds backward.
  std::vector<char> blocksReaching(const std::vector<char> &Targets) const;
};

/// Slices \p G for every sink statement that some spec of \p Specs audits.
CfgSlices sliceSinks(const Cfg &G, const std::vector<AttackSpec> &Specs);

/// What symbolic execution may skip, given a set of live sinks.
struct PruneSummary {
  /// Union of SinkSlice::Vars over the live sinks.
  std::set<std::string> RelevantVars;
  /// Per block: can this block reach a live sink? (A block containing
  /// one counts.) Indexed by BlockId.
  std::vector<char> ReachesLiveSink;
};

/// The prune summary over the slices of \p Slices whose \p Live flag is
/// set (Live is parallel to Slices.Slices).
PruneSummary pruneSummary(const CfgSlices &Slices,
                          const std::vector<char> &Live);

} // namespace miniphp
} // namespace dprle

#endif // DPRLE_MINIPHP_SLICE_H
