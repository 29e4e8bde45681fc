//===- analysis/Liveness.h - Bit-vector liveness ---------------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Iterative backward bit-vector liveness over virtual registers. Both the
/// paper's allocators consume liveness "attached to the CFG prior to
/// register allocation" by a shared library; this is that library.
///
/// Physical registers are deliberately excluded from the cross-block sets:
/// after LowerCalls, every physical-register live range in this IR is local
/// to one block (argument setup immediately precedes the call; result moves
/// immediately follow it; entry moves copy argument registers away at the
/// top of the entry block).
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_ANALYSIS_LIVENESS_H
#define LSRA_ANALYSIS_LIVENESS_H

#include "ir/Function.h"
#include "support/BitVector.h"
#include "target/Target.h"

#include <vector>

namespace lsra {

class Liveness {
public:
  /// Compute liveness for \p F (calls must already be lowered). The
  /// fixpoint is a worklist seeded in post-order (the reverse of \p RPO),
  /// which converges in one visit per block on acyclic CFGs and one extra
  /// visit per enclosing back edge otherwise. When \p RPO is null the
  /// order is computed internally; pass the cached order from
  /// FunctionAnalyses to share it.
  Liveness(const Function &F, const TargetDesc &TD,
           const std::vector<unsigned> *RPO = nullptr);

  BitSpan liveIn(unsigned B) const { return set(2 * B); }
  BitSpan liveOut(unsigned B) const { return set(2 * B + 1); }

  /// True if \p V appears in any block's live-in or live-out set, i.e. its
  /// lifetime crosses a basic-block boundary. The paper excludes purely
  /// local temporaries from the dataflow universes of both allocators.
  bool isCrossBlock(unsigned V) const { return crossBlockSet().test(V); }
  BitSpan crossBlockSet() const { return {CrossBlock.data(), NumVRegs}; }

  unsigned numVRegs() const { return NumVRegs; }

  /// Number of block relaxations the worklist performed (>= numBlocks();
  /// equal to it for acyclic CFGs).
  unsigned numIterations() const { return Iterations; }

private:
  BitSpan set(unsigned Row) const {
    return {Sets.data() + size_t(Row) * WordsPerSet, NumVRegs};
  }

  unsigned NumVRegs;
  unsigned WordsPerSet;
  unsigned Iterations = 0;
  /// Every block's live-in then live-out set, WordsPerSet words each.
  std::vector<uint64_t> Sets;
  std::vector<uint64_t> CrossBlock;
};

} // namespace lsra

#endif // LSRA_ANALYSIS_LIVENESS_H
