//===- regalloc/Resolver.cpp ----------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "regalloc/Resolver.h"

#include "analysis/Order.h"
#include "regalloc/ParallelCopy.h"

using namespace lsra;

namespace {

struct Edge {
  unsigned Pred;
  unsigned Succ;
};

} // namespace

ResolveCounts lsra::resolveEdges(Function &F, const ResolverInput &In,
                                 SpillSlots &Slots) {
  ResolveCounts Counts;
  const Liveness &LV = *In.LV;
  const auto &DenseToVReg = *In.DenseToVReg;
  const auto &LocTop = *In.LocTop;
  const auto &LocBottom = *In.LocBottom;

  // Collect the original edges and predecessor counts before any splitting
  // mutates the CFG.
  unsigned OrigBlocks = F.numBlocks();
  std::vector<Edge> Edges;
  std::vector<unsigned> PredCount(OrigBlocks, 0);
  std::vector<unsigned> SuccCount(OrigBlocks, 0);
  for (unsigned B = 0; B < OrigBlocks; ++B) {
    auto Succs = F.block(B).successors();
    SuccCount[B] = static_cast<unsigned>(Succs.size());
    for (unsigned S : Succs) {
      Edges.push_back({B, S});
      ++PredCount[S];
    }
  }

  for (const Edge &E : Edges) {
    ParallelCopy PC;
    BitSpan LiveInS = LV.liveIn(E.Succ);
    for (unsigned D = 0; D < DenseToVReg.size(); ++D) {
      unsigned V = DenseToVReg[D];
      if (V >= LiveInS.size() || !LiveInS.test(V))
        continue;
      LocCode Bot = LocBottom[E.Pred][D];
      LocCode Top = LocTop[E.Succ][D];
      bool BotReg = isRegLoc(Bot);
      bool TopReg = isRegLoc(Top);
      bool ConsistentAtBot =
          (*In.ConsistentBottom)[E.Pred].size() > D &&
          (*In.ConsistentBottom)[E.Pred].test(D);
      if (BotReg && TopReg) {
        if (regOfLoc(Bot) != regOfLoc(Top))
          PC.addMove(V, regOfLoc(Bot), regOfLoc(Top));
        // The successor may rely on consistency that does not hold at the
        // predecessor even though the temp stays in a register.
        if (In.CI && In.CI->needsEdgeStore(E.Pred, E.Succ, V))
          PC.addStore(V, regOfLoc(Bot));
      } else if (BotReg && !TopReg) {
        // Register at the bottom, memory at the top: store, "but only if
        // the temporary's allocated register and memory home are
        // inconsistent" (§2.4). The consistency dataflow covers the case
        // where the suppression is unsound along this path.
        bool NeedStore = !ConsistentAtBot;
        if (!NeedStore && In.CI && In.CI->needsEdgeStore(E.Pred, E.Succ, V))
          NeedStore = true;
        if (NeedStore)
          PC.addStore(V, regOfLoc(Bot));
      } else if (!BotReg && TopReg) {
        // Memory (or not-yet-materialised) at the bottom, register at the
        // top: load from the memory home.
        PC.addLoad(V, regOfLoc(Top));
      }
      // mem -> mem needs nothing.
    }
    if (PC.empty())
      continue;

    std::vector<Instr> Seq;
    PC.emit(Seq, Slots, F);
    for (const Instr &I : Seq) {
      switch (I.Spill) {
      case SpillKind::ResolveLoad:
        ++Counts.Loads;
        break;
      case SpillKind::ResolveStore:
        ++Counts.Stores;
        break;
      case SpillKind::ResolveMove:
        ++Counts.Moves;
        break;
      default:
        break;
      }
    }

    // Placement (§2.4 footnote 1). Placing at the bottom of the predecessor
    // is only safe when its terminator reads no registers (an unconditional
    // branch); a CBr's condition register could otherwise be clobbered by
    // the inserted code. The entry block is never a valid top-of-successor
    // target even with a single explicit predecessor: it has an implicit
    // second predecessor (function entry), and back-edge resolution code
    // placed there would also run before the first iteration.
    if (PredCount[E.Succ] == 1 && E.Succ != 0) {
      Block &S = F.block(E.Succ);
      for (unsigned I = 0; I < Seq.size(); ++I)
        S.insertAt(I, Seq[I]);
    } else if (SuccCount[E.Pred] == 1 &&
               F.block(E.Pred).terminator().opcode() == Opcode::Br) {
      Block &P = F.block(E.Pred);
      for (const Instr &I : Seq)
        P.insertBeforeTerminator(I);
    } else {
      Block &NewB = splitEdge(F, E.Pred, E.Succ);
      for (unsigned I = 0; I < Seq.size(); ++I)
        NewB.insertAt(I, Seq[I]);
      ++Counts.SplitEdges;
    }
  }
  return Counts;
}
