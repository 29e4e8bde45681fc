//===- passes/DCE.cpp -----------------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// One global liveness solve, then a per-variable worklist (DESIGN.md, "Dead
// code elimination"):
//
//   1. Sweep every block backward from its solved live-out set once,
//      deleting removable definitions nobody reads.
//   2. Every vreg that lost a use on the way goes on a worklist.
//   3. For a vreg taken off the worklist, re-derive the blocks it is live
//      into from its remaining upward-exposed uses alone (liveness is
//      separable by variable), then delete its definitions that are now
//      dead and queue the vregs those definitions used. The sweep records
//      each vreg's references as it goes, so this step reads them without
//      another pass over the function.
//
// Deadness is monotone under deleting dead code, so the deleted set is the
// fixpoint of repeated whole-function liveness rounds, reached without a
// second bit-vector solve.
//
//===----------------------------------------------------------------------===//

#include "passes/DCE.h"

#include "analysis/Liveness.h"
#include "support/BitVector.h"

#include <algorithm>

using namespace lsra;

namespace {

/// True if \p I can be deleted when its definition is dead: it defines a
/// virtual register and has no other observable effect. (Loads are pure in
/// this IR; stores, calls, emits, and terminators are not removable.)
bool isRemovableWhenDead(const Instr &I) {
  if (I.info().NumDefs != 1 || !I.op(0).isVReg())
    return false;
  switch (I.opcode()) {
  case Opcode::CRes:
  case Opcode::FCRes:
    // The call happens regardless; an unused result move is dead.
    return true;
  default:
    return !I.isCall() && !I.isTerminator();
  }
}

enum : uint8_t { RefUse = 1, RefDef = 2 };

/// Invoke \p F(V, Flags) once per distinct vreg \p I names in its register
/// slots, with RefUse/RefDef saying how. Implicit call operands are physical
/// registers and never vregs.
template <typename Fn> void forEachVRegRef(const Instr &I, Fn &&F) {
  const OpcodeInfo &Info = I.info();
  unsigned Ids[3];
  uint8_t Flags[3];
  unsigned N = 0;
  for (unsigned S = 0, E = Info.NumDefs + Info.NumUses; S < E; ++S) {
    const Operand &Op = I.op(S);
    if (!Op.isVReg())
      continue;
    uint8_t Fl = S < Info.NumDefs ? RefDef : RefUse;
    unsigned K = 0;
    while (K < N && Ids[K] != Op.vregId())
      ++K;
    if (K == N) {
      Ids[N] = Op.vregId();
      Flags[N++] = Fl;
    } else {
      Flags[K] |= Fl;
    }
  }
  for (unsigned K = 0; K < N; ++K)
    F(Ids[K], Flags[K]);
}

class DeadCodeElim {
public:
  DeadCodeElim(Function &F, const TargetDesc &TD) : F(F), TD(TD) {}

  unsigned run() {
    unsigned NB = F.numBlocks();
    BlockStart.resize(NB + 1);
    BlockStart[0] = 0;
    for (unsigned B = 0; B < NB; ++B)
      BlockStart[B + 1] = BlockStart[B] + F.block(B).size();
    Removed.assign(BlockStart[NB], 0);
    Queued.assign(F.numVRegs(), 0);
    RefHead.assign(F.numVRegs(), NoRef);
    Refs.reserve(2 * BlockStart[NB]);

    sweep(Liveness(F, TD));
    if (!Worklist.empty()) {
      buildPreds();
      while (!Worklist.empty()) {
        unsigned V = Worklist.back();
        Worklist.pop_back();
        Queued[V] = 0;
        retire(V);
      }
    }
    if (NumRemoved)
      compact();
    return NumRemoved;
  }

private:
  static constexpr unsigned NoRef = ~0u;

  /// One reference of a vreg by an instruction the sweep kept. A vreg's
  /// references form a list grouped by block (blocks in reverse order) and
  /// in instruction order within each block.
  struct Ref {
    unsigned Pos;   ///< function-wide instruction position
    unsigned Block;
    unsigned Next;  ///< next reference of the same vreg, or NoRef
    uint8_t Flags;  ///< RefUse | RefDef
  };

  Function &F;
  const TargetDesc &TD;
  std::vector<unsigned> BlockStart; ///< position of each block's first instr
  std::vector<uint8_t> Removed;     ///< by position
  std::vector<unsigned> Worklist;   ///< vregs that lost a use
  std::vector<uint8_t> Queued;      ///< by vreg: on the worklist
  unsigned NumRemoved = 0;

  std::vector<unsigned> RefHead; ///< by vreg: first of its references
  std::vector<Ref> Refs;
  std::vector<unsigned> PredStart, Preds; ///< predecessor lists (CSR)
  // Per-block stamps: == Epoch means "for the vreg being retired".
  std::vector<unsigned> LiveInStamp, KillStamp;
  unsigned Epoch = 0;
  std::vector<unsigned> BlockWork;
  std::vector<unsigned> Pending; ///< refs of defs last in their block

  const Instr &instrAt(const Ref &R) const {
    return F.block(R.Block).instrs()[R.Pos - BlockStart[R.Block]];
  }

  void remove(unsigned Pos, const Instr &I) {
    Removed[Pos] = 1;
    ++NumRemoved;
    forEachVRegRef(I, [&](unsigned V, uint8_t Flags) {
      if ((Flags & RefUse) && !Queued[V]) {
        Queued[V] = 1;
        Worklist.push_back(V);
      }
    });
  }

  /// Step 1: one backward sweep per block from the solved live-out set,
  /// recording the references of every instruction it keeps.
  void sweep(const Liveness &LV) {
    BitVector Live;
    for (unsigned B = 0; B < F.numBlocks(); ++B) {
      const Block &Blk = F.block(B);
      Live.assign(LV.liveOut(B));
      for (unsigned Idx = Blk.size(); Idx-- > 0;) {
        const Instr &I = Blk.instrs()[Idx];
        unsigned Pos = BlockStart[B] + Idx;
        if (isRemovableWhenDead(I) && !Live.test(I.op(0).vregId())) {
          remove(Pos, I);
          continue;
        }
        forEachVRegRef(I, [&](unsigned V, uint8_t Flags) {
          if (Flags & RefUse)
            Live.set(V);
          else
            Live.reset(V);
          Refs.push_back({Pos, B, RefHead[V], Flags});
          RefHead[V] = static_cast<unsigned>(Refs.size() - 1);
        });
      }
    }
  }

  void buildPreds() {
    unsigned NB = F.numBlocks();
    PredStart.assign(NB + 1, 0);
    for (unsigned B = 0; B < NB; ++B)
      for (unsigned I = 0, E = F.block(B).numSuccessors(); I < E; ++I)
        ++PredStart[F.block(B).successor(I) + 1];
    for (unsigned B = 0; B < NB; ++B)
      PredStart[B + 1] += PredStart[B];
    Preds.resize(PredStart.back());
    std::vector<unsigned> Fill(PredStart.begin(), PredStart.end() - 1);
    for (unsigned B = 0; B < NB; ++B)
      for (unsigned I = 0, E = F.block(B).numSuccessors(); I < E; ++I)
        Preds[Fill[F.block(B).successor(I)]++] = B;
    LiveInStamp.assign(NB, 0);
    KillStamp.assign(NB, 0);
  }

  /// Steps 3 and 4 for \p V: its dead definitions, deciding from V's
  /// per-variable liveness only those the rest of their block cannot.
  void retire(unsigned V) {
    // A def followed in its block by a use is live, and one followed by a
    // pure def is dead. Only a def with nothing after it in its block needs
    // to know whether V is live into a successor.
    Pending.clear();
    for (unsigned R = RefHead[V]; R != NoRef; R = Refs[R].Next) {
      const Ref &Rf = Refs[R];
      if (!(Rf.Flags & RefDef) || Removed[Rf.Pos])
        continue;
      const Instr &I = instrAt(Rf);
      if (!isRemovableWhenDead(I))
        continue;
      unsigned Next = Rf.Next;
      while (Next != NoRef && Refs[Next].Block == Rf.Block &&
             Removed[Refs[Next].Pos])
        Next = Refs[Next].Next;
      if (Next == NoRef || Refs[Next].Block != Rf.Block)
        Pending.push_back(R);
      else if (!(Refs[Next].Flags & RefUse))
        remove(Rf.Pos, I);
    }
    if (Pending.empty())
      return;

    // Per-variable liveness: blocks whose first surviving reference to V
    // is a use have V live in; blocks that define V stop the backward walk.
    ++Epoch;
    BlockWork.clear();
    unsigned Cur = ~0u;
    for (unsigned R = RefHead[V]; R != NoRef; R = Refs[R].Next) {
      const Ref &Rf = Refs[R];
      if (Removed[Rf.Pos])
        continue;
      if (Rf.Block != Cur) {
        Cur = Rf.Block;
        if (Rf.Flags & RefUse) {
          LiveInStamp[Cur] = Epoch;
          BlockWork.push_back(Cur);
        }
      }
      if (Rf.Flags & RefDef)
        KillStamp[Cur] = Epoch;
    }
    while (!BlockWork.empty()) {
      unsigned B = BlockWork.back();
      BlockWork.pop_back();
      for (unsigned I = PredStart[B]; I < PredStart[B + 1]; ++I) {
        unsigned P = Preds[I];
        if (LiveInStamp[P] != Epoch && KillStamp[P] != Epoch) {
          LiveInStamp[P] = Epoch;
          BlockWork.push_back(P);
        }
      }
    }

    for (unsigned R : Pending) {
      const Ref &Rf = Refs[R];
      const Block &Blk = F.block(Rf.Block);
      bool Live = false;
      for (unsigned S = 0, E = Blk.numSuccessors(); S < E && !Live; ++S)
        Live = LiveInStamp[Blk.successor(S)] == Epoch;
      if (!Live)
        remove(Rf.Pos, instrAt(Rf));
    }
  }

  /// Drop the removed instructions, keeping the survivors' ids.
  void compact() {
    std::vector<uint32_t> Kept;
    for (unsigned B = 0; B < F.numBlocks(); ++B) {
      const uint8_t *Gone = Removed.data() + BlockStart[B];
      unsigned N = BlockStart[B + 1] - BlockStart[B];
      if (std::find(Gone, Gone + N, 1) == Gone + N)
        continue;
      Block &Blk = F.block(B);
      Kept.clear();
      for (unsigned Idx = 0; Idx < N; ++Idx)
        if (!Gone[Idx])
          Kept.push_back(Blk.instrId(Idx));
      Blk.setInstrIds(Kept);
    }
  }
};

} // namespace

unsigned lsra::eliminateDeadCode(Function &F, const TargetDesc &TD) {
  return DeadCodeElim(F, TD).run();
}

unsigned lsra::eliminateDeadCode(Module &M, const TargetDesc &TD) {
  unsigned Removed = 0;
  for (auto &F : M.functions())
    Removed += eliminateDeadCode(*F, TD);
  return Removed;
}
