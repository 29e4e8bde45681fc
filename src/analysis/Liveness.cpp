//===- analysis/Liveness.cpp ----------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"

#include "analysis/Order.h"


using namespace lsra;

Liveness::Liveness(const Function &F, const TargetDesc &TD,
                   const std::vector<unsigned> *RPO)
    : NumVRegs(F.numVRegs()), WordsPerSet((F.numVRegs() + 63) / 64) {
  (void)TD;
  unsigned NumBlocks = F.numBlocks();
  const size_t W = WordsPerSet;
  Sets.assign(2 * NumBlocks * W, 0);
  CrossBlock.assign(W, 0);
  auto In = [&](unsigned B) { return Sets.data() + 2 * B * W; };
  auto Out = [&](unsigned B) { return Sets.data() + (2 * B + 1) * W; };

  // Local GEN (upward-exposed uses) and KILL (defs) sets, UseDef[2B] and
  // UseDef[2B + 1].
  std::vector<uint64_t> UseDef(2 * NumBlocks * W, 0);
  for (unsigned B = 0; B < NumBlocks; ++B) {
    uint64_t *Use = UseDef.data() + 2 * B * W;
    uint64_t *Def = Use + W;
    for (const Instr &I : F.block(B).instrs()) {
      forEachUsedReg(I, [&](const Operand &Op) {
        if (!Op.isVReg())
          return;
        unsigned V = Op.vregId();
        uint64_t Bit = uint64_t(1) << (V % 64);
        if (!(Def[V / 64] & Bit))
          Use[V / 64] |= Bit;
      });
      forEachDefinedReg(I, [&](const Operand &Op) {
        if (Op.isVReg())
          Def[Op.vregId() / 64] |= uint64_t(1) << (Op.vregId() % 64);
      });
    }
  }

  // Solve LiveOut(b) = U LiveIn(s); LiveIn(b) = Use(b) | (LiveOut - Def)
  // with a worklist seeded in post-order (the reverse of the entry's
  // reverse post-order). For a backward problem this visits every block
  // after all its successors on acyclic paths, so only blocks reached by a
  // back edge are ever re-queued — unlike whole-CFG sweeps, which recompute
  // every block until an entire pass changes nothing. Predecessor lists are
  // one flat array (CSR); successors come straight from the terminators.
  std::vector<unsigned> PredStart(NumBlocks + 1, 0);
  for (unsigned B = 0; B < NumBlocks; ++B) {
    const Block &Blk = F.block(B);
    for (unsigned I = 0, E = Blk.numSuccessors(); I < E; ++I)
      ++PredStart[Blk.successor(I) + 1];
  }
  for (unsigned B = 0; B < NumBlocks; ++B)
    PredStart[B + 1] += PredStart[B];
  std::vector<unsigned> Preds(PredStart.back());
  {
    std::vector<unsigned> Fill(PredStart.begin(), PredStart.end() - 1);
    for (unsigned B = 0; B < NumBlocks; ++B) {
      const Block &Blk = F.block(B);
      for (unsigned I = 0, E = Blk.numSuccessors(); I < E; ++I)
        Preds[Fill[Blk.successor(I)]++] = B;
    }
  }

  std::vector<unsigned> Order;
  if (!RPO) {
    Order = reversePostOrder(F);
    RPO = &Order;
  }
  assert(RPO->size() == NumBlocks && "stale reverse post-order");

  // FIFO ring: a block is queued at most once at a time, so NumBlocks
  // slots suffice.
  std::vector<unsigned> Ring(NumBlocks);
  std::vector<uint8_t> InWorklist(NumBlocks, 1);
  for (unsigned I = 0; I < NumBlocks; ++I)
    Ring[I] = (*RPO)[NumBlocks - 1 - I];
  unsigned Head = 0, Queued = NumBlocks;

  while (Queued) {
    unsigned B = Ring[Head];
    Head = Head + 1 == NumBlocks ? 0 : Head + 1;
    --Queued;
    InWorklist[B] = 0;
    ++Iterations;

    uint64_t *O = Out(B);
    const Block &Blk = F.block(B);
    for (unsigned I = 0, E = Blk.numSuccessors(); I < E; ++I) {
      const uint64_t *SIn = In(Blk.successor(I));
      for (size_t K = 0; K < W; ++K)
        O[K] |= SIn[K];
    }
    uint64_t *BIn = In(B);
    const uint64_t *Use = UseDef.data() + 2 * B * W;
    const uint64_t *Def = Use + W;
    bool InChanged = false;
    for (size_t K = 0; K < W; ++K) {
      uint64_t New = BIn[K] | Use[K] | (O[K] & ~Def[K]);
      InChanged |= New != BIn[K];
      BIn[K] = New;
    }
    if (!InChanged)
      continue;
    for (unsigned I = PredStart[B]; I < PredStart[B + 1]; ++I) {
      unsigned P = Preds[I];
      if (!InWorklist[P]) {
        InWorklist[P] = 1;
        unsigned Tail = Head + Queued;
        Ring[Tail >= NumBlocks ? Tail - NumBlocks : Tail] = P;
        ++Queued;
      }
    }
  }

  for (size_t Row = 0; Row < 2 * NumBlocks; ++Row)
    for (size_t K = 0; K < W; ++K)
      CrossBlock[K] |= Sets[Row * W + K];
}
