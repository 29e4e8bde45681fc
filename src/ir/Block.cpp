//===- ir/Block.cpp -------------------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Block.h"

using namespace lsra;

std::vector<unsigned> Block::successors() const {
  std::vector<unsigned> Succs(numSuccessors());
  for (unsigned I = 0; I < Succs.size(); ++I)
    Succs[I] = successor(I);
  return Succs;
}

void Block::replaceSuccessor(unsigned OldId, unsigned NewId) {
  assert(hasTerminator() && "block has no terminator");
  Instr &T = Pool->get(Ids.back());
  for (unsigned I = 0; I < 3; ++I)
    if (T.op(I).isLabel() && T.op(I).labelBlock() == OldId)
      T.op(I) = Operand::label(NewId);
}
