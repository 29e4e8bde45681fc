//===- ir/Instr.cpp - Opcode metadata table -------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Instr.h"

using namespace lsra;

// Name, NumDefs, NumUses, FloatMask, IsTerminator.
// Register defs occupy slots [0, NumDefs); uses [NumDefs, NumDefs+NumUses).
const OpcodeInfo lsra::OpcodeInfos[NumOpcodes] = {
    /* Add    */ {"add", 1, 2, 0b000, false},
    /* Sub    */ {"sub", 1, 2, 0b000, false},
    /* Mul    */ {"mul", 1, 2, 0b000, false},
    /* Div    */ {"div", 1, 2, 0b000, false},
    /* Rem    */ {"rem", 1, 2, 0b000, false},
    /* And    */ {"and", 1, 2, 0b000, false},
    /* Or     */ {"or", 1, 2, 0b000, false},
    /* Xor    */ {"xor", 1, 2, 0b000, false},
    /* Shl    */ {"shl", 1, 2, 0b000, false},
    /* Shr    */ {"shr", 1, 2, 0b000, false},
    /* CmpEq  */ {"cmpeq", 1, 2, 0b000, false},
    /* CmpNe  */ {"cmpne", 1, 2, 0b000, false},
    /* CmpLt  */ {"cmplt", 1, 2, 0b000, false},
    /* CmpLe  */ {"cmple", 1, 2, 0b000, false},
    /* CmpGt  */ {"cmpgt", 1, 2, 0b000, false},
    /* CmpGe  */ {"cmpge", 1, 2, 0b000, false},
    /* Neg    */ {"neg", 1, 1, 0b000, false},
    /* Not    */ {"not", 1, 1, 0b000, false},
    /* FAdd   */ {"fadd", 1, 2, 0b111, false},
    /* FSub   */ {"fsub", 1, 2, 0b111, false},
    /* FMul   */ {"fmul", 1, 2, 0b111, false},
    /* FDiv   */ {"fdiv", 1, 2, 0b111, false},
    /* FNeg   */ {"fneg", 1, 1, 0b011, false},
    /* FCmpEq */ {"fcmpeq", 1, 2, 0b110, false},
    /* FCmpLt */ {"fcmplt", 1, 2, 0b110, false},
    /* FCmpLe */ {"fcmple", 1, 2, 0b110, false},
    /* ItoF   */ {"itof", 1, 1, 0b001, false},
    /* FtoI   */ {"ftoi", 1, 1, 0b010, false},
    /* Mov    */ {"mov", 1, 1, 0b000, false},
    /* FMov   */ {"fmov", 1, 1, 0b011, false},
    /* MovI   */ {"movi", 1, 0, 0b000, false},
    /* MovF   */ {"movf", 1, 0, 0b001, false},
    /* Ld     */ {"ld", 1, 1, 0b000, false},
    /* St     */ {"st", 0, 2, 0b000, false},
    /* FLd    */ {"fld", 1, 1, 0b001, false},
    /* FSt    */ {"fst", 0, 2, 0b001, false},
    /* LdSlot */ {"ldslot", 1, 0, 0b000, false},
    /* StSlot */ {"stslot", 0, 1, 0b000, false},
    /* FLdSlot*/ {"fldslot", 1, 0, 0b001, false},
    /* FStSlot*/ {"fstslot", 0, 1, 0b001, false},
    /* Br     */ {"br", 0, 0, 0b000, true},
    /* CBr    */ {"cbr", 0, 1, 0b000, true},
    /* Ret    */ {"ret", 0, 1, 0b000, true},
    /* Call   */ {"call", 0, 0, 0b000, false},
    /* CArg   */ {"carg", 0, 1, 0b000, false},
    /* FCArg  */ {"fcarg", 0, 1, 0b001, false},
    /* CRes   */ {"cres", 1, 0, 0b000, false},
    /* FCRes  */ {"fcres", 1, 0, 0b001, false},
    /* Emit   */ {"emit", 0, 1, 0b000, false},
    /* FEmit  */ {"femit", 0, 1, 0b001, false},
    /* Nop    */ {"nop", 0, 0, 0b000, false},
};

bool lsra::isCommutative(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
  case Opcode::Mul:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::CmpEq:
  case Opcode::CmpNe:
  case Opcode::FAdd:
  case Opcode::FMul:
  case Opcode::FCmpEq:
    return true;
  default:
    return false;
  }
}

const char *lsra::spillKindName(SpillKind K) {
  switch (K) {
  case SpillKind::None:
    return "none";
  case SpillKind::EvictLoad:
    return "evict-load";
  case SpillKind::EvictStore:
    return "evict-store";
  case SpillKind::EvictMove:
    return "evict-move";
  case SpillKind::ResolveLoad:
    return "resolve-load";
  case SpillKind::ResolveStore:
    return "resolve-store";
  case SpillKind::ResolveMove:
    return "resolve-move";
  case SpillKind::CalleeSave:
    return "callee-save";
  case SpillKind::CalleeRestore:
    return "callee-restore";
  }
  return "unknown";
}
