//===- ir/Opcodes.h - Instruction opcodes ---------------------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Opcode enumeration and static per-opcode metadata for the load/store IR.
/// The IR models an Alpha-like machine: a register is always required for
/// computation; memory is reached only through loads and stores (the paper's
/// §2.2 assumption), and spill code uses dedicated frame-slot opcodes so the
/// VM can attribute dynamic instruction counts to spill categories.
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_IR_OPCODES_H
#define LSRA_IR_OPCODES_H

#include <cstdint>

namespace lsra {

enum class RegClass : uint8_t { Int = 0, Float = 1 };

enum class Opcode : uint8_t {
  // Integer three-address ALU: def, use, use (second use may be immediate).
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  And,
  Or,
  Xor,
  Shl,
  Shr,
  CmpEq,
  CmpNe,
  CmpLt,
  CmpLe,
  CmpGt,
  CmpGe,
  // Integer unary: def, use.
  Neg,
  Not,
  // Floating-point ALU: fp def, fp use, fp use.
  FAdd,
  FSub,
  FMul,
  FDiv,
  // Floating-point unary: fp def, fp use.
  FNeg,
  // Floating-point compares: int def, fp use, fp use.
  FCmpEq,
  FCmpLt,
  FCmpLe,
  // Conversions.
  ItoF, // fp def, int use
  FtoI, // int def, fp use
  // Register moves and constants.
  Mov,  // int def, int use
  FMov, // fp def, fp use
  MovI, // int def, imm
  MovF, // fp def, fimm
  // Global memory (word addressed): address register + immediate offset.
  Ld,  // int def, int addr use, imm off
  St,  // int value use, int addr use, imm off
  FLd, // fp def, int addr use, imm off
  FSt, // fp value use, int addr use, imm off
  // Frame slots (used for spill code, callee-save, and locals).
  LdSlot,  // int def, slot
  StSlot,  // int value use, slot
  FLdSlot, // fp def, slot
  FStSlot, // fp value use, slot
  // Control flow (terminators).
  Br,  // label
  CBr, // int cond use, label, label
  Ret, // optional value use (pre-lowering: vreg; post-lowering: preg)
  // Call: func operand; argument/return registers are implicit operands
  // described by the Instr's CallIntArgs/CallFpArgs/CallRet fields.
  Call,
  // High-level calling-convention pseudo ops. The builder emits these; the
  // LowerCalls pass rewrites them into moves through the Alpha-like
  // argument/return registers. They never reach a register allocator.
  CArg,  // int use, imm arg index
  FCArg, // fp use, imm arg index
  CRes,  // int def (value returned by the preceding call)
  FCRes, // fp def
  // Observable output, used to check semantic equivalence of allocations.
  Emit,  // int use
  FEmit, // fp use
  Nop,
};

constexpr unsigned NumOpcodes = static_cast<unsigned>(Opcode::Nop) + 1;

/// Static description of one opcode's operand layout. Register defs occupy
/// slots [0, NumDefs); register uses occupy [NumDefs, NumDefs + NumUses);
/// remaining slots hold immediates, labels, slots, or function references.
/// A use slot may also hold an immediate (e.g. `add d, a, 4`), and Ret's
/// use slot may be empty.
struct OpcodeInfo {
  const char *Name;
  uint8_t NumDefs;   ///< 0 or 1 register definitions.
  uint8_t NumUses;   ///< Register use slots (some may hold immediates).
  uint8_t FloatMask; ///< Bit i set => register slot i is float-class.
  bool IsTerminator;
};

/// Per-opcode metadata, indexed by Opcode (defined in ir/Instr.cpp).
extern const OpcodeInfo OpcodeInfos[NumOpcodes];

/// Metadata lookup for \p Op. Inline: every pass asks it per operand.
inline const OpcodeInfo &opcodeInfo(Opcode Op) {
  return OpcodeInfos[static_cast<unsigned>(Op)];
}

inline const char *opcodeName(Opcode Op) { return opcodeInfo(Op).Name; }

inline bool isTerminator(Opcode Op) { return opcodeInfo(Op).IsTerminator; }

/// True for the commutative integer ALU opcodes (used by strength-reduction
/// style canonicalisation in the builder and by the random program
/// generator).
bool isCommutative(Opcode Op);

} // namespace lsra

#endif // LSRA_IR_OPCODES_H
