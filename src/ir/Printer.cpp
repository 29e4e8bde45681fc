//===- ir/Printer.cpp -----------------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// Every printer appends to one std::string, reserved up front from the
// module's size; the std::ostream entry points write that string once.
//
//===----------------------------------------------------------------------===//

#include "ir/Printer.h"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <ostream>

using namespace lsra;

namespace {

/// Buffered appender: text is built in a fixed buffer with plain stores
/// and reaches the output string one append per buffer-full, not one per
/// token.
class TextWriter {
public:
  explicit TextWriter(std::string &Out) : Out(Out) {}
  TextWriter(const TextWriter &) = delete;
  ~TextWriter() { flush(); }

  void put(char C) {
    room(1);
    *P++ = C;
  }
  void put(std::string_view S) {
    if (S.size() > sizeof(Buf) / 2) {
      flush();
      Out.append(S);
      return;
    }
    room(S.size());
    std::memcpy(P, S.data(), S.size());
    P += S.size();
  }
  template <typename T> void num(T V, int Base = 10) {
    room(24);
    P = std::to_chars(P, P + 24, V, Base).ptr;
  }
  /// A double, losslessly (17 significant digits round-trip).
  void real(double D) {
    room(32);
    P += std::snprintf(P, 32, "%.17g", D);
  }
  void flush() {
    Out.append(Buf, static_cast<size_t>(P - Buf));
    P = Buf;
  }

private:
  void room(size_t N) {
    if (static_cast<size_t>(Buf + sizeof(Buf) - P) < N)
      flush();
  }

  std::string &Out;
  char Buf[4096];
  char *P = Buf;
};

const char *retKindName(CallRetKind K) {
  switch (K) {
  case CallRetKind::None:
    return "void";
  case CallRetKind::Int:
    return "int";
  case CallRetKind::Float:
    return "fp";
  }
  return "void";
}

void appendOperand(TextWriter &Out, const Operand &Op, const Module *M) {
  switch (Op.kind()) {
  case Operand::Kind::None:
    Out.put('_');
    break;
  case Operand::Kind::VReg:
    Out.put('%');
    Out.num(Op.vregId());
    break;
  case Operand::Kind::PReg:
    if (pregClass(Op.pregId()) == RegClass::Int) {
      Out.put('$');
      Out.num(Op.pregId());
    } else {
      Out.put("$f");
      Out.num(Op.pregId() - NumIntPRegs);
    }
    break;
  case Operand::Kind::Imm:
    Out.num(Op.immValue());
    break;
  case Operand::Kind::FImm:
    Out.real(Op.fimmValue());
    break;
  case Operand::Kind::Slot:
    Out.put("[s");
    Out.num(Op.slotId());
    Out.put(']');
    break;
  case Operand::Kind::Label:
    Out.put("bb");
    Out.num(Op.labelBlock());
    break;
  case Operand::Kind::Func:
    if (M) {
      Out.put('@');
      Out.put(M->function(Op.funcId()).name());
    } else {
      Out.put("@f");
      Out.num(Op.funcId());
    }
    break;
  }
}

void appendInstr(TextWriter &Out, const Instr &I, const Module *M) {
  Out.put(opcodeName(I.opcode()));
  bool First = true;
  for (unsigned OpIdx = 0; OpIdx < 3; ++OpIdx) {
    const Operand &Op = I.op(OpIdx);
    if (Op.isNone())
      continue;
    Out.put(First ? " " : ", ");
    First = false;
    appendOperand(Out, Op, M);
  }
  if (I.isCall()) {
    Out.put("  (iargs=");
    Out.num(unsigned(I.CallIntArgs));
    Out.put(" fargs=");
    Out.num(unsigned(I.CallFpArgs));
    Out.put(')');
  }
  if (I.Spill != SpillKind::None) {
    Out.put("  ; ");
    Out.put(spillKindName(I.Spill));
  }
}

void appendFunction(TextWriter &Out, const Function &F, const Module *M) {
  Out.put("func ");
  Out.put(F.name());
  Out.put(" (iparams=");
  Out.num(F.IntParamVRegs.size());
  Out.put(" fparams=");
  Out.num(F.FpParamVRegs.size());
  Out.put(" ret=");
  Out.put(retKindName(F.RetKind));
  Out.put(" vregs=");
  Out.num(F.numVRegs());
  Out.put(" slots=");
  Out.num(F.numSlots());
  Out.put(F.CallsLowered ? " lowered)\n" : ")\n");
  // Declarations the textual form needs for a lossless round trip: vreg
  // and slot register classes (fp ids only; everything else is int), and
  // parameter vreg bindings.
  bool AnyFp = false;
  for (unsigned V = 0; V < F.numVRegs() && !AnyFp; ++V)
    AnyFp = F.vregClass(V) == RegClass::Float;
  if (AnyFp) {
    Out.put("  fpvregs:");
    for (unsigned V = 0; V < F.numVRegs(); ++V)
      if (F.vregClass(V) == RegClass::Float) {
        Out.put(" %");
        Out.num(V);
      }
    Out.put('\n');
  }
  bool AnyFpSlot = false;
  for (unsigned S = 0; S < F.numSlots() && !AnyFpSlot; ++S)
    AnyFpSlot = F.slotClass(S) == RegClass::Float;
  if (AnyFpSlot) {
    Out.put("  fpslots:");
    for (unsigned S = 0; S < F.numSlots(); ++S)
      if (F.slotClass(S) == RegClass::Float) {
        Out.put(" s");
        Out.num(S);
      }
    Out.put('\n');
  }
  if (!F.IntParamVRegs.empty() || !F.FpParamVRegs.empty()) {
    Out.put("  params:");
    for (const auto *Vs : {&F.IntParamVRegs, &F.FpParamVRegs})
      for (unsigned V : *Vs) {
        Out.put(" %");
        Out.num(V);
      }
    Out.put('\n');
  }
  for (const Block &B : F.blocks()) {
    Out.put("bb");
    Out.num(B.id());
    Out.put(" (");
    Out.put(B.name());
    Out.put("):\n");
    for (const Instr &I : B.instrs()) {
      Out.put("  ");
      appendInstr(Out, I, M);
      Out.put('\n');
    }
  }
}

/// Bytes a function's text is expected to need: about 32 per instruction
/// line, plus the header, the declarations and the block labels.
size_t estimateSize(const Function &F) {
  size_t N = 128 + F.name().size() + 6 * size_t(F.numVRegs() + F.numSlots());
  for (const Block &B : F.blocks())
    N += 16 + B.name().size() + 32 * size_t(B.size());
  return N;
}

} // namespace

void lsra::printInstr(std::ostream &OS, const Instr &I, const Function &F,
                      const Module *M) {
  std::string S = toString(I, F, M);
  OS.write(S.data(), static_cast<std::streamsize>(S.size()));
}

void lsra::printFunction(std::ostream &OS, const Function &F,
                         const Module *M) {
  std::string S = toString(F, M);
  OS.write(S.data(), static_cast<std::streamsize>(S.size()));
}

void lsra::printModule(std::ostream &OS, const Module &M) {
  std::string S = toString(M);
  OS.write(S.data(), static_cast<std::streamsize>(S.size()));
}

std::string lsra::toString(const Module &M) {
  // "mem ADDR 0xVALUE\n" lines are sized exactly: a program's memory image
  // can be most of its text.
  size_t Size = 64;
  for (unsigned A = 0; A < M.InitialMemory.size(); ++A)
    if (uint64_t W = M.InitialMemory[A]) {
      char Buf[16];
      size_t AddrDigits = std::to_chars(Buf, Buf + sizeof(Buf), A).ptr - Buf;
      Size += 8 + AddrDigits + (67 - __builtin_clzll(W)) / 4;
    }
  for (const auto &F : M.functions())
    Size += estimateSize(*F);
  std::string Out;
  Out.reserve(Size);
  TextWriter W(Out);
  // Sparse initial-memory image.
  for (unsigned A = 0; A < M.InitialMemory.size(); ++A)
    if (M.InitialMemory[A] != 0) {
      W.put("mem ");
      W.num(A);
      W.put(" 0x");
      W.num(M.InitialMemory[A], 16);
      W.put('\n');
    }
  if (!M.InitialMemory.empty()) {
    W.put("memsize ");
    W.num(M.InitialMemory.size());
    W.put("\n\n");
  }
  for (const auto &F : M.functions()) {
    appendFunction(W, *F, &M);
    W.put('\n');
  }
  W.flush();
  return Out;
}

std::string lsra::toString(const Function &F, const Module *M) {
  std::string Out;
  Out.reserve(estimateSize(F));
  TextWriter W(Out);
  appendFunction(W, F, M);
  W.flush();
  return Out;
}

std::string lsra::toString(const Instr &I, const Function &F,
                           const Module *M) {
  (void)F;
  std::string Out;
  TextWriter W(Out);
  appendInstr(W, I, M);
  W.flush();
  return Out;
}

void lsra::printDotCFG(std::ostream &OS, const Function &F, const Module *M) {
  std::string Out = "digraph \"" + F.name() + "\" {\n";
  Out += "  node [shape=box fontname=\"monospace\"];\n";
  for (const Block &B : F.blocks()) {
    Out += "  bb" + std::to_string(B.id()) + " [label=\"bb" +
           std::to_string(B.id()) + " (" + B.name() + ")\\l";
    for (const Instr &I : B.instrs()) {
      // Escape characters dot treats specially inside labels.
      Out += "  ";
      for (char C : toString(I, F, M)) {
        if (C == '"' || C == '\\')
          Out += '\\';
        Out += C;
      }
      Out += "\\l";
    }
    Out += "\"];\n";
    for (unsigned S : B.successors())
      Out += "  bb" + std::to_string(B.id()) + " -> bb" + std::to_string(S) +
             ";\n";
  }
  Out += "}\n";
  OS.write(Out.data(), static_cast<std::streamsize>(Out.size()));
}
