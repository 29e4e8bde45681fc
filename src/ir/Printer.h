//===- ir/Printer.h - Textual IR dump -------------------------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Human-readable dumps of instructions, functions, and modules: the
/// textual IR that ir/Parser.h reads back, used by the compile service, the
/// examples and test failure diagnostics. Each form is built by appending
/// to one std::string; the std::ostream overloads write that string.
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_IR_PRINTER_H
#define LSRA_IR_PRINTER_H

#include "ir/Module.h"

#include <iosfwd>
#include <string>

namespace lsra {

/// Print one instruction (no trailing newline). Spill-category tags are
/// shown as trailing comments so allocator output is self-describing.
void printInstr(std::ostream &OS, const Instr &I, const Function &F,
                const Module *M = nullptr);

/// Print a whole function.
void printFunction(std::ostream &OS, const Function &F,
                   const Module *M = nullptr);

/// Print a whole module.
void printModule(std::ostream &OS, const Module &M);

/// The printed module as one string (what printModule writes).
std::string toString(const Module &M);

/// Convenience: function dump as a string (tests use this).
std::string toString(const Function &F, const Module *M = nullptr);

/// Convenience: single-instruction dump as a string.
std::string toString(const Instr &I, const Function &F,
                     const Module *M = nullptr);

/// Emit the function's CFG in Graphviz dot format (one node per block with
/// its instructions; edges follow the terminators).
void printDotCFG(std::ostream &OS, const Function &F,
                 const Module *M = nullptr);

} // namespace lsra

#endif // LSRA_IR_PRINTER_H
