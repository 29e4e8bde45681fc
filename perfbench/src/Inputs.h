//===- perfbench/src/Inputs.h - Benchmark inputs ---------------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The modules the benchmark feeds the program, always as printed text: the
/// program receives nothing but the text.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include "ir/Module.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Program {
  std::string Name;
  std::string Text;
};

/// Printed IR of \p M.
std::string printToText(const lsra::Module &M);

/// The eleven Table-1 programs (allWorkloads()).
std::vector<Program> corpusPrograms();

/// The cvrin-, twldrv- and fpppp-like modules of bench/table3_compiletime.
std::vector<Program> table3Programs();

/// Seed of the \p I-th cold-serving program of a run started with
/// \p RunSeed. Disjoint from the fixed quality set's seeds (1..N).
uint64_t coldProgramSeed(uint64_t RunSeed, uint64_t I);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
