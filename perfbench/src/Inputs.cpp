//===- perfbench/src/Inputs.cpp -------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "ir/Printer.h"
#include "workloads/SyntheticModule.h"
#include "workloads/Workloads.h"

#include <sstream>

using namespace lsra;

namespace perfbench {

std::string printToText(const Module &M) {
  std::ostringstream OS;
  printModule(OS, M);
  return OS.str();
}

std::vector<Program> corpusPrograms() {
  std::vector<Program> Out;
  for (const WorkloadSpec &W : allWorkloads())
    Out.push_back({W.Name, printToText(*W.Build())});
  return Out;
}

std::vector<Program> table3Programs() {
  // The three paper-analogue rows of bench/table3_compiletime:
  // {NumProcs, CandidatesPerProc, LiveWindow, BlocksPerProc, Seed}.
  struct Row {
    const char *Name;
    ScaledModuleOptions Opts;
  };
  const Row Rows[] = {
      {"cvrin-like", {4, 245, 8, 6, 11}},
      {"twldrv-like", {1, 6218, 48, 10, 22}},
      {"fpppp-like", {2, 3348, 56, 8, 33}},
  };
  std::vector<Program> Out;
  for (const Row &R : Rows)
    Out.push_back({R.Name, printToText(*buildScaledModule(R.Opts))});
  return Out;
}

uint64_t coldProgramSeed(uint64_t RunSeed, uint64_t I) {
  // Run seeds occupy the high 32 bits, so two runs never share a program
  // and neither meets the quality set (small seeds).
  return ((RunSeed + 1) << 32) + I;
}

} // namespace perfbench
