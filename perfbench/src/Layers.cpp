//===- perfbench/src/Layers.cpp -------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "Wire.h"

#include "analysis/AnalysisCache.h"
#include "driver/Pipeline.h"
#include "ir/IRVerifier.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "passes/DCE.h"
#include "passes/Peephole.h"
#include "regalloc/Registry.h"
#include "support/AllocProfile.h"
#include "target/CalleeSave.h"
#include "target/LowerCalls.h"

#include <sstream>

using namespace lsra;

namespace perfbench {

LayerTotals &LayerTotals::operator+=(const LayerTotals &R) {
  ParseS += R.ParseS;
  PrintS += R.PrintS;
  VerifyS += R.VerifyS;
  TextBytes += R.TextBytes;
  ParseAllocs += R.ParseAllocs;
  LowerS += R.LowerS;
  CalleeSavesS += R.CalleeSavesS;
  DceS += R.DceS;
  PeepholeS += R.PeepholeS;
  DceRemoved += R.DceRemoved;
  DceAllocs += R.DceAllocs;
  LivenessS += R.LivenessS;
  LifetimesS += R.LifetimesS;
  LoopsS += R.LoopsS;
  AnalysisAllocs += R.AnalysisAllocs;
  ScanS += R.ScanS;
  ScanAllocs += R.ScanAllocs;
  Stats += R.Stats;
  CompileTextS += R.CompileTextS;
  ReplayS += R.ReplayS;
  Stale += R.Stale;
  return *this;
}

namespace {

/// Times one layer call: adds its seconds to \p Secs and, when \p Allocs is
/// given, its operator-new count.
template <typename Fn>
auto timed(double &Secs, uint64_t *Allocs, Fn &&F) -> decltype(F()) {
  AllocSnapshot A0 = allocSnapshot();
  int64_t T0 = nowNs();
  struct Done {
    double &Secs;
    uint64_t *Allocs;
    AllocSnapshot A0;
    int64_t T0;
    ~Done() {
      Secs += double(nowNs() - T0) * 1e-9;
      if (Allocs)
        *Allocs += (allocSnapshot() - A0).Count;
    }
  } D{Secs, Allocs, A0, T0};
  return F();
}

} // namespace

bool replayLayers(const std::string &Text, const TargetDesc &TD,
                  AllocatorKind K, LayerTotals &Out, std::string &Err) {
  LayerTotals L;
  // The untraced reference: what the offline entry point prints. One call
  // first warms the caches, so that it and the replay start alike.
  TextCompileResult Driver = compileTextModule(Text, TD, K);
  if (!Driver.Ok) {
    Err = "compileTextModule: " + Driver.Error;
    return false;
  }
  int64_t C0 = nowNs();
  Driver = compileTextModule(Text, TD, K);
  L.CompileTextS = double(nowNs() - C0) * 1e-9;

  int64_t R0 = nowNs();
  ParseResult P =
      timed(L.ParseS, &L.ParseAllocs, [&] { return parseModule(Text); });
  if (!P.ok()) {
    Err = "parse: " + P.Error;
    return false;
  }
  Module &M = *P.M;
  std::string Diag = timed(L.VerifyS, nullptr, [&] { return verifyModule(M); });
  if (!Diag.empty()) {
    Err = "verify: " + Diag;
    return false;
  }
  timed(L.LowerS, nullptr, [&] { lowerCalls(M); });
  L.DceRemoved = timed(L.DceS, &L.DceAllocs,
                       [&] { return eliminateDeadCode(M, TD); });

  // allocateFunction, one layer at a time (AllocOptions defaults: peephole
  // and callee saves on, spill cleanup off).
  const AllocatorInfo &Info = AllocatorRegistry::global().info(K);
  AllocOptions AO;
  for (unsigned I = 0; I < M.numFunctions(); ++I) {
    Function &F = M.function(I);
    FunctionAnalyses FA(F, TD);
    if (Info.needs(CapNeedsLiveness))
      timed(L.LivenessS, &L.AnalysisAllocs, [&] { FA.liveness(); });
    if (Info.needs(CapNeedsLifetimes))
      timed(L.LifetimesS, &L.AnalysisAllocs, [&] { FA.lifetimes(); });
    if (Info.needs(CapNeedsLoops))
      timed(L.LoopsS, &L.AnalysisAllocs, [&] { FA.loops(); });
    L.Stats += timed(L.ScanS, &L.ScanAllocs,
                     [&] { return Info.Run(F, TD, AO, FA); });
    FA.invalidate();
    timed(L.PeepholeS, nullptr, [&] { runPeephole(F); });
    timed(L.CalleeSavesS, nullptr, [&] { insertCalleeSaves(F, TD); });
  }
  Diag = timed(L.VerifyS, nullptr, [&] { return checkAllocated(M); });
  if (!Diag.empty()) {
    Err = "post-allocation verify: " + Diag;
    return false;
  }
  std::string Printed = timed(L.PrintS, nullptr, [&] {
    std::ostringstream OS;
    printModule(OS, M);
    return OS.str();
  });
  L.ReplayS = double(nowNs() - R0) * 1e-9;
  L.TextBytes = Text.size() + Printed.size();
  L.Stale = Printed == Driver.AllocatedText ? 0 : 1;
  Out += L;
  return true;
}

} // namespace perfbench
