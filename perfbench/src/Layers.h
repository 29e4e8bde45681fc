//===- perfbench/src/Layers.h - Layer-by-layer traced replay ---*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's offline half. It replays what compileTextModule does
/// (default options, one thread, no cache) by calling each src/ layer's
/// public entry point in turn, timing every call and counting its heap
/// allocations. The replay must print the same bytes as compileTextModule
/// on the same input; when it does not, its numbers describe some other
/// pipeline and are reported as stale.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "regalloc/Allocator.h"

#include <cstdint>
#include <string>

namespace perfbench {

/// Busy time (seconds) and work counts of one replay, summed over inputs.
struct LayerTotals {
  // ir
  double ParseS = 0, PrintS = 0, VerifyS = 0;
  uint64_t TextBytes = 0, ParseAllocs = 0;
  // target
  double LowerS = 0, CalleeSavesS = 0;
  // passes
  double DceS = 0, PeepholeS = 0;
  uint64_t DceRemoved = 0, DceAllocs = 0;
  // analysis
  double LivenessS = 0, LifetimesS = 0, LoopsS = 0;
  uint64_t AnalysisAllocs = 0;
  // regalloc (the backend's Run entry point)
  double ScanS = 0;
  uint64_t ScanAllocs = 0;
  lsra::AllocStats Stats;
  // driver
  double CompileTextS = 0; ///< untraced compileTextModule on the same input
  double ReplayS = 0;      ///< wall time of the traced replay itself
  unsigned Stale = 0;      ///< inputs whose replay differs from the driver

  double layerSum() const {
    return ParseS + PrintS + VerifyS + LowerS + CalleeSavesS + DceS +
           PeepholeS + LivenessS + LifetimesS + LoopsS + ScanS;
  }
  LayerTotals &operator+=(const LayerTotals &R);
};

/// Replay one compile of \p Text with backend \p K layer by layer, and time
/// compileTextModule on the same text. Returns false (with \p Err) when the
/// input does not compile at all.
bool replayLayers(const std::string &Text, const lsra::TargetDesc &TD,
                  lsra::AllocatorKind K, LayerTotals &Out, std::string &Err);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
