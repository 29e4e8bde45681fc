//===- perfbench/src/Checks.h - Output checks for the benchmark -*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every output the benchmark receives from the program is checked against
/// a computation made apart from the allocator, outside the timed window:
///
///   (a) run:    the allocated module's VM output trace and return value
///               equal a VM run of the unallocated module (virtual
///               registers, `runReference`);
///   (b) proof:  `check::verifyAllocation` proves the allocation against the
///               lowered, DCE'd input;
///   (c) spills: the allocator's own static spill count equals the number of
///               `; evict-*` / `; resolve-*` tags in the output text;
///   (d) same:   a repeated (cache-hit) reply equals the verified answer for
///               its program, byte for byte.
///
/// Each check returns an empty string when it passes, else a diagnostic.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "ir/Module.h"
#include "target/Target.h"
#include "vm/VM.h"

#include <cstdint>
#include <memory>
#include <string>

namespace perfbench {

/// What an input computes, from the unallocated module.
struct Reference {
  std::string Error;                   ///< non-empty when unusable
  std::unique_ptr<lsra::Module> Lowered; ///< the input after lowering + DCE
  lsra::RunResult Run;                 ///< VM run with virtual registers
};

/// Parse \p InputText and run it on the VM with virtual registers.
Reference makeReference(const std::string &InputText,
                        const lsra::TargetDesc &TD);

/// Same, from an already built module (consumed: it is lowered in place).
Reference makeReference(std::unique_ptr<lsra::Module> M,
                        const lsra::TargetDesc &TD);

/// The paper's code-quality counts for one allocated module.
struct Quality {
  uint64_t DynInstrs = 0;      ///< dynamic instructions executed on the VM
  uint64_t DynSpillInstrs = 0; ///< the evict/resolve part of DynInstrs
  uint64_t CodeInstrs = 0;     ///< static instructions, memory image excluded

  Quality &operator+=(const Quality &R) {
    DynInstrs += R.DynInstrs;
    DynSpillInstrs += R.DynSpillInstrs;
    CodeInstrs += R.CodeInstrs;
    return *this;
  }
};

/// A parsed allocated output, shared by the individual checks.
struct Output {
  std::string Error; ///< parse/structure diagnostic; non-empty = unusable
  std::unique_ptr<lsra::Module> M;
};
Output parseOutput(const std::string &AllocText);

/// (a) VM trace and return value of \p Out equal \p Ref's. Fills \p Q.
std::string checkRun(const Reference &Ref, const Output &Out,
                     const lsra::TargetDesc &TD, Quality *Q = nullptr);
/// (b) translation validation of \p Out against \p Ref's lowered input.
std::string checkProof(const Reference &Ref, const Output &Out,
                       const lsra::TargetDesc &TD);
/// (c) \p ClaimedStaticSpills equals the spill tags in \p AllocText.
std::string checkSpillCount(const std::string &AllocText,
                            unsigned ClaimedStaticSpills);
/// (d) \p Got is byte-identical to the verified answer \p Verified.
std::string checkSameAnswer(const std::string &Verified,
                            const std::string &Got);

/// Checks (a), (b) and (c) in that order; the first failure wins. With
/// \p Prove false, (b) is skipped.
std::string checkOutput(const Reference &Ref, const std::string &AllocText,
                        unsigned ClaimedStaticSpills,
                        const lsra::TargetDesc &TD, Quality *Q = nullptr,
                        bool Prove = true);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
