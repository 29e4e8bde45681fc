//===- perfbench/src/Checks.cpp -------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include "check/Verifier.h"
#include "driver/Pipeline.h"
#include "ir/IRVerifier.h"
#include "ir/Parser.h"

using namespace lsra;

namespace perfbench {

Reference makeReference(std::unique_ptr<Module> M, const TargetDesc &TD) {
  Reference R;
  if (!M) {
    R.Error = "no input module";
    return R;
  }
  std::string Diag = verifyModule(*M);
  if (!Diag.empty()) {
    R.Error = "input does not verify: " + Diag;
    return R;
  }
  // runReference lowers calls and runs DCE in place, so afterwards the
  // module is exactly what the allocator consumed.
  R.Run = runReference(*M, TD);
  if (!R.Run.Ok)
    R.Error = "reference run failed: " + R.Run.Error;
  R.Lowered = std::move(M);
  return R;
}

Reference makeReference(const std::string &InputText, const TargetDesc &TD) {
  ParseResult P = parseModule(InputText);
  if (!P.ok()) {
    Reference R;
    R.Error = "input does not parse: " + P.Error;
    return R;
  }
  return makeReference(std::move(P.M), TD);
}

Output parseOutput(const std::string &AllocText) {
  Output O;
  ParseResult P = parseModule(AllocText);
  if (!P.ok()) {
    O.Error = "output does not parse: line " + std::to_string(P.ErrLine) +
              ": " + P.Error;
    return O;
  }
  std::string Diag = checkAllocated(*P.M);
  if (!Diag.empty()) {
    O.Error = "output is not fully allocated: " + Diag;
    return O;
  }
  O.M = std::move(P.M);
  return O;
}

std::string checkRun(const Reference &Ref, const Output &Out,
                     const TargetDesc &TD, Quality *Q) {
  if (!Ref.Error.empty())
    return Ref.Error;
  if (!Out.Error.empty())
    return Out.Error;
  RunResult Got = runAllocated(*Out.M, TD);
  if (!Got.Ok)
    return "allocated run failed: " + Got.Error;
  if (Got.ReturnValue != Ref.Run.ReturnValue)
    return "return value " + std::to_string(Got.ReturnValue) + " != " +
           std::to_string(Ref.Run.ReturnValue);
  if (Got.Output != Ref.Run.Output)
    return "output trace differs (" + std::to_string(Got.Output.size()) +
           " vs " + std::to_string(Ref.Run.Output.size()) + " values)";
  if (Q) {
    Q->DynInstrs = Got.Stats.Total;
    Q->DynSpillInstrs = Got.Stats.spillInstrs();
    Q->CodeInstrs = 0;
    for (unsigned F = 0; F < Out.M->numFunctions(); ++F)
      Q->CodeInstrs += Out.M->function(F).numInstrs();
  }
  return "";
}

std::string checkProof(const Reference &Ref, const Output &Out,
                       const TargetDesc &TD) {
  if (!Ref.Error.empty())
    return Ref.Error;
  if (!Out.Error.empty())
    return Out.Error;
  check::VerifyAllocResult VR =
      check::verifyAllocation(*Ref.Lowered, *Out.M, TD);
  return VR.ok() ? "" : "allocation proof failed: " + VR.str();
}

/// Number of `; evict-*` and `; resolve-*` tags in printed IR.
static unsigned countSpillTags(const std::string &Text) {
  unsigned N = 0;
  for (const char *Tag : {"; evict-", "; resolve-"})
    for (size_t Pos = Text.find(Tag); Pos != std::string::npos;
         Pos = Text.find(Tag, Pos + 1))
      ++N;
  return N;
}

std::string checkSpillCount(const std::string &AllocText,
                            unsigned ClaimedStaticSpills) {
  unsigned Tags = countSpillTags(AllocText);
  if (Tags == ClaimedStaticSpills)
    return "";
  return "allocator reports " + std::to_string(ClaimedStaticSpills) +
         " static spill instructions, output carries " +
         std::to_string(Tags) + " spill tags";
}

std::string checkSameAnswer(const std::string &Verified,
                            const std::string &Got) {
  if (Got == Verified)
    return "";
  size_t I = 0;
  while (I < Got.size() && I < Verified.size() && Got[I] == Verified[I])
    ++I;
  return "reply differs from the verified answer at byte " +
         std::to_string(I);
}

std::string checkOutput(const Reference &Ref, const std::string &AllocText,
                        unsigned ClaimedStaticSpills, const TargetDesc &TD,
                        Quality *Q, bool Prove) {
  Output Out = parseOutput(AllocText);
  std::string Err = checkRun(Ref, Out, TD, Q);
  if (Err.empty() && Prove)
    Err = checkProof(Ref, Out, TD);
  if (Err.empty())
    Err = checkSpillCount(AllocText, ClaimedStaticSpills);
  return Err;
}

} // namespace perfbench
