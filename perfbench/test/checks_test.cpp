//===- perfbench/test/checks_test.cpp - The checker rejects bad output ----===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// Feeds the benchmark's output checker one good output and, for each check,
// one output corrupted so that the check must reject it. Exit status 0 when
// every expectation holds. Run: .bench_build/perfbench/perfbench-checks-test
// (or `python3 perfbench/run.py --self-test`).
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Inputs.h"

#include "driver/Pipeline.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <sstream>

using namespace lsra;
using namespace perfbench;

namespace {

int Failures = 0;

void expect(bool Ok, const char *What, const std::string &Detail) {
  std::printf("%s  %s%s%s\n", Ok ? "ok  " : "FAIL", What,
              Detail.empty() ? "" : ": ", Detail.c_str());
  if (!Ok)
    ++Failures;
}

/// Index of the start of the first line of \p Text containing \p Needle.
size_t lineWith(const std::string &Text, const std::string &Needle) {
  size_t P = Text.find(Needle);
  if (P == std::string::npos)
    return P;
  size_t S = Text.rfind('\n', P);
  return S == std::string::npos ? 0 : S + 1;
}

std::string lineAt(const std::string &Text, size_t Start) {
  return Text.substr(Start, Text.find('\n', Start) - Start);
}

} // namespace

int main() {
  TargetDesc TD = TargetDesc::alphaLike();
  // eqntott reads its memory image and spills under binpack, so every
  // corruption below has something to bite on.
  std::string Input = printToText(*buildWorkload("eqntott"));
  TextCompileResult C =
      compileTextModule(Input, TD, AllocatorKind::SecondChanceBinpack);
  if (!C.Ok) {
    std::printf("FAIL  compile: %s\n", C.Error.c_str());
    return 1;
  }
  const std::string &Good = C.AllocatedText;
  unsigned Spills = C.Stats.staticSpillInstrs();
  Reference Ref = makeReference(Input, TD);
  expect(Ref.Error.empty(), "reference run", Ref.Error);
  std::string Err = checkOutput(Ref, Good, Spills, TD);
  expect(Err.empty(), "uncorrupted output passes every check", Err);

  // (a) A different initial memory word: the allocation is still provable,
  // but the program computes something else.
  {
    std::string Bad = Good;
    size_t L = lineWith(Bad, "mem 0 ");
    std::istringstream IS(lineAt(Bad, L));
    std::string Kw;
    unsigned long long Addr = 0, Val = 0;
    IS >> Kw >> Addr >> std::hex >> Val;
    std::ostringstream OS;
    OS << "mem 0 0x" << std::hex << (Val + 1);
    Bad.replace(L, lineAt(Bad, L).size(), OS.str());
    Err = checkRun(Ref, parseOutput(Bad), TD);
    expect(!Err.empty(), "(a) run check rejects a changed memory image", Err);
  }
  // (b) A spill store dropped: the later reload reads a stale slot.
  {
    std::string Bad = Good;
    size_t L = lineWith(Bad, "; evict-store");
    Bad.erase(L, lineAt(Bad, L).size() + 1);
    Err = checkProof(Ref, parseOutput(Bad), TD);
    expect(!Err.empty(), "(b) proof check rejects a dropped spill store",
           Err);
  }
  // (c) One spill tag stripped: the instruction stays, the count drifts.
  {
    std::string Bad = Good;
    size_t P = Bad.find("  ; evict-");
    Bad.erase(P, Bad.find('\n', P) - P);
    Err = checkSpillCount(Bad, Spills);
    expect(!Err.empty(), "(c) spill-count check rejects a stripped tag", Err);
  }
  // (d) A repeated reply that differs by one byte from the verified answer.
  {
    std::string Bad = Good;
    Bad[Bad.size() / 2] ^= 1;
    Err = checkSameAnswer(Good, Bad);
    expect(!Err.empty(), "(d) same-answer check rejects a changed reply", Err);
  }
  std::printf("%s\n", Failures ? "checks_test: FAILED" : "checks_test: passed");
  return Failures ? 1 : 0;
}
