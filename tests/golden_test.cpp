//===- tests/golden_test.cpp - Byte-identity of printed and allocated text -===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// Pins the exact bytes the text pipeline produces. For every Table-1
// workload the printed input and the allocated output of each registry
// backend (compileTextModule: parse, DCE, allocate, print) are hashed; so
// are the three Table-3 modules under second-chance binpack and the EBB
// tier-0 output of buildRandomProgram(1..40). The expected FNV-1a digests
// live in tests/golden/text_digests.txt, one "name digest" line each. The
// parser, the printer and DCE may be rewritten for speed, but not change a
// byte of what they produce. On a mismatch the test prints every actual
// line in the file's format.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "ir/Printer.h"
#include "regalloc/Registry.h"
#include "workloads/RandomProgram.h"
#include "workloads/SyntheticModule.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

using namespace lsra;

namespace {

std::string fnv1a(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, H);
  return Buf;
}

std::string printed(const Module &M) {
  std::ostringstream OS;
  printModule(OS, M);
  return OS.str();
}

/// Digest of the allocated text, or the error when the compile fails.
std::string allocatedDigest(const std::string &Text, AllocatorKind K) {
  TextCompileResult R = compileTextModule(Text, TargetDesc::alphaLike(), K);
  return R.Ok ? fnv1a(R.AllocatedText) : "error:" + R.Error;
}

std::map<std::string, std::string> actualDigests() {
  std::map<std::string, std::string> D;
  for (const WorkloadSpec &W : allWorkloads()) {
    std::string Text = printed(*W.Build());
    D[std::string("input/") + W.Name] = fnv1a(Text);
    for (AllocatorKind K : AllocatorRegistry::global().kinds())
      D[std::string("alloc/") + W.Name + "/" + allocatorName(K)] =
          allocatedDigest(Text, K);
  }
  const std::pair<const char *, ScaledModuleOptions> Table3[] = {
      {"cvrin-like", {4, 245, 8, 6, 11}},
      {"twldrv-like", {1, 6218, 48, 10, 22}},
      {"fpppp-like", {2, 3348, 56, 8, 33}},
  };
  for (const auto &[Name, Opts] : Table3) {
    std::string Text = printed(*buildScaledModule(Opts));
    D[std::string("input/") + Name] = fnv1a(Text);
    D[std::string("alloc/") + Name + "/binpack"] =
        allocatedDigest(Text, AllocatorKind::SecondChanceBinpack);
  }
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    std::string Text = printed(*buildRandomProgram(Seed));
    char Name[32];
    std::snprintf(Name, sizeof(Name), "random%02" PRIu64, Seed);
    D[std::string("input/") + Name] = fnv1a(Text);
    D[std::string("alloc/") + Name + "/ebb"] =
        allocatedDigest(Text, AllocatorKind::EbbScan);
  }
  return D;
}

TEST(GoldenText, DigestsMatchRecordedBytes) {
  std::ifstream In(LSRA_GOLDEN_DIGESTS);
  ASSERT_TRUE(In) << "cannot open " << LSRA_GOLDEN_DIGESTS;
  std::map<std::string, std::string> Expected;
  std::string Name, Digest;
  while (In >> Name >> Digest)
    Expected[Name] = Digest;

  std::map<std::string, std::string> Actual = actualDigests();
  EXPECT_EQ(Actual.size(), Expected.size());
  std::string Dump;
  for (const auto &[N, Got] : Actual) {
    auto It = Expected.find(N);
    EXPECT_TRUE(It != Expected.end() && It->second == Got)
        << N << ": expected "
        << (It == Expected.end() ? "<missing>" : It->second) << ", got "
        << Got;
    Dump += N + " " + Got + "\n";
  }
  if (HasFailure())
    std::printf("actual digests:\n%s", Dump.c_str());
}

} // namespace
