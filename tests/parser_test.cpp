//===- tests/parser_test.cpp - Textual IR round trips ----------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "ir/IRVerifier.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace lsra;

namespace {

std::string moduleText(const Module &M) {
  std::ostringstream OS;
  printModule(OS, M);
  return OS.str();
}

TEST(Parser, ParsesHandWrittenFunction) {
  const char *Text = R"(func main (iparams=0 fparams=0 ret=int vregs=3 slots=0)
bb0 (entry):
  movi %0, 41
  add %1, %0, 1
  emit %1
  movi %2, 0
  ret %2
)";
  ParseResult R = parseModule(Text);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(verifyModule(*R.M), "");
  TargetDesc TD = TargetDesc::alphaLike();
  RunResult Run = runReference(*R.M, TD);
  ASSERT_TRUE(Run.Ok) << Run.Error;
  ASSERT_EQ(Run.Output.size(), 1u);
  EXPECT_EQ(Run.Output[0], 42u);
}

TEST(Parser, ParsesControlFlowAndFloats) {
  const char *Text = R"(func main (iparams=0 fparams=0 ret=int vregs=5 slots=0)
  fpvregs: %1 %2
bb0 (entry):
  movi %0, 1
  movf %1, 2.5
  fadd %2, %1, %1
  femit %2
  cbr %0, bb1, bb2
bb1 (t):
  movi %3, 0
  ret %3
bb2 (f):
  movi %4, 1
  ret %4
)";
  ParseResult R = parseModule(Text);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(verifyModule(*R.M), "");
  EXPECT_EQ(R.M->function(0).vregClass(1), RegClass::Float);
  EXPECT_EQ(R.M->function(0).numBlocks(), 3u);
  TargetDesc TD = TargetDesc::alphaLike();
  RunResult Run = runReference(*R.M, TD);
  ASSERT_TRUE(Run.Ok);
  double D;
  __builtin_memcpy(&D, &Run.Output[0], sizeof(D));
  EXPECT_DOUBLE_EQ(D, 5.0);
  EXPECT_EQ(Run.ReturnValue, 0);
}

TEST(Parser, ParsesCallsAndMemory) {
  const char *Text = R"(mem 3 0x2a
memsize 16

func double (iparams=1 fparams=0 ret=int vregs=2 slots=0)
  params: %0
bb0 (entry):
  add %1, %0, %0
  ret %1

func main (iparams=0 fparams=0 ret=int vregs=4 slots=0)
bb0 (entry):
  movi %0, 0
  ld %1, %0, 3
  carg %1, 0
  call @double  (iargs=1 fargs=0)
  cres %2
  emit %2
  movi %3, 0
  ret %3
)";
  ParseResult R = parseModule(Text);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.M->numFunctions(), 2u);
  EXPECT_EQ(R.M->InitialMemory.size(), 16u);
  TargetDesc TD = TargetDesc::alphaLike();
  RunResult Run = runReference(*R.M, TD);
  ASSERT_TRUE(Run.Ok) << Run.Error;
  EXPECT_EQ(Run.Output[0], 84u);
}

TEST(Parser, ReportsErrors) {
  EXPECT_FALSE(parseModule("func f (iparams=0)\nbb0 (e):\n  ret\n").ok());
  EXPECT_FALSE(parseModule("bogus line\n").ok());
  ParseResult R = parseModule(
      "func f (iparams=0 fparams=0 ret=void vregs=0 slots=0)\n"
      "bb0 (e):\n  frobnicate %0\n");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("unknown opcode"), std::string::npos);
  ParseResult R2 = parseModule(
      "func f (iparams=0 fparams=0 ret=void vregs=1 slots=0)\n"
      "bb0 (e):\n  carg %0, 0\n  call @nosuch  (iargs=1 fargs=0)\n"
      "  ret\n");
  ASSERT_FALSE(R2.ok());
  EXPECT_NE(R2.Error.find("unknown call target"), std::string::npos);
}

class WorkloadRoundTrip : public testing::TestWithParam<const char *> {};

TEST_P(WorkloadRoundTrip, PrintParsePrintIsStable) {
  auto M = buildWorkload(GetParam());
  std::string Once = moduleText(*M);
  ParseResult R = parseModule(Once);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(moduleText(*R.M), Once);
}

TEST_P(WorkloadRoundTrip, ParsedModuleRunsIdentically) {
  TargetDesc TD = TargetDesc::alphaLike();
  auto M = buildWorkload(GetParam());
  ParseResult R = parseModule(moduleText(*M));
  ASSERT_TRUE(R.ok()) << R.Error;
  RunResult A = runReference(*M, TD);
  RunResult B = runReference(*R.M, TD);
  ASSERT_TRUE(A.Ok && B.Ok);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.Stats.Total, B.Stats.Total);
}

INSTANTIATE_TEST_SUITE_P(
    All, WorkloadRoundTrip,
    testing::Values("alvinn", "doduc", "eqntott", "espresso", "fpppp", "li",
                    "tomcatv", "compress", "m88ksim", "sort", "wc"),
    [](const testing::TestParamInfo<const char *> &Info) {
      return std::string(Info.param);
    });

TEST(Parser, AllocatedCodeRoundTrips) {
  // Post-allocation code (physical registers, slots, spill tags, lowered
  // calls, callee saves) must survive the text form too.
  TargetDesc TD = TargetDesc::alphaLike();
  auto M = buildWorkload("fpppp");
  compileModule(*M, TD, AllocatorKind::SecondChanceBinpack);
  std::string Once = moduleText(*M);
  ParseResult R = parseModule(Once);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(moduleText(*R.M), Once);
  RunResult A = runAllocated(*M, TD);
  RunResult B = runAllocated(*R.M, TD);
  ASSERT_TRUE(A.Ok && B.Ok);
  EXPECT_EQ(A.Output, B.Output);
  // Spill tags survive, so the dynamic accounting matches exactly.
  EXPECT_EQ(A.Stats.spillInstrs(), B.Stats.spillInstrs());
}

TEST(Parser, RandomProgramsRoundTrip) {
  for (uint64_t Seed = 70; Seed < 80; ++Seed) {
    auto M = buildRandomProgram(Seed);
    std::string Once = moduleText(*M);
    ParseResult R = parseModule(Once);
    ASSERT_TRUE(R.ok()) << "seed " << Seed << ": " << R.Error;
    EXPECT_EQ(moduleText(*R.M), Once) << "seed " << Seed;
  }
}

// Negative inputs: the parser must report the line, column, and offending
// token of the first error — this is what the compile server forwards to
// clients in typed Error responses.
TEST(ParserDiagnostics, UnknownOpcodePosition) {
  ParseResult R = parseModule(
      "func f (iparams=0 fparams=0 ret=void vregs=1 slots=0)\n"
      "bb0 (entry):\n"
      "  frobnicate %0, 1\n");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.ErrLine, 3u);
  EXPECT_EQ(R.ErrCol, 3u); // two-space indent, token starts at column 3
  EXPECT_EQ(R.ErrToken, "frobnicate");
  EXPECT_NE(R.Error.find("line 3"), std::string::npos) << R.Error;
  EXPECT_NE(R.Error.find("col 3"), std::string::npos) << R.Error;
  EXPECT_NE(R.Error.find("frobnicate"), std::string::npos) << R.Error;
}

TEST(ParserDiagnostics, BadOperandPosition) {
  ParseResult R = parseModule(
      "func f (iparams=0 fparams=0 ret=void vregs=1 slots=0)\n"
      "bb0 (entry):\n"
      "  movi %0, notanumber\n");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.ErrLine, 3u);
  EXPECT_EQ(R.ErrToken, "notanumber");
}

TEST(ParserDiagnostics, BadVregOperand) {
  ParseResult R = parseModule(
      "func f (iparams=0 fparams=0 ret=void vregs=1 slots=0)\n"
      "bb0 (entry):\n"
      "  movi %zzz, 1\n");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.ErrLine, 3u);
  EXPECT_EQ(R.ErrToken, "%zzz");
}

TEST(ParserDiagnostics, BadFunctionHeader) {
  ParseResult R = parseModule("func f (iparams=banana)\n");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.ErrLine, 1u);
  EXPECT_GT(R.ErrCol, 0u);
}

TEST(ParserDiagnostics, UnexpectedTopLevelLine) {
  ParseResult R = parseModule("this is not ir\n");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.ErrLine, 1u);
  EXPECT_FALSE(R.ErrToken.empty());
}

TEST(ParserDiagnostics, UnknownCallTargetToken) {
  ParseResult R = parseModule(
      "func f (iparams=0 fparams=0 ret=void vregs=1 slots=0)\n"
      "bb0 (entry):\n"
      "  carg %0, 0\n"
      "  call @nosuch  (iargs=1 fargs=0)\n"
      "  ret\n");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("unknown call target"), std::string::npos);
  EXPECT_EQ(R.ErrToken, "@nosuch");
}

TEST(ParserDiagnostics, EmptyInputIsAnError) {
  EXPECT_FALSE(parseModule("").ok());
  EXPECT_FALSE(parseModule("\n\n# only comments\n").ok());
}

// Golden diagnostics: for each malformed input, the exact message, line,
// column and token the parser reports. Recorded from the two-pass
// istringstream parser this one replaced, so the rewrite kept every
// diagnostic byte for byte.
struct DiagCase {
  const char *Text;
  const char *Error;
  unsigned Line;
  unsigned Col;
  const char *Token;
};

const DiagCase GoldenDiagnostics[] = {
    {"func f (iparams=0)\nbb0 (e):\n  ret\n",
     "line 1, col 1: func header missing ret=/vregs=/slots= (near 'func')", 1, 1, "func"},
    {"bogus line\n",
     "line 1, col 1: unexpected top-level line (near 'bogus')", 1, 1, "bogus"},
    {"this is not ir\n",
     "line 1, col 1: unexpected top-level line (near 'this')", 1, 1, "this"},
    {"",
     "empty module: no functions", 0, 0, ""},
    {"\n\n# only comments\n",
     "line 3, col 1: unexpected top-level line (near '#')", 3, 1, "#"},
    {"; just a comment\n   \n",
     "empty module: no functions", 0, 0, ""},
    {"memsize 4\n",
     "empty module: no functions", 0, 0, ""},
    {"func f\n",
     "line 1: malformed func header", 1, 0, ""},
    {"func f (iparams=banana)\n",
     "line 1, col 1: func header missing ret=/vregs=/slots= (near 'func')", 1, 1, "func"},
    {"func f (iparams=0 fparams=0 ret=void vregs=2 slots=1)\n  movi %0, 1\n",
     "line 2: instruction outside any block", 2, 0, ""},
    {"func f (iparams=0 fparams=0 ret=void vregs=2 slots=1)\nbb1 (entry):\n  ret\n",
     "line 2: block ids must be dense and in order", 2, 0, ""},
    {"func f (iparams=0 fparams=0 ret=void vregs=2 slots=1)\nbb0 (entry):\n  frobnicate %0, 1\n",
     "line 3, col 3: unknown opcode (near 'frobnicate')", 3, 3, "frobnicate"},
    {"func f (iparams=0 fparams=0 ret=void vregs=2 slots=1)\nbb0 (entry):\n  movi %0, notanumber\n",
     "line 3, col 12: bad operand (near 'notanumber')", 3, 12, "notanumber"},
    {"func f (iparams=0 fparams=0 ret=void vregs=2 slots=1)\nbb0 (entry):\n  movi %zzz, 1\n",
     "line 3, col 8: bad vreg operand (near '%zzz')", 3, 8, "%zzz"},
    {"func f (iparams=0 fparams=0 ret=void vregs=2 slots=1)\nbb0 (entry):\n  movi %1x, 1\n",
     "line 3, col 8: bad vreg operand (near '%1x')", 3, 8, "%1x"},
    {"func f (iparams=0 fparams=0 ret=void vregs=2 slots=1)\nbb0 (entry):\n  mov $x, %0\n",
     "line 3, col 7: bad preg operand (near '$x')", 3, 7, "$x"},
    {"func f (iparams=0 fparams=0 ret=void vregs=2 slots=1)\nbb0 (entry):\n  fmov $fz, %0\n",
     "line 3, col 8: bad preg operand (near '$fz')", 3, 8, "$fz"},
    {"func f (iparams=0 fparams=0 ret=void vregs=2 slots=1)\nbb0 (entry):\n  ldslot %0, [x0]\n",
     "line 3, col 14: bad slot operand (near '[x0]')", 3, 14, "[x0]"},
    {"func f (iparams=0 fparams=0 ret=void vregs=2 slots=1)\nbb0 (entry):\n  ldslot %0, [s0\n",
     "line 3, col 14: bad slot operand (near '[s0')", 3, 14, "[s0"},
    {"func f (iparams=0 fparams=0 ret=void vregs=2 slots=1)\nbb0 (entry):\n  br bb1x\n",
     "line 3, col 6: bad label operand (near 'bb1x')", 3, 6, "bb1x"},
    {"func f (iparams=0 fparams=0 ret=void vregs=2 slots=1)\nbb0 (entry):\n  call @  (iargs=0 fargs=0)\n",
     "line 3, col 8: empty call target (near '@')", 3, 8, "@"},
    {"func f (iparams=0 fparams=0 ret=void vregs=2 slots=1)\nbb0 (entry):\n  movf %0, 1.5x\n",
     "line 3, col 12: bad float immediate (near '1.5x')", 3, 12, "1.5x"},
    {"func f (iparams=0 fparams=0 ret=void vregs=2 slots=1)\nbb0 (entry):\n  movi %0, 1  ; evict-frob\n",
     "line 3, col 17: unknown spill tag (near 'evict-frob')", 3, 17, "evict-frob"},
    {"func f (iparams=0 fparams=0 ret=void vregs=2 slots=1)\nbb0 (entry):\n  carg %0, 0\n  call @nosuch  (iargs=1 fargs=0)\n  ret\n",
     "unknown call target '@nosuch'", 0, 0, "@nosuch"},
    {"func f (iparams=0 fparams=0 ret=void vregs=2 slots=1)\n  params: x0\nbb0 (entry):\n  ret\n",
     "line 2, col 11: bad params entry (near 'x0')", 2, 11, "x0"},
    {"func f (iparams=0 fparams=0 ret=void vregs=2 slots=1)\n  fpvregs: %7\nbb0 (entry):\n  ret\n",
     "line 2, col 12: fpvregs id out of range (near '%7')", 2, 12, "%7"},
    {"func f (iparams=0 fparams=0 ret=void vregs=2 slots=1)\n  fpslots: t0\nbb0 (entry):\n  ret\n",
     "line 2, col 12: bad fpslots entry (near 't0')", 2, 12, "t0"},
    {"func f (iparams=0 fparams=0 ret=void vregs=2 slots=1)\n  fpslots: s3\nbb0 (entry):\n  ret\n",
     "line 2, col 12: fpslots id out of range (near 's3')", 2, 12, "s3"},
    {"func f (iparams=0 fparams=0 ret=void vregs=2 slots=1)\n  fpvregs: %0\n  params: %5\nbb0 (entry):\n  ret\n",
     "line 3: param vreg out of range", 3, 0, ""},
    {"mem x 0x1\nfunc f (iparams=0 fparams=0 ret=void vregs=2 slots=1)\nbb0 (entry):\n  ret\n",
     "line 1: bad mem line", 1, 0, ""},
    {"mem 3 zz\nfunc f (iparams=0 fparams=0 ret=void vregs=2 slots=1)\nbb0 (entry):\n  ret\n",
     "line 1: bad mem line", 1, 0, ""},
    {"func f (iparams=0 fparams=0 ret=void vregs=2 slots=1)\nbb0 (entry):\n  ret\nmemfoo 1\n",
     "line 4, col 1: unexpected top-level line (near 'memfoo')", 4, 1, "memfoo"},
    {"func f (iparams=0 fparams=0 ret=void vregs=2 slots=1)\nbb0 (entry):\n  movi %0,1\n",
     "line 3, col 8: bad vreg operand (near '%0,1')", 3, 8, "%0,1"},
    {"  func   \n",
     "line 1, col 3: unexpected top-level line (near 'func')", 1, 3, "func"},
    {"func f (iparams=0 fparams=0 ret=void vregs=2 slots=1)\nbb0 (entry):\n  ret\nfunc g (iparams=0 fparams=0 ret=void vregs=0)\nbb0 (entry):\n  ret\n",
     "line 4, col 1: func header missing ret=/vregs=/slots= (near 'func')", 4, 1, "func"},
    {"func f (iparams=0 fparams=0 ret=void vregs=2 slots=1)\nbb0 (entry):\n  movi %0, 1\r\n  add %1, %0, %0x\r\n",
     "line 4, col 15: bad vreg operand (near '%0x')", 4, 15, "%0x"},
};

TEST(ParserDiagnostics, GoldenTable) {
  for (const DiagCase &C : GoldenDiagnostics) {
    ParseResult R = parseModule(C.Text);
    ASSERT_FALSE(R.ok()) << C.Text;
    EXPECT_EQ(R.Error, C.Error) << C.Text;
    EXPECT_EQ(R.ErrLine, C.Line) << C.Text;
    EXPECT_EQ(R.ErrCol, C.Col) << C.Text;
    EXPECT_EQ(R.ErrToken, C.Token) << C.Text;
  }
}

/// Expect \p Text to be rejected at (\p Line, \p Col) near \p Token with a
/// message containing \p Msg.
void expectRejected(const std::string &Text, const char *Msg, unsigned Line,
                    unsigned Col, const char *Token) {
  ParseResult R = parseModule(Text);
  ASSERT_FALSE(R.ok()) << Text;
  EXPECT_NE(R.Error.find(Msg), std::string::npos) << R.Error;
  EXPECT_EQ(R.ErrLine, Line) << R.Error;
  EXPECT_EQ(R.ErrCol, Col) << R.Error;
  EXPECT_EQ(R.ErrToken, Token) << R.Error;
}

const char *const SmallMain =
    "func main (iparams=0 fparams=0 ret=int vregs=1 slots=0)\n"
    "bb0 (entry):\n"
    "  movi %0, 0\n"
    "  ret %0\n";

// The three size probes: each once crashed or exhausted memory in `lsra
// run`/`lsra print`, and now gets a typed error.
TEST(ParserBounds, MemAddressWrapIsRejected) {
  // Addr + 1 wrapped to 0 in 32 bits and the store wrote out of bounds.
  expectRejected(std::string("mem 4294967295 0x1\n") + SmallMain,
                 "mem address exceeds the size limit", 1, 5, "4294967295");
}

TEST(ParserBounds, HugeMemAddressIsRejected) {
  expectRejected(std::string("mem 4000000000 0x1\n") + SmallMain,
                 "mem address exceeds the size limit", 1, 5, "4000000000");
  expectRejected(std::string("mem 99999999999 0x1\n") + SmallMain,
                 "mem address out of range", 1, 5, "99999999999");
}

TEST(ParserBounds, HugeVRegCountIsRejected) {
  std::string Text =
      "func main (iparams=0 fparams=0 ret=int vregs=400000000 slots=0)\n"
      "bb0 (entry):\n"
      "  ret\n";
  expectRejected(Text, "vregs= count exceeds the size limit", 1, 46,
                 "400000000");
}

TEST(ParserBounds, DeclaredSizesScaleWithPayload) {
  // The memory image and the vreg + slot declarations may each claim one
  // unit per byte of text plus a 4096 floor; vregs and slots are summed
  // over functions, so many small headers cannot add up to a large claim.
  std::string Pad(20000, ' ');
  std::string Big = "memsize 24000\n" + Pad + "\n" + SmallMain;
  ParseResult R = parseModule(Big);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.M->InitialMemory.size(), 24000u);
  expectRejected(std::string("memsize 100000000\n") + SmallMain,
                 "memsize exceeds the size limit", 1, 9, "100000000");
  expectRejected(
      "func f (iparams=0 fparams=0 ret=void vregs=3000 slots=0)\n"
      "bb0 (entry):\n  ret\n"
      "func g (iparams=0 fparams=0 ret=void vregs=0 slots=3000)\n"
      "bb0 (entry):\n  ret\n",
      "slots= count exceeds the size limit", 4, 52, "3000");
}

TEST(ParserBounds, IdsMustFitIn32Bits) {
  expectRejected("func f (iparams=0 fparams=0 ret=void vregs=1 slots=0)\n"
                 "bb0 (entry):\n  movi %4294967296, 1\n  ret\n",
                 "id does not fit in 32 bits", 3, 8, "%4294967296");
  expectRejected("func f (iparams=0 fparams=0 ret=void vregs=1 slots=1)\n"
                 "bb0 (entry):\n  ldslot %0, [s99999999999]\n  ret\n",
                 "id does not fit in 32 bits", 3, 14, "[s99999999999]");
  expectRejected("func f (iparams=0 fparams=0 ret=void vregs=1 slots=0)\n"
                 "  params: %4294967296\nbb0 (entry):\n  ret\n",
                 "id does not fit in 32 bits", 2, 11, "%4294967296");
}

TEST(ParserBounds, RegisterAndArgumentCountsAreChecked) {
  expectRejected("func f (iparams=0 fparams=0 ret=void vregs=1 slots=0)\n"
                 "bb0 (entry):\n  mov %0, $32\n  ret\n",
                 "preg out of range", 3, 11, "$32");
  expectRejected("func f (iparams=0 fparams=0 ret=void vregs=1 slots=0)\n"
                 "bb0 (entry):\n  fmov %0, $f40\n  ret\n",
                 "preg out of range", 3, 12, "$f40");
  expectRejected(std::string(SmallMain) +
                     "func g (iparams=0 fparams=0 ret=void vregs=0 slots=0)\n"
                     "bb0 (entry):\n  call @main  (iargs=7 fargs=0)\n"
                     "  ret\n",
                 "bad call argument count", 7, 22, "7");
}

TEST(ParserBounds, MalformedCountsAndDuplicatesAreRejected) {
  expectRejected(std::string("memsize lots\n") + SmallMain, "bad memsize", 1,
                 9, "lots");
  expectRejected("func f (iparams=0 fparams=0 ret=void vregs=x slots=0)\n"
                 "bb0 (entry):\n  ret\n",
                 "bad vregs= count", 1, 44, "x");
  expectRejected(std::string(SmallMain) + SmallMain, "duplicate function name",
                 5, 6, "main");
  // A memory word wider than 64 bits, and a missing value.
  expectRejected(std::string("mem 3 0x1ffffffffffffffff\n") + SmallMain,
                 "bad mem line", 1, 0, "");
  expectRejected(std::string("mem 3 0x\n") + SmallMain, "bad mem line", 1, 0,
                 "");
}

TEST(Printer, DotExportContainsBlocksAndEdges) {
  auto M = buildWorkload("eqntott");
  std::ostringstream OS;
  printDotCFG(OS, M->function(0), M.get());
  std::string S = OS.str();
  EXPECT_NE(S.find("digraph"), std::string::npos);
  EXPECT_NE(S.find("bb0"), std::string::npos);
  EXPECT_NE(S.find("->"), std::string::npos);
}

} // namespace
