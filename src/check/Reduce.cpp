//===- check/Reduce.cpp ---------------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "check/Reduce.h"

#include "check/Clone.h"
#include "check/Fuzz.h"
#include "ir/IRVerifier.h"
#include "ir/Parser.h"
#include "ir/Printer.h"

#include <algorithm>

using namespace lsra;
using namespace lsra::check;

namespace {

/// One deletable instruction, addressed in the current module.
struct Site {
  unsigned F, B, I;
};

constexpr unsigned MaxOracleCalls = 2000;
constexpr unsigned MaxRounds = 12;

std::string printText(const Module &M) { return toString(M); }

std::vector<Site> removableSites(const Module &M) {
  std::vector<Site> Sites;
  for (unsigned F = 0; F < M.numFunctions(); ++F) {
    const Function &Fn = M.function(F);
    for (unsigned B = 0; B < Fn.numBlocks(); ++B) {
      const Block &Blk = Fn.block(B);
      for (unsigned I = 0; I < Blk.size(); ++I)
        if (!Blk.instrs()[I].isTerminator())
          Sites.push_back({F, B, I});
    }
  }
  return Sites;
}

std::unique_ptr<Module> withRemoved(const Module &M,
                                    const std::vector<Site> &Sites,
                                    size_t Lo, size_t Hi) {
  auto C = cloneModule(M);
  // Erase highest index first within each block so indices stay valid.
  std::vector<Site> Del(Sites.begin() + Lo, Sites.begin() + Hi);
  std::sort(Del.begin(), Del.end(), [](const Site &A, const Site &B) {
    return std::tie(A.F, A.B, B.I) < std::tie(B.F, B.B, A.I);
  });
  for (const Site &S : Del)
    C->function(S.F).block(S.B).eraseInstr(S.I);
  return C;
}

unsigned countInstrs(const Module &M) {
  unsigned N = 0;
  for (const auto &F : M.functions())
    N += F->numInstrs();
  return N;
}

class Reducer {
public:
  Reducer(AllocatorKind K, unsigned Regs, bool Cleanup)
      : K(K), Regs(Regs), Cleanup(Cleanup) {}

  /// Does \p M still parse, verify, and fail the oracle?
  bool interesting(const Module &M) {
    if (Calls >= MaxOracleCalls)
      return false;
    if (!verifyModule(M).empty())
      return false;
    ++Calls;
    return runOracle(printText(M), K, Regs, Cleanup).fail();
  }

  bool budgetLeft() const { return Calls < MaxOracleCalls; }

private:
  AllocatorKind K;
  unsigned Regs;
  bool Cleanup;
  unsigned Calls = 0;
};

} // namespace

ReduceResult lsra::check::reduceProgram(const std::string &IRText,
                                        AllocatorKind K, unsigned RegLimit,
                                        bool SpillCleanup) {
  ReduceResult R;
  R.Text = IRText;
  ParseResult P = parseModule(IRText);
  if (!P.ok())
    return R;
  Reducer Red(K, RegLimit, SpillCleanup);
  R.OriginalInstrs = R.FinalInstrs = countInstrs(*P.M);
  if (!Red.interesting(*P.M))
    return R; // not a failing input; nothing to minimize

  std::unique_ptr<Module> Cur = std::move(P.M);
  bool Changed = true;
  while (Changed && R.Rounds < MaxRounds && Red.budgetLeft()) {
    Changed = false;
    ++R.Rounds;

    // ddmin over the deletable instructions: try chunks from half the list
    // down to single instructions, restarting the window scan after a hit.
    std::vector<Site> Sites = removableSites(*Cur);
    for (size_t Chunk = std::max<size_t>(1, Sites.size() / 2); Chunk >= 1;
         Chunk /= 2) {
      bool Hit = true;
      while (Hit && Red.budgetLeft()) {
        Hit = false;
        for (size_t Lo = 0; Lo + Chunk <= Sites.size(); Lo += Chunk) {
          auto Cand = withRemoved(*Cur, Sites, Lo, Lo + Chunk);
          if (Red.interesting(*Cand)) {
            Cur = std::move(Cand);
            Sites = removableSites(*Cur);
            Changed = Hit = true;
            break;
          }
        }
      }
      if (Chunk == 1)
        break;
    }

    // Simplify conditional branches to unconditional ones (either arm).
    // Re-fetch the function/block from Cur on every iteration: accepting a
    // candidate replaces Cur, which destroys the module any cached
    // Function&/Block& pointed into.
    for (unsigned F = 0; F < Cur->numFunctions() && Red.budgetLeft(); ++F) {
      for (unsigned B = 0; B < Cur->function(F).numBlocks(); ++B) {
        const Block &Blk = Cur->function(F).block(B);
        if (!Blk.hasTerminator() ||
            Blk.terminator().opcode() != Opcode::CBr)
          continue;
        for (unsigned Arm = 1; Arm <= 2; ++Arm) {
          auto Cand = cloneModule(*Cur);
          Block &CB = Cand->function(F).block(B);
          Instr Br(Opcode::Br, CB.terminator().op(Arm));
          CB.instrs().back() = Br;
          if (Red.interesting(*Cand)) {
            Cur = std::move(Cand);
            Changed = true;
            break; // Blk dangles now; the next B iteration re-fetches
          }
        }
      }
    }
  }

  R.Text = printText(*Cur);
  R.FinalInstrs = countInstrs(*Cur);
  return R;
}
