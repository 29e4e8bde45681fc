//===- tests/passes_test.cpp - DCE and peephole ----------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"
#include "ir/Builder.h"
#include "ir/Parser.h"
#include "passes/DCE.h"
#include "passes/Peephole.h"
#include "target/LowerCalls.h"
#include "vm/VM.h"
#include "workloads/RandomProgram.h"
#include "workloads/SyntheticModule.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

using namespace lsra;

namespace {

/// The reference DCE: rebuild whole-function liveness and sweep every block
/// backward, round after round, until a round deletes nothing. This is the
/// fixpoint eliminateDeadCode must reach with a single liveness solve.
unsigned iteratedDCE(Function &F, const TargetDesc &TD) {
  auto Removable = [](const Instr &I) {
    if (I.info().NumDefs != 1 || !I.op(0).isVReg())
      return false;
    if (I.opcode() == Opcode::CRes || I.opcode() == Opcode::FCRes)
      return true;
    return !I.isCall() && !I.isTerminator();
  };
  unsigned Removed = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    Liveness LV(F, TD);
    for (unsigned B = 0; B < F.numBlocks(); ++B) {
      Block &Blk = F.block(B);
      BitVector Live = LV.liveOut(B);
      std::vector<uint32_t> Kept;
      for (unsigned Idx = Blk.size(); Idx-- > 0;) {
        const Instr &I = Blk.instrs()[Idx];
        if (Removable(I) && !Live.test(I.op(0).vregId())) {
          ++Removed;
          Changed = true;
          continue;
        }
        forEachDefinedReg(I, [&](const Operand &Op) {
          if (Op.isVReg())
            Live.reset(Op.vregId());
        });
        forEachUsedReg(I, [&](const Operand &Op) {
          if (Op.isVReg())
            Live.set(Op.vregId());
        });
        Kept.push_back(Blk.instrId(Idx));
      }
      if (Kept.size() != Blk.size())
        Blk.setInstrIds(std::vector<uint32_t>(Kept.rbegin(), Kept.rend()));
    }
  }
  return Removed;
}

/// Surviving instruction ids, block by block, of every function.
std::vector<std::vector<uint32_t>> survivors(const Module &M) {
  std::vector<std::vector<uint32_t>> Out;
  for (const auto &F : M.functions())
    for (const Block &B : F->blocks()) {
      Out.emplace_back();
      for (unsigned I = 0; I < B.size(); ++I)
        Out.back().push_back(B.instrId(I));
    }
  return Out;
}

/// Build the module twice (after call lowering, as the pipeline runs DCE),
/// run eliminateDeadCode on one and the reference on the other, and check
/// that the same instruction ids survive.
void expectSameAsIterated(const std::function<std::unique_ptr<Module>()> &Build,
                          const std::string &What) {
  TargetDesc TD = TargetDesc::alphaLike();
  std::unique_ptr<Module> New = Build(), Ref = Build();
  ASSERT_TRUE(New && Ref) << What;
  lowerCalls(*New);
  lowerCalls(*Ref);
  unsigned NewRemoved = 0, RefRemoved = 0;
  for (unsigned I = 0; I < New->numFunctions(); ++I) {
    NewRemoved += eliminateDeadCode(New->function(I), TD);
    RefRemoved += iteratedDCE(Ref->function(I), TD);
  }
  EXPECT_EQ(NewRemoved, RefRemoved) << What;
  EXPECT_EQ(survivors(*New), survivors(*Ref)) << What;
}

TEST(DCE, RemovesDeadChains) {
  Module M;
  FunctionBuilder B(M, "f", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned Live = B.movi(1);
  unsigned Dead1 = B.movi(2);
  unsigned Dead2 = B.addi(Dead1, 3); // keeps Dead1 alive until removed too
  (void)Dead2;
  B.retVal(Live);
  TargetDesc TD = TargetDesc::alphaLike();
  unsigned Removed = eliminateDeadCode(M.function(0), TD);
  EXPECT_EQ(Removed, 2u);
  EXPECT_EQ(M.function(0).numInstrs(), 2u); // movi + ret
}

TEST(DCE, KeepsSideEffects) {
  Module M;
  FunctionBuilder B(M, "f", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned V = B.movi(9);
  B.store(V, B.movi(0), 3); // store is observable
  B.emitValue(V);           // emit is observable
  B.retVal(B.movi(0));
  TargetDesc TD = TargetDesc::alphaLike();
  eliminateDeadCode(M.function(0), TD);
  unsigned Stores = 0, Emits = 0;
  for (const Instr &I : M.function(0).entry().instrs()) {
    Stores += I.opcode() == Opcode::St;
    Emits += I.opcode() == Opcode::Emit;
  }
  EXPECT_EQ(Stores, 1u);
  EXPECT_EQ(Emits, 1u);
}

TEST(DCE, KeepsCallsButDropsUnusedResults) {
  Module M;
  FunctionBuilder G(M, "g", 0, 0, CallRetKind::Int);
  G.setBlock(G.newBlock("entry"));
  G.store(G.movi(1), G.movi(0), 0); // side effect inside callee
  G.retVal(G.movi(7));

  FunctionBuilder B(M, "main", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned R = B.call(G.function(), {});
  (void)R; // unused result
  B.retVal(B.movi(0));
  TargetDesc TD = TargetDesc::alphaLike();
  eliminateDeadCode(M, TD);
  unsigned Calls = 0, CRess = 0;
  for (const Instr &I : M.function(1).entry().instrs()) {
    Calls += I.opcode() == Opcode::Call;
    CRess += I.opcode() == Opcode::CRes;
  }
  EXPECT_EQ(Calls, 1u) << "the call has side effects";
  EXPECT_EQ(CRess, 0u) << "the unused result move is dead";
}

TEST(DCE, LoopCarriedValuesSurvive) {
  Module M;
  FunctionBuilder B(M, "f", 0, 0, CallRetKind::Int);
  Block &E = B.newBlock("entry");
  Block &H = B.newBlock("head");
  Block &Body = B.newBlock("body");
  Block &X = B.newBlock("exit");
  B.setBlock(E);
  unsigned Acc = B.movi(0);
  unsigned I = B.movi(0);
  B.br(H);
  B.setBlock(H);
  B.cbr(B.cmpi(Opcode::CmpLt, I, 5), Body, X);
  B.setBlock(Body);
  B.emit(Instr(Opcode::Add, Operand::vreg(Acc), Operand::vreg(Acc),
               Operand::imm(2)));
  B.emit(Instr(Opcode::Add, Operand::vreg(I), Operand::vreg(I),
               Operand::imm(1)));
  B.br(H);
  B.setBlock(X);
  B.retVal(Acc);
  TargetDesc TD = TargetDesc::alphaLike();
  unsigned Before = M.function(0).numInstrs();
  EXPECT_EQ(eliminateDeadCode(M.function(0), TD), 0u);
  EXPECT_EQ(M.function(0).numInstrs(), Before);
  RunResult R = VM(M, TD).run("f");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ReturnValue, 10);
}

TEST(DCE, DeadChainAcrossThreeBlocks) {
  // Each link is live under whole-function liveness until the link after
  // it is deleted: the reference needs three liveness rounds.
  Module M;
  FunctionBuilder B(M, "f", 0, 0, CallRetKind::Int);
  Block &B0 = B.newBlock("b0");
  Block &B1 = B.newBlock("b1");
  Block &B2 = B.newBlock("b2");
  B.setBlock(B0);
  unsigned A = B.movi(1);
  B.br(B1);
  B.setBlock(B1);
  unsigned C = B.addi(A, 1);
  B.br(B2);
  B.setBlock(B2);
  (void)B.addi(C, 1);
  B.retVal(B.movi(0));
  TargetDesc TD = TargetDesc::alphaLike();
  EXPECT_EQ(eliminateDeadCode(M.function(0), TD), 3u);
  EXPECT_EQ(M.function(0).block(0).size(), 1u); // br
  EXPECT_EQ(M.function(0).block(1).size(), 1u); // br
  EXPECT_EQ(M.function(0).block(2).size(), 2u); // movi + ret
}

TEST(DCE, ValueUsedOnlyAfterALoopDiesWithItsUse) {
  // X is read only by a dead add after the loop. Under the first liveness
  // solve X is live around the loop's back edge; once the add is gone the
  // head and the body would keep each other's X forever if the old
  // solution were only shrunk. Re-deriving X's liveness from its remaining
  // uses finds none, so X's definition goes too, as in the reference.
  Module M;
  FunctionBuilder B(M, "f", 0, 0, CallRetKind::Int);
  Block &E = B.newBlock("entry");
  Block &H = B.newBlock("head");
  Block &Body = B.newBlock("body");
  Block &X = B.newBlock("exit");
  B.setBlock(E);
  unsigned V = B.movi(5);
  unsigned I = B.movi(0);
  B.br(H);
  B.setBlock(H);
  B.cbr(B.cmpi(Opcode::CmpLt, I, 3), Body, X);
  B.setBlock(Body);
  B.emit(Instr(Opcode::Add, Operand::vreg(I), Operand::vreg(I),
               Operand::imm(1)));
  B.br(H);
  B.setBlock(X);
  (void)B.addi(V, 1);
  B.retVal(I);
  TargetDesc TD = TargetDesc::alphaLike();
  EXPECT_EQ(eliminateDeadCode(M.function(0), TD), 2u);
  for (const Block &Blk : M.function(0).blocks())
    for (const Instr &In : Blk.instrs())
      EXPECT_FALSE(In.opcode() == Opcode::MovI && In.op(1).isImm() &&
                   In.op(1).immValue() == 5)
          << "the def of X survived";
  RunResult R = VM(M, TD).run("f");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ReturnValue, 3);
}

TEST(DCEEquivalence, Workloads) {
  for (const WorkloadSpec &W : allWorkloads())
    expectSameAsIterated(W.Build, W.Name);
}

TEST(DCEEquivalence, FuzzCorpus) {
  unsigned Files = 0;
  for (const auto &E : std::filesystem::directory_iterator(LSRA_CORPUS_DIR)) {
    if (E.path().extension() != ".ir")
      continue;
    std::ifstream In(E.path());
    std::stringstream SS;
    SS << In.rdbuf();
    std::string Text = SS.str();
    expectSameAsIterated([&] { return parseModule(Text).M; },
                         E.path().filename().string());
    ++Files;
  }
  EXPECT_GT(Files, 0u);
}

TEST(DCEEquivalence, Table3Modules) {
  const ScaledModuleOptions Rows[] = {
      {4, 245, 8, 6, 11}, {1, 6218, 48, 10, 22}, {2, 3348, 56, 8, 33}};
  for (const ScaledModuleOptions &O : Rows)
    expectSameAsIterated([&] { return buildScaledModule(O); },
                         "scaled seed " + std::to_string(O.Seed));
}

TEST(DCEEquivalence, RandomPrograms) {
  for (uint64_t Seed = 1; Seed <= 500; ++Seed)
    expectSameAsIterated([&] { return buildRandomProgram(Seed); },
                         "seed " + std::to_string(Seed));
}

TEST(Peephole, RemovesSelfMovesAndNops) {
  Module M;
  Function &F = M.addFunction("f");
  F.CallsLowered = true;
  Block &E = F.addBlock("entry");
  E.append(Instr(Opcode::Mov, Operand::preg(intReg(3)),
                 Operand::preg(intReg(3)))); // self-move
  E.append(Instr(Opcode::FMov, Operand::preg(fpReg(2)),
                 Operand::preg(fpReg(2)))); // fp self-move
  E.append(Instr(Opcode::Mov, Operand::preg(intReg(3)),
                 Operand::preg(intReg(4)))); // real move: kept
  E.append(Instr(Opcode::Nop));
  E.append(Instr(Opcode::Ret));
  EXPECT_EQ(runPeephole(F), 3u);
  EXPECT_EQ(F.numInstrs(), 2u);
  EXPECT_EQ(E.instrs()[0].opcode(), Opcode::Mov);
}

TEST(Peephole, LeavesVRegMovesAlone) {
  Module M;
  FunctionBuilder B(M, "f", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned X = B.movi(1);
  unsigned Y = B.mov(X); // vreg-to-vreg move, distinct regs
  B.retVal(Y);
  EXPECT_EQ(runPeephole(B.function()), 0u);
}

} // namespace
