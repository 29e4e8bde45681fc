//===- regalloc/Coloring.cpp - Iterated register coalescing ---------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// A standard implementation of George & Appel's algorithm, following the
// published worklist pseudocode. One ColoringProblem instance colors one
// register class; rounds of build/simplify/coalesce/freeze/spill/select
// repeat until no actual spills remain, with spill code inserted between
// rounds (loads before uses, stores after defs, one fresh block-local
// temporary per reference).
//
//===----------------------------------------------------------------------===//

#include "regalloc/Coloring.h"

#include "analysis/AnalysisCache.h"
#include "analysis/Liveness.h"
#include "analysis/Loops.h"
#include "obs/Counters.h"
#include "obs/DecisionLog.h"
#include "obs/Log.h"
#include "obs/Trace.h"
#include "regalloc/SpillSlots.h"
#include "support/BitVector.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

using namespace lsra;

namespace {

constexpr unsigned NoNode = ~0u;

/// Lower-triangular bit matrix recording the adjacency relation, per the
/// paper's implementation note (§3).
class AdjMatrix {
public:
  explicit AdjMatrix(unsigned N) : N(N), Bits(N * (N + 1) / 2) {}

  bool test(unsigned A, unsigned B) const { return Bits.test(index(A, B)); }
  void set(unsigned A, unsigned B) { Bits.set(index(A, B)); }

private:
  unsigned index(unsigned A, unsigned B) const {
    if (A < B)
      std::swap(A, B);
    assert(A < N && "node out of range");
    return A * (A + 1) / 2 + B;
  }
  unsigned N;
  BitVector Bits;
};

enum class NodeState : uint8_t {
  Precolored,
  Initial,
  SimplifyWL,
  FreezeWL,
  SpillWL,
  Spilled,
  Coalesced,
  Colored,
  OnStack,
};

enum class MoveState : uint8_t {
  Worklist,
  Active,
  Coalesced,
  Constrained,
  Frozen,
};

struct MoveRec {
  unsigned Src, Dst; ///< node ids
  MoveState State = MoveState::Worklist;
};

/// One coloring problem: all temporaries of one register class.
class ColoringProblem {
public:
  ColoringProblem(Function &F, const TargetDesc &TD, RegClass RC,
                  const Liveness &LV, const LoopInfo &LI, SpillSlots &Slots,
                  AllocStats &Stats)
      : F(F), TD(TD), RC(RC), LV(LV), LI(LI), Slots(Slots), Stats(Stats),
        K(TD.numAllocatable(RC)) {}

  /// Repeat build/color/spill rounds to completion, then rewrite operands.
  void run();

private:
  Function &F;
  const TargetDesc &TD;
  RegClass RC;
  const Liveness &LV;
  const LoopInfo &LI;
  SpillSlots &Slots;
  AllocStats &Stats;
  unsigned K;

  // Node numbering: [0, K) = the allocatable registers of this class (in
  // allocation-preference order); [K, NumNodes) = temporaries, via
  // VRegToNode.
  std::vector<unsigned> VRegToNode;
  std::vector<unsigned> NodeToVReg;
  unsigned NumNodes = 0;

  std::unique_ptr<AdjMatrix> Adj;
  std::vector<std::vector<unsigned>> AdjList;
  std::vector<unsigned> Degree;
  std::vector<NodeState> State;
  std::vector<unsigned> Alias;
  std::vector<unsigned> Color; ///< register id, ~0u = none
  std::vector<double> SpillCost;
  std::vector<MoveRec> Moves;
  std::vector<std::vector<unsigned>> MoveList;
  std::vector<unsigned> SelectStack;
  std::vector<unsigned> SimplifyWL, FreezeWL, SpillWL, WorklistMoves,
      ActiveMoves;
  std::vector<unsigned> SpilledNodes;
  /// VRegs created by spill-code insertion: unspillable (infinite cost).
  BitVector SpillTemp;
  /// VRegs spilled in earlier rounds. They no longer occur in the code,
  /// but the once-computed global liveness still lists them; build() must
  /// ignore them or they would interfere with whole blocks forever.
  BitVector EverSpilledV;

  bool isTempOfClass(const Operand &Op) const {
    return Op.isVReg() && F.vregClass(Op.vregId()) == RC;
  }
  unsigned nodeOfOperand(const Operand &Op) const {
    if (Op.isVReg())
      return VRegToNode[Op.vregId()];
    unsigned P = Op.pregId();
    const auto &Order = TD.allocOrder(RC);
    for (unsigned I = 0; I < Order.size(); ++I)
      if (Order[I] == P)
        return I;
    return NoNode; // non-allocatable or other-class physical register
  }

  void initRound();
  void build();
  void addEdge(unsigned U, unsigned V);
  void makeWorklist();
  void collectAdjacent(unsigned N, std::vector<unsigned> &Out) const;
  void collectNodeMoves(unsigned N, std::vector<unsigned> &Out) const;
  bool moveRelated(unsigned N) const;
  void simplify();
  void decrementDegree(unsigned N);
  void enableMoves(unsigned N);
  void coalesce();
  void addWorkList(unsigned N);
  bool okGeorge(unsigned T, unsigned R) const;
  bool conservative(const std::vector<unsigned> &Nodes) const;
  unsigned getAlias(unsigned N) const;
  void combine(unsigned U, unsigned V);
  void freeze();
  void freezeMoves(unsigned N);
  void selectSpill();
  void assignColors();
  void rewriteSpills();
  void rewriteOperands();
};

void ColoringProblem::initRound() {
  unsigned NumV = F.numVRegs();
  VRegToNode.assign(NumV, NoNode);
  NodeToVReg.clear();
  NumNodes = K;
  for (unsigned V = 0; V < NumV; ++V)
    if (F.vregClass(V) == RC) {
      VRegToNode[V] = NumNodes++;
      NodeToVReg.push_back(V);
    }

  Adj = std::make_unique<AdjMatrix>(NumNodes);
  AdjList.assign(NumNodes, {});
  Degree.assign(NumNodes, 0);
  State.assign(NumNodes, NodeState::Initial);
  Alias.assign(NumNodes, NoNode);
  Color.assign(NumNodes, ~0u);
  SpillCost.assign(NumNodes, 0.0);
  Moves.clear();
  MoveList.assign(NumNodes, {});
  SelectStack.clear();
  SimplifyWL.clear();
  FreezeWL.clear();
  SpillWL.clear();
  WorklistMoves.clear();
  ActiveMoves.clear();
  SpilledNodes.clear();
  auto GrowPreserving = [NumV](BitVector &BV) {
    if (BV.size() >= NumV)
      return;
    BitVector Grown(NumV);
    for (unsigned V = 0; V < BV.size(); ++V)
      if (BV.test(V))
        Grown.set(V);
    BV = Grown;
  };
  GrowPreserving(SpillTemp);
  GrowPreserving(EverSpilledV);

  for (unsigned P = 0; P < K; ++P) {
    State[P] = NodeState::Precolored;
    Color[P] = TD.allocOrder(RC)[P];
    Degree[P] = std::numeric_limits<unsigned>::max() / 2;
  }
}

void ColoringProblem::addEdge(unsigned U, unsigned V) {
  if (U == V || U == NoNode || V == NoNode)
    return;
  if (Adj->test(U, V))
    return;
  Adj->set(U, V);
  ++Stats.InterferenceEdges;
  if (State[U] != NodeState::Precolored) {
    AdjList[U].push_back(V);
    ++Degree[U];
  }
  if (State[V] != NodeState::Precolored) {
    AdjList[V].push_back(U);
    ++Degree[V];
  }
}

void ColoringProblem::build() {
  // Per-block backward scan with a live node set. Global liveness was
  // computed once before allocation; spill temporaries introduced by later
  // rounds are block-local and appear/disappear within the scan.
  BitVector Live(NumNodes);
  for (unsigned B = 0; B < F.numBlocks(); ++B) {
    Live.clear();
    BitSpan Out = LV.liveOut(B);
    for (unsigned V = 0; V < LV.numVRegs(); ++V)
      if (Out.test(V) && VRegToNode[V] != NoNode && !EverSpilledV.test(V))
        Live.set(VRegToNode[V]);

    auto Instrs = F.block(B).instrs();
    double W = LI.blockWeight(B);
    for (unsigned Idx = Instrs.size(); Idx-- > 0;) {
      const Instr &I = Instrs[Idx];

      // Move instructions get special treatment: the source does not
      // interfere with the destination, and the move becomes a coalescing
      // candidate.
      bool IsClassMove = false;
      if (I.isRegMove() && I.slotClass(0) == RC) {
        unsigned SrcN = nodeOfOperand(I.op(1));
        unsigned DstN = nodeOfOperand(I.op(0));
        if (SrcN != NoNode && DstN != NoNode && SrcN != DstN) {
          IsClassMove = true;
          Live.reset(SrcN);
          unsigned MIdx = static_cast<unsigned>(Moves.size());
          Moves.push_back({SrcN, DstN, MoveState::Worklist});
          MoveList[SrcN].push_back(MIdx);
          MoveList[DstN].push_back(MIdx);
          WorklistMoves.push_back(MIdx);
        }
      }
      (void)IsClassMove;

      // Defs (including the call's return register and clobbers) interfere
      // with everything live across the def.
      auto HandleDef = [&](unsigned N) {
        if (N == NoNode)
          return;
        Live.forEachSetBit([&](unsigned L) { addEdge(L, N); });
        Live.reset(N);
        if (N >= K)
          SpillCost[N] += W;
      };
      forEachDefinedReg(I, [&](const Operand &Op) {
        if (Op.isVReg() ? isTempOfClass(Op) : pregClass(Op.pregId()) == RC)
          HandleDef(nodeOfOperand(Op));
      });
      forEachClobberedReg(I, TD, [&](unsigned P) {
        if (pregClass(P) == RC)
          HandleDef(nodeOfOperand(Operand::preg(P)));
      });

      forEachUsedReg(I, [&](const Operand &Op) {
        bool Ours =
            Op.isVReg() ? isTempOfClass(Op) : pregClass(Op.pregId()) == RC;
        if (!Ours)
          return;
        unsigned N = nodeOfOperand(Op);
        if (N == NoNode)
          return;
        Live.set(N);
        if (N >= K)
          SpillCost[N] += W;
      });
    }
  }

  // Unspillable spill temporaries get effectively infinite cost.
  for (unsigned N = K; N < NumNodes; ++N)
    if (SpillTemp.test(NodeToVReg[N - K] /*dense is offset*/))
      SpillCost[N] = std::numeric_limits<double>::infinity();
}

void ColoringProblem::makeWorklist() {
  for (unsigned N = K; N < NumNodes; ++N) {
    if (Degree[N] >= K) {
      State[N] = NodeState::SpillWL;
      SpillWL.push_back(N);
    } else if (moveRelated(N)) {
      State[N] = NodeState::FreezeWL;
      FreezeWL.push_back(N);
    } else {
      State[N] = NodeState::SimplifyWL;
      SimplifyWL.push_back(N);
    }
  }
}

void ColoringProblem::collectAdjacent(unsigned N,
                                      std::vector<unsigned> &Out) const {
  Out.clear();
  for (unsigned A : AdjList[N])
    if (State[A] != NodeState::OnStack && State[A] != NodeState::Coalesced)
      Out.push_back(A);
}

void ColoringProblem::collectNodeMoves(unsigned N,
                                       std::vector<unsigned> &Out) const {
  Out.clear();
  for (unsigned M : MoveList[N]) {
    MoveState S = Moves[M].State;
    if (S == MoveState::Worklist || S == MoveState::Active)
      Out.push_back(M);
  }
}

bool ColoringProblem::moveRelated(unsigned N) const {
  for (unsigned M : MoveList[N]) {
    MoveState S = Moves[M].State;
    if (S == MoveState::Worklist || S == MoveState::Active)
      return true;
  }
  return false;
}

void ColoringProblem::simplify() {
  unsigned N = SimplifyWL.back();
  SimplifyWL.pop_back();
  if (State[N] != NodeState::SimplifyWL)
    return; // stale worklist entry
  State[N] = NodeState::OnStack;
  SelectStack.push_back(N);
  std::vector<unsigned> Adjacent;
  collectAdjacent(N, Adjacent);
  for (unsigned A : Adjacent)
    decrementDegree(A);
}

void ColoringProblem::decrementDegree(unsigned N) {
  if (State[N] == NodeState::Precolored)
    return;
  unsigned D = Degree[N]--;
  if (D != K)
    return;
  // Degree dropped from K to K-1: N may become simplifiable; its moves and
  // its neighbours' moves may become enabled.
  enableMoves(N);
  std::vector<unsigned> Adjacent;
  collectAdjacent(N, Adjacent);
  for (unsigned A : Adjacent)
    enableMoves(A);
  if (State[N] != NodeState::SpillWL)
    return;
  auto It = std::find(SpillWL.begin(), SpillWL.end(), N);
  if (It != SpillWL.end())
    SpillWL.erase(It);
  if (moveRelated(N)) {
    State[N] = NodeState::FreezeWL;
    FreezeWL.push_back(N);
  } else {
    State[N] = NodeState::SimplifyWL;
    SimplifyWL.push_back(N);
  }
}

void ColoringProblem::enableMoves(unsigned N) {
  std::vector<unsigned> NM;
  collectNodeMoves(N, NM);
  for (unsigned M : NM)
    if (Moves[M].State == MoveState::Active) {
      Moves[M].State = MoveState::Worklist;
      WorklistMoves.push_back(M);
    }
}

unsigned ColoringProblem::getAlias(unsigned N) const {
  while (State[N] == NodeState::Coalesced)
    N = Alias[N];
  return N;
}

void ColoringProblem::addWorkList(unsigned N) {
  if (State[N] != NodeState::FreezeWL || moveRelated(N) || Degree[N] >= K)
    return;
  auto It = std::find(FreezeWL.begin(), FreezeWL.end(), N);
  if (It != FreezeWL.end())
    FreezeWL.erase(It);
  State[N] = NodeState::SimplifyWL;
  SimplifyWL.push_back(N);
}

bool ColoringProblem::okGeorge(unsigned T, unsigned R) const {
  return Degree[T] < K || State[T] == NodeState::Precolored ||
         Adj->test(T, R);
}

bool ColoringProblem::conservative(const std::vector<unsigned> &Nodes) const {
  unsigned Significant = 0;
  for (unsigned N : Nodes)
    if (Degree[N] >= K)
      ++Significant;
  return Significant < K;
}

void ColoringProblem::coalesce() {
  unsigned M = WorklistMoves.back();
  WorklistMoves.pop_back();
  unsigned X = getAlias(Moves[M].Src);
  unsigned Y = getAlias(Moves[M].Dst);
  unsigned U = X, V = Y;
  if (State[Y] == NodeState::Precolored)
    std::swap(U, V);
  if (U == V) {
    Moves[M].State = MoveState::Coalesced;
    addWorkList(U);
    return;
  }
  if (State[V] == NodeState::Precolored || Adj->test(U, V)) {
    Moves[M].State = MoveState::Constrained;
    addWorkList(U);
    addWorkList(V);
    return;
  }
  std::vector<unsigned> AdjU, AdjV;
  collectAdjacent(U, AdjU);
  collectAdjacent(V, AdjV);
  bool CanCoalesce;
  if (State[U] == NodeState::Precolored) {
    // George test: every neighbour of V is OK with U.
    CanCoalesce = true;
    for (unsigned T : AdjV)
      if (!okGeorge(T, U)) {
        CanCoalesce = false;
        break;
      }
  } else {
    // Briggs test on the combined node.
    std::vector<unsigned> Combined = AdjU;
    for (unsigned T : AdjV)
      if (std::find(AdjU.begin(), AdjU.end(), T) == AdjU.end())
        Combined.push_back(T);
    CanCoalesce = conservative(Combined);
  }
  if (CanCoalesce) {
    Moves[M].State = MoveState::Coalesced;
    combine(U, V);
    addWorkList(U);
    ++Stats.MovesCoalesced;
    obs::DecisionLog &DL = obs::DecisionLog::global();
    if (DL.enabled() && V >= K)
      DL.record(F, obs::DecisionKind::CoalesceMove, NodeToVReg[V - K],
                obs::NoValue, U < K ? Color[U] : obs::NoValue,
                State[U] == NodeState::Precolored
                    ? "George test: safe to merge with precolored node"
                    : "Briggs test: combined node stays colorable");
  } else {
    Moves[M].State = MoveState::Active;
    ActiveMoves.push_back(M);
  }
}

void ColoringProblem::combine(unsigned U, unsigned V) {
  auto EraseFrom = [&](std::vector<unsigned> &WL) {
    auto It = std::find(WL.begin(), WL.end(), V);
    if (It != WL.end())
      WL.erase(It);
  };
  EraseFrom(FreezeWL);
  EraseFrom(SpillWL);
  State[V] = NodeState::Coalesced;
  Alias[V] = U;
  for (unsigned M : MoveList[V])
    MoveList[U].push_back(M);
  SpillCost[U] += SpillCost[V];
  enableMoves(V);
  std::vector<unsigned> AdjV;
  collectAdjacent(V, AdjV);
  for (unsigned T : AdjV) {
    addEdge(T, U);
    decrementDegree(T);
  }
  if (Degree[U] >= K && State[U] == NodeState::FreezeWL) {
    auto It = std::find(FreezeWL.begin(), FreezeWL.end(), U);
    if (It != FreezeWL.end())
      FreezeWL.erase(It);
    State[U] = NodeState::SpillWL;
    SpillWL.push_back(U);
  }
}

void ColoringProblem::freeze() {
  unsigned N = FreezeWL.back();
  FreezeWL.pop_back();
  if (State[N] != NodeState::FreezeWL)
    return; // stale worklist entry
  State[N] = NodeState::SimplifyWL;
  SimplifyWL.push_back(N);
  freezeMoves(N);
}

void ColoringProblem::freezeMoves(unsigned N) {
  std::vector<unsigned> NM;
  collectNodeMoves(N, NM);
  for (unsigned M : NM) {
    unsigned X = getAlias(Moves[M].Src);
    unsigned Y = getAlias(Moves[M].Dst);
    unsigned Other = getAlias(N) == Y ? X : Y;
    Moves[M].State = MoveState::Frozen;
    if (State[Other] == NodeState::FreezeWL && !moveRelated(Other) &&
        Degree[Other] < K) {
      auto It = std::find(FreezeWL.begin(), FreezeWL.end(), Other);
      if (It != FreezeWL.end())
        FreezeWL.erase(It);
      State[Other] = NodeState::SimplifyWL;
      SimplifyWL.push_back(Other);
    }
  }
}

void ColoringProblem::selectSpill() {
  // Chaitin metric: weighted occurrence count / current degree.
  double Best = std::numeric_limits<double>::infinity();
  unsigned BestIdx = 0;
  for (unsigned I = 0; I < SpillWL.size(); ++I) {
    unsigned N = SpillWL[I];
    double Metric = SpillCost[N] / std::max(1u, Degree[N]);
    if (Metric < Best) {
      Best = Metric;
      BestIdx = I;
    }
  }
  unsigned N = SpillWL[BestIdx];
  SpillWL.erase(SpillWL.begin() + BestIdx);
  State[N] = NodeState::SimplifyWL;
  SimplifyWL.push_back(N);
  freezeMoves(N);
}

void ColoringProblem::assignColors() {
  while (!SelectStack.empty()) {
    unsigned N = SelectStack.back();
    SelectStack.pop_back();
    BitVector Used(NumPRegs);
    for (unsigned A : AdjList[N]) {
      unsigned AA = getAlias(A);
      if (State[AA] == NodeState::Colored ||
          State[AA] == NodeState::Precolored)
        Used.set(Color[AA]);
    }
    unsigned Chosen = ~0u;
    for (unsigned R : TD.allocOrder(RC))
      if (!Used.test(R)) {
        Chosen = R;
        break;
      }
    if (Chosen == ~0u) {
      State[N] = NodeState::Spilled;
      SpilledNodes.push_back(N);
    } else {
      State[N] = NodeState::Colored;
      Color[N] = Chosen;
    }
  }
  for (unsigned N = K; N < NumNodes; ++N)
    if (State[N] == NodeState::Coalesced) {
      unsigned A = getAlias(N);
      if (State[A] == NodeState::Spilled) {
        State[N] = NodeState::Spilled;
        SpilledNodes.push_back(N);
      } else {
        Color[N] = Color[A];
      }
    }
}

void ColoringProblem::rewriteSpills() {
  // Give each spilled temporary a memory home; loads before uses, stores
  // after defs, a fresh block-local temp per reference.
  BitVector IsSpilled(F.numVRegs());
  obs::DecisionLog &DL = obs::DecisionLog::global();
  for (unsigned N : SpilledNodes) {
    unsigned V = NodeToVReg[N - K];
    IsSpilled.set(V);
    EverSpilledV.set(V);
    ++Stats.SpilledTemps;
    if (DL.enabled())
      DL.record(F, obs::DecisionKind::SpillWhole, V, obs::NoValue,
                obs::NoValue, "no color available; whole lifetime to memory");
  }
  for (Block &B : F.blocks()) {
    std::vector<uint32_t> Out;
    Out.reserve(B.size());
    bool Inserted = false;
    for (unsigned Idx = 0; Idx < B.size(); ++Idx) {
      Instr I = B.instrs()[Idx];
      const OpcodeInfo &Info = I.info();
      // One fresh temp per instruction per spilled vreg (shared between a
      // use and a def of the same vreg in the same instruction).
      unsigned CachedV = ~0u, CachedT = ~0u;
      auto FreshTemp = [&](unsigned V) {
        if (CachedV == V)
          return CachedT;
        unsigned T = F.newVReg(RC);
        CachedV = V;
        CachedT = T;
        return T;
      };
      bool DefSpilled = false;
      unsigned DefTemp = ~0u, DefV = ~0u;
      for (unsigned S = Info.NumDefs;
           S < unsigned(Info.NumDefs) + Info.NumUses; ++S) {
        Operand &Op = I.op(S);
        if (!Op.isVReg() || !IsSpilled.test(Op.vregId()) ||
            F.vregClass(Op.vregId()) != RC)
          continue;
        unsigned T = FreshTemp(Op.vregId());
        Instr Ld = Slots.makeLoad(Op.vregId(), 0, SpillKind::EvictLoad);
        Ld.op(0) = Operand::vreg(T);
        Out.push_back(B.makeInstr(Ld));
        Inserted = true;
        ++Stats.EvictLoads;
        Op = Operand::vreg(T);
      }
      if (Info.NumDefs == 1 && I.op(0).isVReg() &&
          IsSpilled.test(I.op(0).vregId()) &&
          F.vregClass(I.op(0).vregId()) == RC) {
        DefV = I.op(0).vregId();
        DefTemp = FreshTemp(DefV);
        I.op(0) = Operand::vreg(DefTemp);
        DefSpilled = true;
      }
      B.instrs()[Idx] = I; // rewritten in place: id preserved
      Out.push_back(B.instrId(Idx));
      if (DefSpilled) {
        Instr St = Slots.makeStore(DefV, 0, SpillKind::EvictStore);
        St.op(0) = Operand::vreg(DefTemp);
        Out.push_back(B.makeInstr(St));
        Inserted = true;
        ++Stats.EvictStores;
      }
    }
    if (Inserted)
      B.setInstrIds(Out);
  }
  // Mark all newly created temps as unspillable.
  BitVector NewST(F.numVRegs());
  for (unsigned V = 0; V < SpillTemp.size(); ++V)
    if (SpillTemp.test(V))
      NewST.set(V);
  for (unsigned V = IsSpilled.size(); V < F.numVRegs(); ++V)
    NewST.set(V);
  SpillTemp = NewST;
}

void ColoringProblem::rewriteOperands() {
  for (Block &B : F.blocks())
    for (Instr &I : B.instrs())
      for (unsigned S = 0; S < 3; ++S) {
        Operand &Op = I.op(S);
        if (!Op.isVReg() || F.vregClass(Op.vregId()) != RC)
          continue;
        unsigned N = VRegToNode[Op.vregId()];
        unsigned A = getAlias(N);
        assert(Color[A] != ~0u && "uncolored node survives");
        Op = Operand::preg(Color[A]);
      }
}

void ColoringProblem::run() {
  SpillTemp.resize(F.numVRegs());
  EverSpilledV.resize(F.numVRegs());
  while (true) {
    ++Stats.ColoringIterations;
    obs::ScopedSpan Round("coloring.round", "phase");
    LSRA_LOG(3, "coloring round=%u vregs=%u", Stats.ColoringIterations,
             F.numVRegs());
    initRound();
    build();
    makeWorklist();
    while (!SimplifyWL.empty() || !WorklistMoves.empty() ||
           !FreezeWL.empty() || !SpillWL.empty()) {
      if (!SimplifyWL.empty())
        simplify();
      else if (!WorklistMoves.empty())
        coalesce();
      else if (!FreezeWL.empty())
        freeze();
      else
        selectSpill();
    }
    assignColors();
    if (SpilledNodes.empty())
      break;
    rewriteSpills();
  }
  rewriteOperands();
}

} // namespace

AllocStats lsra::runGraphColoring(Function &F, const TargetDesc &TD,
                                  const AllocOptions &Opts) {
  FunctionAnalyses FA(F, TD);
  return runGraphColoring(F, TD, Opts, FA);
}

AllocStats lsra::runGraphColoring(Function &F, const TargetDesc &TD,
                                  const AllocOptions &Opts,
                                  FunctionAnalyses &FA) {
  (void)Opts;
  assert(F.CallsLowered && "lower calls before register allocation");
  assert(&FA.function() == &F && "analyses are for a different function");
  AllocStats Stats;
  Stats.RegCandidates = F.numVRegs();
  const Liveness &LV = FA.liveness();
  const LoopInfo &LI = FA.loops();
  SpillSlots Slots(F);
  // The two register files are two separate coloring problems (§3).
  {
    ColoringProblem Ints(F, TD, RegClass::Int, LV, LI, Slots, Stats);
    Ints.run();
  }
  {
    ColoringProblem Fps(F, TD, RegClass::Float, LV, LI, Slots, Stats);
    Fps.run();
  }
  obs::CounterRegistry &CR = obs::CounterRegistry::global();
  if (CR.enabled()) {
    CR.counter("coloring.rounds").add(Stats.ColoringIterations);
    CR.counter("coloring.interference_edges").add(Stats.InterferenceEdges);
  }
  return Stats;
}
