//===- ir/Parser.cpp ------------------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// One pass of a string_view cursor over the text: lines and tokens are views
// into the caller's buffer, numbers go through std::from_chars, and the
// opcode and spill-tag tables are built once per process. Call targets may
// name functions defined later in the text; they are resolved from a fixup
// list once every header has been seen.
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"

#include "target/Target.h"

#include <cctype>
#include <charconv>
#include <string_view>
#include <unordered_map>
#include <vector>

using namespace lsra;

namespace {

/// Declared sizes are bounded by the payload: the memory image, and the
/// vregs= plus slots= counts summed over all functions, may each claim at
/// most one unit per byte of text, plus this floor for small hand-written
/// modules. (The densest program in the corpus, wc, declares 12,000 memory
/// words in 170,010 bytes.)
constexpr uint64_t SizeFloor = 4096;

/// Open-addressing map from short names to values, built once per process.
/// A parse looks up one opcode per line, and std::unordered_map's lookups
/// were about a tenth of parse time in a profile.
template <typename T, unsigned Size> class NameTable {
  static_assert((Size & (Size - 1)) == 0, "Size must be a power of two");

public:
  void add(std::string_view Name, T V) {
    unsigned H = hash(Name);
    while (!Keys[H].empty())
      H = (H + 1) & (Size - 1);
    Keys[H] = Name;
    Vals[H] = V;
  }

  const T *find(std::string_view Name) const {
    for (unsigned H = hash(Name); !Keys[H].empty(); H = (H + 1) & (Size - 1))
      if (Keys[H] == Name)
        return &Vals[H];
    return nullptr;
  }

private:
  static unsigned hash(std::string_view S) {
    unsigned H = static_cast<unsigned>(S.size());
    for (char C : S)
      H = H * 31 + static_cast<unsigned char>(C);
    return H & (Size - 1);
  }

  std::string_view Keys[Size] = {};
  T Vals[Size] = {};
};

const NameTable<Opcode, 128> &opcodeTable() {
  static const NameTable<Opcode, 128> T = [] {
    NameTable<Opcode, 128> T;
    for (unsigned I = 0; I < NumOpcodes; ++I)
      T.add(opcodeName(static_cast<Opcode>(I)), static_cast<Opcode>(I));
    return T;
  }();
  return T;
}

const NameTable<SpillKind, 32> &spillTable() {
  static const NameTable<SpillKind, 32> T = [] {
    NameTable<SpillKind, 32> T;
    for (SpillKind K :
         {SpillKind::EvictLoad, SpillKind::EvictStore, SpillKind::EvictMove,
          SpillKind::ResolveLoad, SpillKind::ResolveStore,
          SpillKind::ResolveMove, SpillKind::CalleeSave,
          SpillKind::CalleeRestore})
      T.add(spillKindName(K), K);
    return T;
  }();
  return T;
}

bool startsWith(std::string_view S, std::string_view Prefix) {
  return S.substr(0, Prefix.size()) == Prefix;
}

enum class NumStatus { Ok, Bad, TooBig };

/// Parse all of \p S as a decimal number of type \p T: no sign, no spaces,
/// no trailing characters (so "%1x" is rejected, not truncated).
template <typename T> NumStatus parseDecimal(std::string_view S, T &Out) {
  if (S.empty() || S[0] < '0' || S[0] > '9')
    return NumStatus::Bad;
  auto [P, Ec] = std::from_chars(S.data(), S.data() + S.size(), Out);
  if (P != S.data() + S.size())
    return NumStatus::Bad;
  if (Ec == std::errc::result_out_of_range)
    return NumStatus::TooBig;
  return Ec == std::errc() ? NumStatus::Ok : NumStatus::Bad;
}

/// Extract the value of "key=value" from a header or call-metadata body
/// like "iparams=2 fparams=0 ret=int vregs=9 slots=0 lowered".
bool headerField(std::string_view Body, std::string_view Key,
                 std::string_view &Out) {
  size_t P = Body.find(Key);
  if (P == std::string_view::npos)
    return false;
  size_t S = P + Key.size();
  size_t E = Body.find_first_of(" )", S);
  Out = Body.substr(S, E == std::string_view::npos ? E : E - S);
  return true;
}

/// One call-target fixup: the instruction names its callee, which may be
/// defined further down the text.
struct CallFixup {
  Function *F;
  uint32_t InstrId;
  std::string_view Callee;
};

class Parser {
public:
  explicit Parser(std::string_view Text)
      : Text(Text), MaxDeclared(Text.size() + SizeFloor) {}

  ParseResult run();

private:
  std::string_view Text;
  size_t NextPos = 0;    ///< offset of the first unread line
  bool Held = false;     ///< nextLine() hands out the current line again
  std::string_view Line; ///< current line, trailing blanks trimmed
  std::string_view Body; ///< Line without its leading spaces
  unsigned LineNo = 0;

  std::unique_ptr<Module> M = std::make_unique<Module>();
  std::unordered_map<std::string_view, unsigned> FuncIds;
  std::vector<CallFixup> Fixups;
  uint64_t MaxDeclared;
  uint64_t DeclaredRegs = 0; ///< vregs= + slots= over the functions so far
  std::vector<uint8_t> FpVReg, FpSlot;
  std::vector<unsigned> Params;
  std::vector<uint32_t> BlockIds; ///< ids of the block being parsed

  std::string Error;
  unsigned ErrLine = 0;
  unsigned ErrCol = 0;
  std::string ErrToken;

  bool failAt(unsigned L, const std::string &Msg) {
    if (Error.empty()) {
      ErrLine = L;
      Error = "line " + std::to_string(L) + ": " + Msg;
    }
    return false;
  }
  bool fail(const std::string &Msg) { return failAt(LineNo, Msg); }

  /// Failure anchored at \p Tok: records the 1-based column where the token
  /// occurs on the current line (servers turn this into structured error
  /// responses; "line N, col C: msg (near 'TOK')").
  bool failTok(const std::string &Msg, std::string_view Tok) {
    if (!Error.empty())
      return false;
    ErrLine = LineNo;
    ErrToken = Tok;
    size_t P = Tok.empty() ? std::string_view::npos : Line.find(Tok);
    if (P != std::string_view::npos)
      ErrCol = static_cast<unsigned>(P) + 1;
    Error = "line " + std::to_string(LineNo);
    if (ErrCol)
      Error += ", col " + std::to_string(ErrCol);
    Error += ": " + Msg;
    if (!Tok.empty())
      Error += " (near '" + ErrToken + "')";
    return false;
  }

  /// Parse \p Digits (part of \p Tok) as a 32-bit id; on failure report
  /// \p BadMsg, or an overflow, at \p Tok.
  bool parseId(std::string_view Tok, std::string_view Digits, unsigned &Out,
               const char *BadMsg) {
    switch (parseDecimal(Digits, Out)) {
    case NumStatus::Ok:
      return true;
    case NumStatus::TooBig:
      return failTok("id does not fit in 32 bits", Tok);
    case NumStatus::Bad:
      break;
    }
    return failTok(BadMsg, Tok);
  }

  /// Parse a declared count and charge it to \p Used against MaxDeclared.
  bool parseDeclared(std::string_view Tok, unsigned &Out, uint64_t &Used,
                     const char *What) {
    if (!parseId(Tok, Tok, Out, ("bad " + std::string(What)).c_str()))
      return false;
    Used += Out;
    if (Used > MaxDeclared)
      return failTok(std::string(What) + " exceeds the size limit for a " +
                         std::to_string(Text.size()) + "-byte module",
                     Tok);
    return true;
  }

  /// Advance to the next line that is neither blank nor a ";" comment
  /// (corpus files carry "; oracle: ..." replay headers).
  bool nextLine() {
    if (Held) {
      Held = false;
      return true;
    }
    while (NextPos < Text.size()) {
      size_t End = Text.find('\n', NextPos);
      if (End == std::string_view::npos)
        End = Text.size();
      std::string_view L = Text.substr(NextPos, End - NextPos);
      NextPos = End + 1;
      ++LineNo;
      while (!L.empty() && (L.back() == ' ' || L.back() == '\r'))
        L.remove_suffix(1);
      size_t First = L.find_first_not_of(' ');
      if (First != std::string_view::npos && L[First] != ';') {
        Line = L;
        Body = L.substr(First);
        return true;
      }
    }
    return false;
  }

  bool parseTopLevel();
  bool parseMem();
  bool parseFunction();
  bool parseDeclarations(Function &F, unsigned NumV, unsigned NumS);
  bool parseFunctionBody(Function &F);
  bool parseInstr(Function &F, Block &B);
  bool parseCallArgs(std::string_view Meta, std::string_view Key,
                     uint8_t &Out);
  bool parseOperand(std::string_view Tok, Opcode Op, unsigned Slot,
                    Operand &Out, std::string_view &Callee);
};

bool Parser::parseTopLevel() {
  while (nextLine()) {
    if (startsWith(Body, "mem ")) {
      if (!parseMem())
        return false;
    } else if (startsWith(Body, "memsize ")) {
      std::string_view Tok = Body.substr(8);
      unsigned Words = 0;
      uint64_t Used = 0;
      if (!parseDeclared(Tok, Words, Used, "memsize"))
        return false;
      M->reserveMemory(Words);
    } else if (startsWith(Body, "func ")) {
      if (!parseFunction())
        return false;
    } else {
      return failTok("unexpected top-level line", Body.substr(0, Body.find(' ')));
    }
  }
  return true;
}

bool Parser::parseMem() {
  // "mem ADDR 0xVALUE"
  std::string_view S = Body.substr(4);
  auto SkipSpaces = [&] {
    while (!S.empty() && S[0] == ' ')
      S.remove_prefix(1);
  };
  SkipSpaces();
  std::string_view AddrTok = S.substr(0, S.find(' '));
  S.remove_prefix(AddrTok.size());
  SkipSpaces();
  uint64_t Val = 0;
  if (!startsWith(S, "0x"))
    return fail("bad mem line");
  const char *End = S.data() + S.size();
  auto [P, Ec] = std::from_chars(S.data() + 2, End, Val, 16);
  if (Ec != std::errc() || P != End)
    return fail("bad mem line");
  unsigned Addr = 0;
  switch (parseDecimal(AddrTok, Addr)) {
  case NumStatus::Bad:
    return fail("bad mem line");
  case NumStatus::TooBig:
    return failTok("mem address out of range", AddrTok);
  case NumStatus::Ok:
    break;
  }
  // In 64 bits, so the highest 32-bit address cannot wrap to zero.
  if (uint64_t(Addr) + 1 > MaxDeclared)
    return failTok("mem address exceeds the size limit for a " +
                       std::to_string(Text.size()) + "-byte module",
                   AddrTok);
  M->reserveMemory(Addr + 1);
  M->InitialMemory[Addr] = Val;
  return true;
}

bool Parser::parseFunction() {
  // "func NAME (iparams=I fparams=P ret=K vregs=V slots=S [lowered])"
  size_t NameEnd = Body.find(' ', 5);
  if (NameEnd == std::string_view::npos)
    return fail("malformed func header");
  std::string_view Name = Body.substr(5, NameEnd - 5);
  std::string_view Ret, VRegs, Slots;
  if (!headerField(Body, "ret=", Ret) || !headerField(Body, "vregs=", VRegs) ||
      !headerField(Body, "slots=", Slots))
    return failTok("func header missing ret=/vregs=/slots=", "func");
  if (!FuncIds.emplace(Name, M->numFunctions()).second)
    return failTok("duplicate function name", Name);
  unsigned NumV = 0, NumS = 0;
  if (!parseDeclared(VRegs, NumV, DeclaredRegs, "vregs= count") ||
      !parseDeclared(Slots, NumS, DeclaredRegs, "slots= count"))
    return false;

  Function &F = M->addFunction(std::string(Name));
  F.RetKind = Ret == "int"  ? CallRetKind::Int
              : Ret == "fp" ? CallRetKind::Float
                            : CallRetKind::None;
  F.CallsLowered = Body.find(" lowered") != std::string_view::npos;
  return parseDeclarations(F, NumV, NumS) && parseFunctionBody(F);
}

bool Parser::parseDeclarations(Function &F, unsigned NumV, unsigned NumS) {
  // Optional "fpvregs:", "fpslots:" and "params:" lines before the first
  // block header.
  FpVReg.assign(NumV, 0);
  FpSlot.assign(NumS, 0);
  Params.clear();
  unsigned LastDecl = LineNo;
  while (nextLine()) {
    char Kind;
    if (startsWith(Body, "fpvregs:"))
      Kind = 'v';
    else if (startsWith(Body, "fpslots:"))
      Kind = 's';
    else if (startsWith(Body, "params:"))
      Kind = 'p';
    else {
      Held = true; // not a declaration: the body parser takes this line
      break;
    }
    LastDecl = LineNo;
    std::string_view Rest = Body.substr(Body.find(':') + 1);
    while (true) {
      size_t B = 0;
      while (B < Rest.size() && std::isspace(static_cast<unsigned char>(Rest[B])))
        ++B;
      if (B == Rest.size())
        break;
      size_t E = B;
      while (E < Rest.size() && !std::isspace(static_cast<unsigned char>(Rest[E])))
        ++E;
      std::string_view Tok = Rest.substr(B, E - B);
      Rest.remove_prefix(E);
      unsigned Id = 0;
      if (Kind == 'p') {
        if (Tok[0] != '%')
          return failTok("bad params entry", Tok);
        if (!parseId(Tok, Tok.substr(1), Id, "bad params entry"))
          return false;
        Params.push_back(Id);
      } else if (Kind == 'v') {
        if (Tok[0] != '%')
          return failTok("bad fpvregs entry", Tok);
        if (!parseId(Tok, Tok.substr(1), Id, "bad fpvregs entry"))
          return false;
        if (Id >= NumV)
          return failTok("fpvregs id out of range", Tok);
        FpVReg[Id] = 1;
      } else {
        if (Tok[0] != 's')
          return failTok("bad fpslots entry", Tok);
        if (!parseId(Tok, Tok.substr(1), Id, "bad fpslots entry"))
          return false;
        if (Id >= NumS)
          return failTok("fpslots id out of range", Tok);
        FpSlot[Id] = 1;
      }
    }
  }

  for (unsigned V = 0; V < NumV; ++V)
    F.newVReg(FpVReg[V] ? RegClass::Float : RegClass::Int);
  for (unsigned S = 0; S < NumS; ++S)
    F.newSlot(FpSlot[S] ? RegClass::Float : RegClass::Int);
  for (unsigned V : Params) {
    if (V >= NumV)
      return failAt(LastDecl, "param vreg out of range");
    (F.vregClass(V) == RegClass::Float ? F.FpParamVRegs : F.IntParamVRegs)
        .push_back(V);
  }
  return true;
}

bool Parser::parseFunctionBody(Function &F) {
  // Each block's instruction ids are collected here and handed to the
  // block once, when it ends: one exact-size allocation per block.
  Block *Cur = nullptr;
  auto EndBlock = [&] {
    if (Cur)
      Cur->setInstrIds(BlockIds);
    BlockIds.clear();
  };
  while (nextLine()) {
    if (startsWith(Body, "func ") || startsWith(Body, "mem")) {
      Held = true; // the next top-level entity
      break;
    }
    if (startsWith(Body, "bb") && Body.back() == ':' &&
        Body.find(" (") != std::string_view::npos) {
      // "bbN (name):"
      size_t NameStart = Body.find(" (") + 2;
      size_t NameEnd = Body.rfind("):");
      unsigned Id = 0;
      auto [P, Ec] =
          std::from_chars(Body.data() + 2, Body.data() + Body.size(), Id);
      (void)P;
      if (Ec == std::errc::result_out_of_range || Id != F.numBlocks())
        return fail("block ids must be dense and in order");
      EndBlock();
      Cur = &F.addBlock(
          std::string(Body.substr(NameStart, NameEnd - NameStart)));
      continue;
    }
    if (!Cur)
      return fail("instruction outside any block");
    if (!parseInstr(F, *Cur))
      return false;
  }
  EndBlock();
  return true;
}

bool Parser::parseCallArgs(std::string_view Meta, std::string_view Key,
                           uint8_t &Out) {
  std::string_view V;
  if (!headerField(Meta, Key, V))
    return true;
  unsigned N = 0;
  if (parseDecimal(V, N) != NumStatus::Ok || N > TargetDesc::NumArgRegs)
    return failTok("bad call argument count", V);
  Out = static_cast<uint8_t>(N);
  return true;
}

bool Parser::parseInstr(Function &F, Block &B) {
  std::string_view S = Body;

  // Spill tag comment: "...  ; evict-store". Most lines have no ';' at
  // all, which one memchr settles.
  SpillKind Spill = SpillKind::None;
  size_t Semi = std::string_view::npos;
  if (S.find(';') != std::string_view::npos) {
    Semi = S.find("  ; ");
    if (Semi == std::string_view::npos)
      Semi = S.find(" ; ");
  }
  if (Semi != std::string_view::npos) {
    std::string_view Tag = S.substr(S.find("; ", Semi) + 2);
    const SpillKind *K = spillTable().find(Tag);
    if (!K)
      return failTok("unknown spill tag", Tag);
    Spill = *K;
    S = S.substr(0, Semi);
  }

  // Call metadata: "...  (iargs=N fargs=M)".
  uint8_t IArgs = 0, FArgs = 0;
  size_t Paren = S.find('(') == std::string_view::npos
                     ? std::string_view::npos
                     : S.find("  (iargs=");
  if (Paren != std::string_view::npos) {
    std::string_view Meta = S.substr(Paren);
    if (!parseCallArgs(Meta, "iargs=", IArgs) ||
        !parseCallArgs(Meta, "fargs=", FArgs))
      return false;
    S = S.substr(0, Paren);
  }
  while (!S.empty() && S.back() == ' ')
    S.remove_suffix(1);

  // "opcode op1, op2, op3".
  size_t Sp = S.find(' ');
  std::string_view OpName = S.substr(0, Sp);
  const Opcode *OpP = opcodeTable().find(OpName);
  if (!OpP)
    return failTok("unknown opcode", OpName);
  Opcode Op = *OpP;

  Instr I(Op);
  I.Spill = Spill;
  I.CallIntArgs = IArgs;
  I.CallFpArgs = FArgs;

  std::string_view Callee;
  if (Sp != std::string_view::npos) {
    std::string_view Rest = S.substr(Sp + 1);
    unsigned Slot = 0;
    size_t Pos = 0;
    while (Pos <= Rest.size() && Slot < 3) {
      size_t Comma = Rest.find(", ", Pos);
      std::string_view Tok = Rest.substr(
          Pos, Comma == std::string_view::npos ? Comma : Comma - Pos);
      if (!Tok.empty() && !parseOperand(Tok, Op, Slot, I.op(Slot), Callee))
        return false;
      ++Slot;
      if (Comma == std::string_view::npos)
        break;
      Pos = Comma + 2;
    }
  }

  uint32_t Id = B.makeInstr(I);
  BlockIds.push_back(Id);
  if (Op == Opcode::Call)
    Fixups.push_back({&F, Id, Callee});
  return true;
}

bool Parser::parseOperand(std::string_view Tok, Opcode Op, unsigned Slot,
                          Operand &Out, std::string_view &Callee) {
  unsigned N = 0;
  switch (Tok[0]) {
  case '_':
    if (Tok.size() != 1)
      break;
    Out = Operand::none();
    return true;
  case '%':
    if (!parseId(Tok, Tok.substr(1), N, "bad vreg operand"))
      return false;
    Out = Operand::vreg(N);
    return true;
  case '$': {
    bool Fp = Tok.size() > 1 && Tok[1] == 'f';
    if (!parseId(Tok, Tok.substr(Fp ? 2 : 1), N, "bad preg operand"))
      return false;
    if (N >= (Fp ? NumFpPRegs : NumIntPRegs))
      return failTok("preg out of range", Tok);
    Out = Operand::preg(Fp ? fpReg(N) : intReg(N));
    return true;
  }
  case '[':
    // "[sN]"
    if (Tok.back() != ']' || Tok.size() < 4 || Tok[1] != 's')
      return failTok("bad slot operand", Tok);
    if (!parseId(Tok, Tok.substr(2, Tok.size() - 3), N, "bad slot operand"))
      return false;
    Out = Operand::slot(N);
    return true;
  case '@':
    if (Tok.size() < 2)
      return failTok("empty call target", Tok);
    Callee = Tok.substr(1);
    Out = Operand::func(0); // fixed up once all functions are known
    return true;
  case 'b':
    if (Tok.size() > 2 && Tok[1] == 'b' && Tok[2] >= '0' && Tok[2] <= '9') {
      if (!parseId(Tok, Tok.substr(2), N, "bad label operand"))
        return false;
      Out = Operand::label(N);
      return true;
    }
    break;
  default:
    break;
  }
  // Numeric: a float immediate only in MovF's value slot.
  const char *End = Tok.data() + Tok.size();
  if (Op == Opcode::MovF && Slot == 1) {
    double D = 0;
    auto [P, Ec] = std::from_chars(Tok.data(), End, D);
    if (Ec != std::errc() || P != End)
      return failTok("bad float immediate", Tok);
    Out = Operand::fimm(D);
    return true;
  }
  int64_t V = 0;
  auto [P, Ec] = std::from_chars(Tok.data(), End, V);
  if (Ec != std::errc() || P != End)
    return failTok("bad operand", Tok);
  Out = Operand::imm(V);
  return true;
}

ParseResult Parser::run() {
  auto MakeError = [this]() {
    ParseResult R;
    R.Error = Error;
    R.ErrLine = ErrLine;
    R.ErrCol = ErrCol;
    R.ErrToken = ErrToken;
    return R;
  };
  if (!parseTopLevel())
    return MakeError();
  if (M->numFunctions() == 0) {
    Error = "empty module: no functions";
    return MakeError();
  }

  // Resolve call targets and their return-kind metadata.
  for (const CallFixup &Fx : Fixups) {
    auto It = FuncIds.find(Fx.Callee);
    if (It == FuncIds.end()) {
      ErrToken = "@" + std::string(Fx.Callee);
      Error = "unknown call target '" + ErrToken + "'";
      return MakeError();
    }
    const Function &Callee = M->function(It->second);
    Instr &I = Fx.F->instrPool().get(Fx.InstrId);
    I.op(0) = Operand::func(Callee.id());
    I.CallRet = Callee.RetKind;
  }
  return {std::move(M), "", 0, 0, ""};
}

} // namespace

ParseResult lsra::parseModule(const std::string &Text) {
  return Parser(Text).run();
}
