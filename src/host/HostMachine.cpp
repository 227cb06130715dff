//===- host/HostMachine.cpp - Simulated host CPU ---------------------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//

#include "host/HostMachine.h"

#include "support/Bits.h"

#include <cassert>
#include <cstddef>

using std::size_t;

using namespace rdbt;
using namespace rdbt::host;

PhysPort::~PhysPort() = default;
HelperHandler::~HelperHandler() = default;
WallSink::~WallSink() = default;
CodeSource::~CodeSource() = default;

const char *host::hopName(HOp Op) {
  switch (Op) {
  case HOp::Nop: return "nop";
  case HOp::Marker: return "marker";
  case HOp::Mov: return "mov";
  case HOp::LdEnv: return "ldenv";
  case HOp::StEnv: return "stenv";
  case HOp::StEnvI: return "stenvi";
  case HOp::Add: return "add";
  case HOp::Adc: return "adc";
  case HOp::Sub: return "sub";
  case HOp::Sbc: return "sbb";
  case HOp::Rsb: return "rsb";
  case HOp::And: return "and";
  case HOp::Or: return "or";
  case HOp::Xor: return "xor";
  case HOp::Bic: return "andn";
  case HOp::Shl: return "shl";
  case HOp::Shr: return "shr";
  case HOp::Sar: return "sar";
  case HOp::Ror: return "ror";
  case HOp::Neg: return "neg";
  case HOp::Not: return "not";
  case HOp::Mul: return "imul";
  case HOp::MulLU: return "mull";
  case HOp::MulLS: return "imull";
  case HOp::Clz: return "lzcnt";
  case HOp::Cmp: return "cmp";
  case HOp::Cmn: return "cmn";
  case HOp::Test: return "test";
  case HOp::SetCc: return "set";
  case HOp::PackF: return "lahf";
  case HOp::UnpackF: return "sahf";
  case HOp::Jcc: return "j";
  case HOp::Jmp: return "jmp";
  case HOp::TlbCmp: return "tlbcmp";
  case HOp::TlbPhys: return "tlbphys";
  case HOp::GLoad: return "gld";
  case HOp::GStore: return "gst";
  case HOp::CallHelper: return "call";
  case HOp::ChainSlot: return "chain";
  case HOp::ExitTb: return "exit_tb";
  }
  return "<bad>";
}

const char *host::hcondName(HCond Cc) {
  switch (Cc) {
  case HCond::Eq: return "e";
  case HCond::Ne: return "ne";
  case HCond::Cs: return "ae";
  case HCond::Cc: return "b";
  case HCond::Mi: return "s";
  case HCond::Pl: return "ns";
  case HCond::Vs: return "o";
  case HCond::Vc: return "no";
  case HCond::Hi: return "a";
  case HCond::Ls: return "be";
  case HCond::Ge: return "ge";
  case HCond::Lt: return "l";
  case HCond::Gt: return "g";
  case HCond::Le: return "le";
  case HCond::Al: return "mp";
  }
  return "?";
}

HostMachine::HostMachine(uint32_t *EnvWords, uint32_t Size, PhysPort &M,
                         HelperHandler &H, WallSink &W, uint16_t MmuSlot,
                         uint32_t TlbBase, uint32_t EntryWords,
                         uint32_t HalfEntries)
    : Env(EnvWords), EnvSize(Size), Mem(M), Helpers(H), Wall(W),
      MmuIdxSlot(MmuSlot), TlbBaseSlot(TlbBase), TlbEntryWords(EntryWords),
      TlbHalfEntries(HalfEntries) {}

uint32_t HostMachine::packedFlags() const {
  return (FN ? 1u << 31 : 0) | (FZ ? 1u << 30 : 0) | (FC ? 1u << 29 : 0) |
         (FV ? 1u << 28 : 0);
}

void HostMachine::setPackedFlags(uint32_t Nzcv) {
  FN = (Nzcv >> 31) & 1;
  FZ = (Nzcv >> 30) & 1;
  FC = (Nzcv >> 29) & 1;
  FV = (Nzcv >> 28) & 1;
}

void HostMachine::charge(const HInst &H, uint64_t Cost) {
  Counters.Wall += Cost;
  Counters.ByClass[static_cast<unsigned>(H.Cls)] += Cost;
  if (Counters.Wall >= NextDeadline)
    NextDeadline = Wall.onWall(Counters.Wall);
}

uint32_t HostMachine::tlbWord(uint32_t Index, uint32_t FieldWord) const {
  // Translators mask Index and MmuIdx is 0 or 1, so masking again changes
  // nothing for them; it keeps code from a crafted cache file (which can
  // probe with any register, or store to the MmuIdx slot) inside the TLB.
  const uint32_t MmuIdx = Env[MmuIdxSlot] & 1;
  const uint32_t Slot = TlbBaseSlot +
                        MmuIdx * TlbHalfEntries * TlbEntryWords +
                        (Index & (TlbHalfEntries - 1)) * TlbEntryWords +
                        FieldWord;
  assert(Slot < EnvSize && "TLB slot out of env");
  return Env[Slot];
}

void HostMachine::ldEnv(uint8_t Dst, uint32_t Slot) {
  assert(Slot < EnvSize);
  R_[Dst] = Env[Slot];
}

void HostMachine::stEnv(uint32_t Slot, uint32_t V) {
  assert(Slot < EnvSize);
  Env[Slot] = V;
}

void HostMachine::addSub(HOp Op, bool SetFlags, uint8_t Dst,
                         uint32_t Operand) {
  const uint32_t A = R_[Dst];
  uint32_t Lhs = A, Rhs = Operand, CarryIn = 0;
  switch (Op) {
  case HOp::Adc:
    CarryIn = FC;
    break;
  case HOp::Sub:
  case HOp::Cmp:
    Rhs = ~Operand;
    CarryIn = 1;
    break;
  case HOp::Sbc:
    Rhs = ~Operand;
    CarryIn = FC;
    break;
  case HOp::Rsb:
    Lhs = Operand;
    Rhs = ~A;
    CarryIn = 1;
    break;
  default: // Add, Cmn
    break;
  }
  const uint64_t Wide =
      static_cast<uint64_t>(Lhs) + static_cast<uint64_t>(Rhs) + CarryIn;
  const uint32_t Result = static_cast<uint32_t>(Wide);
  if (SetFlags || Op == HOp::Cmp || Op == HOp::Cmn) {
    FN = Result >> 31;
    FZ = Result == 0;
    FC = Wide != Result;
    const int64_t SWide = static_cast<int64_t>(static_cast<int32_t>(Lhs)) +
                          static_cast<int64_t>(static_cast<int32_t>(Rhs)) +
                          CarryIn;
    FV = SWide != static_cast<int32_t>(Result);
  }
  if (Op != HOp::Cmp && Op != HOp::Cmn)
    R_[Dst] = Result;
}

void HostMachine::logic(HOp Op, bool SetFlags, uint8_t Dst,
                        uint32_t Operand) {
  const uint32_t A = R_[Dst];
  uint32_t Result = 0;
  switch (Op) {
  case HOp::Or:
    Result = A | Operand;
    break;
  case HOp::Xor:
    Result = A ^ Operand;
    break;
  case HOp::Bic:
    Result = A & ~Operand;
    break;
  default: // And, Test
    Result = A & Operand;
    break;
  }
  if (SetFlags || Op == HOp::Test) {
    FN = Result >> 31;
    FZ = Result == 0;
  }
  if (Op != HOp::Test)
    R_[Dst] = Result;
}

void HostMachine::shift(HOp Op, bool SetFlags, uint8_t Dst,
                        uint32_t Operand) {
  const uint32_t A = R_[Dst];
  const uint32_t Amount = Operand & 0xFF;
  uint32_t Result = A;
  bool CarryOut = FC;
  if (Amount != 0) {
    const unsigned Amt = Amount > 32 ? 32 : Amount;
    switch (Op) {
    case HOp::Shl:
      Result = Amount >= 32 ? 0 : A << Amount;
      CarryOut = Amount > 32 ? 0 : (A >> (32 - Amt)) & 1;
      break;
    case HOp::Shr:
      Result = Amount >= 32 ? 0 : A >> Amount;
      CarryOut = Amount > 32 ? 0 : (A >> (Amt - 1)) & 1;
      break;
    case HOp::Sar: {
      const unsigned Eff = Amount >= 32 ? 31 : Amount;
      Result = static_cast<uint32_t>(static_cast<int32_t>(A) >>
                                     static_cast<int32_t>(Eff));
      if (Amount >= 32)
        Result = A >> 31 ? 0xFFFFFFFFu : 0;
      CarryOut = Amount >= 32 ? (A >> 31) & 1 : (A >> (Amount - 1)) & 1;
      break;
    }
    default: // Ror
      Result = rotr32(A, Amount);
      CarryOut = (Result >> 31) & 1;
      break;
    }
    if (SetFlags) {
      FN = Result >> 31;
      FZ = Result == 0;
      FC = CarryOut;
    }
  }
  R_[Dst] = Result;
}

void HostMachine::tlbCmp(uint8_t IdxReg, uint8_t VpnReg, bool IsWrite) {
  const uint32_t Tag = tlbWord(R_[IdxReg], IsWrite ? 1 : 0);
  const uint32_t Vpn = R_[VpnReg];
  const uint32_t Result = Tag - Vpn;
  FN = Result >> 31;
  FZ = Result == 0;
  FC = Tag >= Vpn;
  FV = (((Tag ^ Vpn) & (Tag ^ Result)) >> 31) & 1;
}

void HostMachine::gLoad(uint8_t Dst, uint8_t AddrReg, unsigned Size) {
  uint32_t Value = 0;
  [[maybe_unused]] const bool Ok = Mem.read(R_[AddrReg], Size, Value);
  assert(Ok && "GLoad after TLB hit must target RAM");
  R_[Dst] = Value;
}

void HostMachine::gStore(uint8_t DataReg, uint8_t AddrReg, unsigned Size) {
  [[maybe_unused]] const bool Ok = Mem.write(R_[AddrReg], Size, R_[DataReg]);
  assert(Ok && "GStore after TLB hit must target RAM");
}

HelperHandler::Outcome HostMachine::callHelper(const HInst &H) {
  ++Counters.HelperCalls;
  const HelperHandler::Outcome Out =
      Helpers.call(H.Helper, R_[H.Src], R_[H.Src2], H.GuestPc);
  charge(H, Out.Cost);
  if (Out.HasResult)
    R_[H.Dst] = Out.Result;
  return Out;
}

void HostMachine::exec(const HInst &H) {
  switch (H.Op) {
  case HOp::Nop:
    break;
  case HOp::Mov:
    R_[H.Dst] = aluOperand(H);
    break;
  case HOp::LdEnv:
    ldEnv(H.Dst, H.Slot);
    break;
  case HOp::StEnv:
    stEnv(H.Slot, R_[H.Src]);
    break;
  case HOp::StEnvI:
    stEnv(H.Slot, static_cast<uint32_t>(H.Imm));
    break;
  case HOp::Add:
  case HOp::Adc:
  case HOp::Sub:
  case HOp::Sbc:
  case HOp::Rsb:
  case HOp::Cmp:
  case HOp::Cmn:
    addSub(H.Op, H.SetFlags, H.Dst, aluOperand(H));
    break;
  case HOp::And:
  case HOp::Or:
  case HOp::Xor:
  case HOp::Bic:
  case HOp::Test:
    logic(H.Op, H.SetFlags, H.Dst, aluOperand(H));
    break;
  case HOp::Shl:
  case HOp::Shr:
  case HOp::Sar:
  case HOp::Ror:
    shift(H.Op, H.SetFlags, H.Dst, aluOperand(H));
    break;
  case HOp::Neg:
    R_[H.Dst] = 0u - R_[H.Dst];
    if (H.SetFlags) {
      FN = R_[H.Dst] >> 31;
      FZ = R_[H.Dst] == 0;
    }
    break;
  case HOp::Not:
    R_[H.Dst] = ~R_[H.Dst];
    break;
  case HOp::Mul: {
    const uint32_t Result = R_[H.Dst] * aluOperand(H);
    R_[H.Dst] = Result;
    if (H.SetFlags) {
      FN = Result >> 31;
      FZ = Result == 0;
    }
    break;
  }
  case HOp::MulLU:
  case HOp::MulLS: {
    uint64_t Wide;
    if (H.Op == HOp::MulLU)
      Wide = static_cast<uint64_t>(R_[H.Dst]) *
             static_cast<uint64_t>(R_[H.Src]);
    else
      Wide = static_cast<uint64_t>(
          static_cast<int64_t>(static_cast<int32_t>(R_[H.Dst])) *
          static_cast<int64_t>(static_cast<int32_t>(R_[H.Src])));
    R_[H.Dst] = static_cast<uint32_t>(Wide);
    R_[H.Src2] = static_cast<uint32_t>(Wide >> 32);
    if (H.SetFlags) {
      FN = (Wide >> 63) & 1;
      FZ = Wide == 0;
    }
    break;
  }
  case HOp::Clz:
    R_[H.Dst] = countLeadingZeros32(R_[H.Src]);
    break;
  case HOp::SetCc:
    R_[H.Dst] = hcondHolds(H.Cc, FN, FZ, FC, FV) ? 1u : 0u;
    break;
  case HOp::PackF:
    R_[H.Dst] = packedFlags();
    break;
  case HOp::UnpackF:
    setPackedFlags(R_[H.Dst]);
    break;
  case HOp::TlbCmp:
    tlbCmp(H.Src, H.Src2, H.AccIsWrite);
    break;
  case HOp::TlbPhys:
    R_[H.Dst] = tlbWord(R_[H.Src], 2);
    break;
  case HOp::GLoad:
    gLoad(H.Dst, H.Src, H.Size);
    break;
  case HOp::GStore:
    gStore(H.Dst, H.Src, H.Size);
    break;
  case HOp::Marker:
  case HOp::Jcc:
  case HOp::Jmp:
  case HOp::CallHelper:
  case HOp::ChainSlot:
  case HOp::ExitTb:
    assert(false && "markers and control ops never reach exec()");
    break;
  }
}

bool HostMachine::enterBlock(CodeSource &Src, int Tb, TbView &T) {
  T = Src.enter(Tb);
  if (!T.Block)
    return false;
  const HostBlock &B = *T.Block;
  ++Counters.TbEntries;
  Counters.GuestInstrs += B.NumGuestInstrs;
  Counters.GuestMemInstrs += B.NumMemInstrs;
  Counters.GuestSysInstrs += B.NumSysInstrs;
  Counters.IrqChecks += B.NumIrqChecks;
  if (TbExecs) {
    if (static_cast<size_t>(Tb) >= TbExecs->size())
      TbExecs->resize(Tb + 1, 0);
    ++(*TbExecs)[Tb];
  }
  return true;
}

// Op dispatch in runLowered(): with GNU C++ every handler jumps straight
// to the next op's handler through a label table (computed goto);
// elsewhere a switch in a loop does the same job.
#if defined(__GNUC__)
#define RDBT_OP(K) Op_##K
#define RDBT_DISPATCH() goto *Handlers[static_cast<unsigned>(Op->K)]
#else
#define RDBT_OP(K) case LKind::K
#define RDBT_DISPATCH() goto Dispatch
#endif
#define RDBT_NEXT()                                                            \
  do {                                                                         \
    ++Op;                                                                      \
    RDBT_DISPATCH();                                                           \
  } while (false)

bool HostMachine::runLowered(CodeSource &Src, TbView &T, int &CurTb,
                             size_t &I, uint64_t &Executed, RunResult &Res) {
#if defined(__GNUC__)
  static const void *const Handlers[] = {
#define RDBT_OP_LABEL(K) &&Op_##K,
      RDBT_LOWERED_KINDS(RDBT_OP_LABEL)
#undef RDBT_OP_LABEL
  };
#endif
  const LoweredBlock *Low = T.Lowered;
  int32_t Seg = Low->SegmentAt[I];
  const LOp *Op;

Segment: {
  const LoweredBlock::Segment &S = Low->Segments[Seg];
  // Charging the segment whole is exact only if the op-by-op path would
  // neither call onWall nor trip the runaway guard anywhere inside it.
  if (Counters.Wall + S.Cost >= NextDeadline ||
      Executed + S.Len > MaxInstrsPerRun) {
    I = S.Begin;
    return false;
  }
  if (S.ElideCheck) {
    const int End = T.Links->elidedRangeEnd(*T.Block, S.Begin);
    if (End >= 0) {
      Seg = Low->SegmentAt[End];
      goto Segment;
    }
  }
  Counters.Wall += S.Cost;
  for (unsigned C = 0; C < NumCostClasses; ++C)
    Counters.ByClass[C] += S.ByClass[C];
  Counters.SyncOps += S.SyncOps;
  Executed += S.Len;
  Op = &Low->Ops[S.FirstOp];
}

  RDBT_DISPATCH();
#if !defined(__GNUC__)
Dispatch:
  switch (Op->K) {
#endif

RDBT_OP(Generic):
  exec(T.Block->Code[Op->Imm]);
  RDBT_NEXT();
RDBT_OP(MovR):
  R_[Op->Dst] = R_[Op->Src];
  RDBT_NEXT();
RDBT_OP(MovI):
  R_[Op->Dst] = Op->Imm;
  RDBT_NEXT();
RDBT_OP(LdEnv):
  ldEnv(Op->Dst, Op->Slot);
  RDBT_NEXT();
RDBT_OP(StEnv):
  stEnv(Op->Slot, R_[Op->Src]);
  RDBT_NEXT();
RDBT_OP(StEnvI):
  stEnv(Op->Slot, Op->Imm);
  RDBT_NEXT();
RDBT_OP(AddR):
  addSub(HOp::Add, false, Op->Dst, R_[Op->Src]);
  RDBT_NEXT();
RDBT_OP(AddI):
  addSub(HOp::Add, false, Op->Dst, Op->Imm);
  RDBT_NEXT();
RDBT_OP(SubI):
  addSub(HOp::Sub, false, Op->Dst, Op->Imm);
  RDBT_NEXT();
RDBT_OP(SubIF):
  addSub(HOp::Sub, true, Op->Dst, Op->Imm);
  RDBT_NEXT();
RDBT_OP(CmpR):
  addSub(HOp::Cmp, true, Op->Dst, R_[Op->Src]);
  RDBT_NEXT();
RDBT_OP(CmpI):
  addSub(HOp::Cmp, true, Op->Dst, Op->Imm);
  RDBT_NEXT();
RDBT_OP(AndR):
  logic(HOp::And, false, Op->Dst, R_[Op->Src]);
  RDBT_NEXT();
RDBT_OP(AndI):
  logic(HOp::And, false, Op->Dst, Op->Imm);
  RDBT_NEXT();
RDBT_OP(OrR):
  logic(HOp::Or, false, Op->Dst, R_[Op->Src]);
  RDBT_NEXT();
RDBT_OP(XorR):
  logic(HOp::Xor, false, Op->Dst, R_[Op->Src]);
  RDBT_NEXT();
RDBT_OP(BicR):
  logic(HOp::Bic, false, Op->Dst, R_[Op->Src]);
  RDBT_NEXT();
RDBT_OP(Not):
  R_[Op->Dst] = ~R_[Op->Dst];
  RDBT_NEXT();
RDBT_OP(ShlI):
  shift(HOp::Shl, false, Op->Dst, Op->Imm);
  RDBT_NEXT();
RDBT_OP(ShrI):
  shift(HOp::Shr, false, Op->Dst, Op->Imm);
  RDBT_NEXT();
RDBT_OP(TestR):
  logic(HOp::Test, false, Op->Dst, R_[Op->Src]);
  RDBT_NEXT();
RDBT_OP(TestI):
  logic(HOp::Test, false, Op->Dst, Op->Imm);
  RDBT_NEXT();
RDBT_OP(SetCc):
  R_[Op->Dst] =
      hcondHolds(static_cast<HCond>(Op->Aux), FN, FZ, FC, FV) ? 1u : 0u;
  RDBT_NEXT();
RDBT_OP(PackF):
  R_[Op->Dst] = packedFlags();
  RDBT_NEXT();
RDBT_OP(UnpackF):
  setPackedFlags(R_[Op->Dst]);
  RDBT_NEXT();
RDBT_OP(TlbCmpR):
  tlbCmp(Op->Src, Op->Aux, false);
  RDBT_NEXT();
RDBT_OP(TlbCmpW):
  tlbCmp(Op->Src, Op->Aux, true);
  RDBT_NEXT();
RDBT_OP(TlbPhys):
  R_[Op->Dst] = tlbWord(R_[Op->Src], 2);
  RDBT_NEXT();
RDBT_OP(GLoad):
  gLoad(Op->Dst, Op->Src, Op->Aux);
  RDBT_NEXT();
RDBT_OP(GStore):
  gStore(Op->Dst, Op->Src, Op->Aux);
  RDBT_NEXT();

RDBT_OP(Fall):
  ++Seg;
  goto Segment;
RDBT_OP(Jcc):
  Seg = hcondHolds(static_cast<HCond>(Op->Aux), FN, FZ, FC, FV)
            ? static_cast<int32_t>(Op->Imm)
            : Seg + 1;
  goto Segment;
RDBT_OP(Jmp):
  Seg = static_cast<int32_t>(Op->Imm);
  goto Segment;
RDBT_OP(Call): {
  const HelperHandler::Outcome Out = callHelper(T.Block->Code[Op->Imm]);
  if (Out.Exit) {
    Res = {Out.Reason, 0, CurTb, 0};
    return true;
  }
  ++Seg;
  goto Segment;
}
RDBT_OP(Exit):
  Res = {static_cast<ExitReason>(Op->Aux), 0, CurTb, Op->Src};
  return true;
RDBT_OP(Chain): {
  const int Next = T.Links->Target[Op->Aux];
  if (Next < 0) {
    ++Seg; // unresolved: fall into the exit epilogue
    goto Segment;
  }
  if (!enterBlock(Src, Next, T)) {
    Res = {ExitReason::InvalidBlock, 0, Next, 0};
    return true;
  }
  CurTb = Next;
  ++Counters.ChainFollows;
  if (!T.Lowered) {
    I = 0;
    return false;
  }
  Low = T.Lowered;
  Seg = 0;
  goto Segment;
}
#if !defined(__GNUC__)
  }
  return false; // unreachable: every op kind has a handler
#endif
}

#undef RDBT_NEXT
#undef RDBT_DISPATCH
#undef RDBT_OP

RunResult HostMachine::run(CodeSource &Src, int StartTb) {
  TbView T;
  int CurTb = StartTb;
  if (!enterBlock(Src, StartTb, T))
    return {ExitReason::InvalidBlock, 0, StartTb, 0};
  size_t I = 0;
  uint64_t Executed = 0;
  RunResult Res;

  // The op-by-op path: the exact reference every lowered segment matches.
  // At each segment start of a lowered block it hands over to
  // runLowered(), which hands back only the segments that do not fit.
  while (true) {
    if (T.Lowered && T.Lowered->SegmentAt[I] >= 0 &&
        runLowered(Src, T, CurTb, I, Executed, Res))
      return Res;

    assert(I < T.Block->Code.size() && "fell off the end of a host block");
    const HInst &H = T.Block->Code[I];
    if (++Executed > MaxInstrsPerRun)
      return {ExitReason::Shutdown, 0, CurTb, 0};

    switch (H.Op) {
    case HOp::Marker:
      if (static_cast<MarkerKind>(H.Imm) == MarkerKind::SyncOp) {
        // The head of an elided flag-save range: skip straight to its
        // ChainSlot. Nothing in the range, this marker included, costs
        // or counts toward MaxInstrsPerRun.
        const int End = T.Links->elidedRangeEnd(*T.Block, I);
        if (End >= 0) {
          --Executed;
          I = static_cast<size_t>(End);
          continue;
        }
        ++Counters.SyncOps;
      }
      break;
    case HOp::Jcc:
      charge(H, 1);
      if (hcondHolds(H.Cc, FN, FZ, FC, FV)) {
        I = static_cast<size_t>(H.Target);
        continue;
      }
      break;
    case HOp::Jmp:
      charge(H, 1);
      I = static_cast<size_t>(H.Target);
      continue;
    case HOp::CallHelper: {
      charge(H, opCost(H.Op));
      const HelperHandler::Outcome Out = callHelper(H);
      if (Out.Exit)
        return {Out.Reason, 0, CurTb, 0};
      break;
    }
    case HOp::ChainSlot: {
      charge(H, 1); // the direct jump (patched, or falls to the epilogue)
      const int Next = T.Links->Target[H.Imm];
      if (Next < 0)
        break; // unresolved: fall through into the exit epilogue
      if (!enterBlock(Src, Next, T))
        return {ExitReason::InvalidBlock, 0, Next, 0};
      CurTb = Next;
      ++Counters.ChainFollows;
      I = 0;
      continue;
    }
    case HOp::ExitTb:
      charge(H, 1);
      // For NeedTranslate exits the chain slot to patch rides in Src and
      // the target guest PC was stored to the env PC by the exit glue.
      return {static_cast<ExitReason>(H.Imm), 0, CurTb, H.Src};
    default:
      charge(H, opCost(H.Op));
      exec(H);
      break;
    }
    ++I;
  }
}
