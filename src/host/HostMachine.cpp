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

bool host::hcondHolds(HCond Cc, bool N, bool Z, bool C, bool V) {
  switch (Cc) {
  case HCond::Eq: return Z;
  case HCond::Ne: return !Z;
  case HCond::Cs: return C;
  case HCond::Cc: return !C;
  case HCond::Mi: return N;
  case HCond::Pl: return !N;
  case HCond::Vs: return V;
  case HCond::Vc: return !V;
  case HCond::Hi: return C && !Z;
  case HCond::Ls: return !C || Z;
  case HCond::Ge: return N == V;
  case HCond::Lt: return N != V;
  case HCond::Gt: return !Z && N == V;
  case HCond::Le: return Z || N != V;
  case HCond::Al: return true;
  }
  return true;
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

RunResult HostMachine::run(const CodeSource &Src, int StartTb) {
  const HostBlock *B = Src.block(StartTb);
  int CurTb = StartTb;
  assert(B && "starting TB not in code cache");
  const ChainLinks *L = &Src.links(StartTb);
  size_t I = 0;
  uint64_t Executed = 0;

  auto EnterBlock = [this](const HostBlock *Blk, int Tb) {
    ++Counters.TbEntries;
    Counters.GuestInstrs += Blk->NumGuestInstrs;
    Counters.GuestMemInstrs += Blk->NumMemInstrs;
    Counters.GuestSysInstrs += Blk->NumSysInstrs;
    Counters.IrqChecks += Blk->NumIrqChecks;
    if (TbExecs) {
      if (static_cast<size_t>(Tb) >= TbExecs->size())
        TbExecs->resize(Tb + 1, 0);
      ++(*TbExecs)[Tb];
    }
  };
  EnterBlock(B, StartTb);

  while (true) {
    assert(I < B->Code.size() && "fell off the end of a host block");
    const HInst &H = B->Code[I];
    if (++Executed > MaxInstrsPerRun)
      return {ExitReason::Shutdown, 0, CurTb, 0};

    switch (H.Op) {
    case HOp::Nop:
      charge(H, 1);
      break;
    case HOp::Marker:
      if (static_cast<MarkerKind>(H.Imm) == MarkerKind::SyncOp) {
        // The head of an elided flag-save range: skip straight to its
        // ChainSlot. Nothing in the range, this marker included, costs
        // or counts toward MaxInstrsPerRun.
        const int End = L->elidedRangeEnd(*B, I);
        if (End >= 0) {
          --Executed;
          I = static_cast<size_t>(End);
          continue;
        }
        ++Counters.SyncOps;
      }
      break;
    case HOp::Mov:
      charge(H, 1);
      R_[H.Dst] = aluOperand(H);
      break;
    case HOp::LdEnv:
      charge(H, 1);
      assert(H.Slot < EnvSize);
      R_[H.Dst] = Env[H.Slot];
      break;
    case HOp::StEnv:
      charge(H, 1);
      assert(H.Slot < EnvSize);
      Env[H.Slot] = R_[H.Src];
      break;
    case HOp::StEnvI:
      charge(H, 1);
      assert(H.Slot < EnvSize);
      Env[H.Slot] = static_cast<uint32_t>(H.Imm);
      break;

    case HOp::Add:
    case HOp::Adc:
    case HOp::Sub:
    case HOp::Sbc:
    case HOp::Rsb:
    case HOp::Cmp:
    case HOp::Cmn: {
      charge(H, 1);
      const uint32_t A = R_[H.Dst];
      const uint32_t Bv = aluOperand(H);
      uint32_t Lhs = A, Rhs = Bv, CarryIn = 0;
      switch (H.Op) {
      case HOp::Add:
      case HOp::Cmn:
        break;
      case HOp::Adc:
        CarryIn = FC;
        break;
      case HOp::Sub:
      case HOp::Cmp:
        Rhs = ~Bv;
        CarryIn = 1;
        break;
      case HOp::Sbc:
        Rhs = ~Bv;
        CarryIn = FC;
        break;
      case HOp::Rsb:
        Lhs = Bv;
        Rhs = ~A;
        CarryIn = 1;
        break;
      default:
        break;
      }
      const uint64_t Wide =
          static_cast<uint64_t>(Lhs) + static_cast<uint64_t>(Rhs) + CarryIn;
      const uint32_t Result = static_cast<uint32_t>(Wide);
      if (H.SetFlags || H.Op == HOp::Cmp || H.Op == HOp::Cmn) {
        FN = Result >> 31;
        FZ = Result == 0;
        FC = Wide != Result;
        const int64_t SWide =
            static_cast<int64_t>(static_cast<int32_t>(Lhs)) +
            static_cast<int64_t>(static_cast<int32_t>(Rhs)) + CarryIn;
        FV = SWide != static_cast<int32_t>(Result);
      }
      if (H.Op != HOp::Cmp && H.Op != HOp::Cmn)
        R_[H.Dst] = Result;
      break;
    }

    case HOp::And:
    case HOp::Or:
    case HOp::Xor:
    case HOp::Bic:
    case HOp::Test: {
      charge(H, 1);
      const uint32_t A = R_[H.Dst];
      const uint32_t Bv = aluOperand(H);
      uint32_t Result = 0;
      switch (H.Op) {
      case HOp::And:
      case HOp::Test:
        Result = A & Bv;
        break;
      case HOp::Or:
        Result = A | Bv;
        break;
      case HOp::Xor:
        Result = A ^ Bv;
        break;
      case HOp::Bic:
        Result = A & ~Bv;
        break;
      default:
        break;
      }
      if (H.SetFlags || H.Op == HOp::Test) {
        FN = Result >> 31;
        FZ = Result == 0;
      }
      if (H.Op != HOp::Test)
        R_[H.Dst] = Result;
      break;
    }

    case HOp::Shl:
    case HOp::Shr:
    case HOp::Sar:
    case HOp::Ror: {
      charge(H, 1);
      const uint32_t A = R_[H.Dst];
      const uint32_t Amount = aluOperand(H) & 0xFF;
      uint32_t Result = A;
      bool CarryOut = FC;
      if (Amount != 0) {
        const unsigned Amt = Amount > 32 ? 32 : Amount;
        switch (H.Op) {
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
        case HOp::Ror:
          Result = rotr32(A, Amount);
          CarryOut = (Result >> 31) & 1;
          break;
        default:
          break;
        }
        if (H.SetFlags) {
          FN = Result >> 31;
          FZ = Result == 0;
          FC = CarryOut;
        }
      }
      R_[H.Dst] = Result;
      break;
    }

    case HOp::Neg:
      charge(H, 1);
      R_[H.Dst] = 0u - R_[H.Dst];
      if (H.SetFlags) {
        FN = R_[H.Dst] >> 31;
        FZ = R_[H.Dst] == 0;
      }
      break;
    case HOp::Not:
      charge(H, 1);
      R_[H.Dst] = ~R_[H.Dst];
      break;
    case HOp::Mul: {
      charge(H, 1);
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
      charge(H, 1);
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
      charge(H, 1);
      R_[H.Dst] = countLeadingZeros32(R_[H.Src]);
      break;

    case HOp::SetCc:
      charge(H, 1);
      R_[H.Dst] = hcondHolds(H.Cc, FN, FZ, FC, FV) ? 1u : 0u;
      break;
    case HOp::PackF:
      charge(H, 2);
      R_[H.Dst] = packedFlags();
      break;
    case HOp::UnpackF:
      charge(H, 2);
      setPackedFlags(R_[H.Dst]);
      break;

    case HOp::Jcc:
      charge(H, 1);
      if (hcondHolds(H.Cc, FN, FZ, FC, FV)) {
        assert(H.Target >= 0 && "unresolved jump target");
        I = static_cast<size_t>(H.Target);
        continue;
      }
      break;
    case HOp::Jmp:
      charge(H, 1);
      assert(H.Target >= 0 && "unresolved jump target");
      I = static_cast<size_t>(H.Target);
      continue;

    case HOp::TlbCmp: {
      charge(H, 1);
      const uint32_t Tag = tlbWord(R_[H.Src], H.AccIsWrite ? 1 : 0);
      const uint32_t Vpn = R_[H.Src2];
      const uint32_t Result = Tag - Vpn;
      FN = Result >> 31;
      FZ = Result == 0;
      FC = Tag >= Vpn;
      FV = (((Tag ^ Vpn) & (Tag ^ Result)) >> 31) & 1;
      break;
    }
    case HOp::TlbPhys:
      charge(H, 1);
      R_[H.Dst] = tlbWord(R_[H.Src], 2);
      break;

    case HOp::GLoad: {
      charge(H, 1);
      uint32_t Value = 0;
      [[maybe_unused]] const bool Ok = Mem.read(R_[H.Src], H.Size, Value);
      assert(Ok && "GLoad after TLB hit must target RAM");
      R_[H.Dst] = Value;
      break;
    }
    case HOp::GStore: {
      charge(H, 1);
      [[maybe_unused]] const bool Ok =
          Mem.write(R_[H.Src], H.Size, R_[H.Dst]);
      assert(Ok && "GStore after TLB hit must target RAM");
      break;
    }

    case HOp::CallHelper: {
      charge(H, 3); // call + ret + argument setup
      ++Counters.HelperCalls;
      HelperHandler::Outcome Out =
          Helpers.call(H.Helper, R_[H.Src], R_[H.Src2], H.GuestPc);
      charge(H, Out.Cost);
      if (Out.HasResult)
        R_[H.Dst] = Out.Result;
      if (Out.Exit)
        return {Out.Reason, 0, CurTb, 0};
      break;
    }

    case HOp::ChainSlot: {
      charge(H, 1); // the direct jump (patched, or falls to the epilogue)
      const int Next = L->Target[H.Imm];
      if (Next < 0)
        break; // unresolved: fall through into the exit epilogue
      CurTb = Next;
      B = Src.block(CurTb);
      assert(B && "chained to a flushed TB");
      L = &Src.links(CurTb);
      I = 0;
      ++Counters.ChainFollows;
      EnterBlock(B, CurTb);
      continue;
    }

    case HOp::ExitTb: {
      charge(H, 1);
      const auto Reason = static_cast<ExitReason>(H.Imm);
      // For NeedTranslate exits the chain slot to patch rides in Src and
      // the target guest PC was stored to the env PC by the exit glue.
      return {Reason, 0, CurTb, H.Src};
    }
    }
    ++I;
  }
}
