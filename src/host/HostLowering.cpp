//===- host/HostLowering.cpp - Block verifier and lowered form -------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//

#include "host/HostLowering.h"

using namespace rdbt;
using namespace rdbt::host;

namespace {

bool fail(std::string &Why, const char *What) {
  Why = What;
  return false;
}

/// Ops after which control does not simply run on into the next op.
bool endsSegment(HOp Op) {
  return Op == HOp::Jcc || Op == HOp::Jmp || Op == HOp::ChainSlot ||
         Op == HOp::ExitTb || Op == HOp::CallHelper;
}

bool verifyInst(const HInst &H, int32_t NumCode, uint32_t EnvWords,
                uint32_t NumHelpers, std::string &Why) {
  if (H.Op > HOp::ExitTb)
    return fail(Why, "opcode out of range");
  if (H.Cc > HCond::Al)
    return fail(Why, "condition out of range");
  if (static_cast<unsigned>(H.Cls) >= NumCostClasses)
    return fail(Why, "cost class out of range");
  if (H.Dst >= NumHostRegs || H.Src >= NumHostRegs || H.Src2 >= NumHostRegs)
    return fail(Why, "register out of range");
  if (H.Size != 1 && H.Size != 2 && H.Size != 4)
    return fail(Why, "access size out of range");
  if ((H.Op == HOp::LdEnv || H.Op == HOp::StEnv || H.Op == HOp::StEnvI) &&
      H.Slot >= EnvWords)
    return fail(Why, "env slot out of range");
  if (H.Op == HOp::CallHelper && H.Helper >= NumHelpers)
    return fail(Why, "helper id out of range");
  // Code may ask to leave for any reason up to Shutdown; InvalidBlock is
  // the machine's own.
  if (H.Op == HOp::ExitTb &&
      (H.Imm < 0 || H.Imm > static_cast<int32_t>(ExitReason::Shutdown)))
    return fail(Why, "exit reason out of range");
  // The chain slot of a ChainSlot rides in Imm, that of a NeedTranslate
  // exit in Src; the engine hands the latter to CodeCache::chain().
  const bool NeedTranslate =
      H.Op == HOp::ExitTb &&
      H.Imm == static_cast<int32_t>(ExitReason::NeedTranslate);
  if ((H.Op == HOp::ChainSlot && (H.Imm < 0 || H.Imm > 1)) ||
      (NeedTranslate && H.Src > 1))
    return fail(Why, "chain slot index out of range");
  const bool IsJump = H.Op == HOp::Jcc || H.Op == HOp::Jmp;
  const int32_t MinTarget = IsJump ? 0 : -1;
  if (H.Target < MinTarget || H.Target >= NumCode)
    return fail(Why, "jump target out of range");
  return true;
}

/// The op \p H lowers to, or Fall for ops without an effect.
LOp lowerInst(const HInst &H, uint32_t Index,
              const std::vector<int32_t> &SegmentAt) {
  LOp L;
  L.Dst = H.Dst;
  L.Src = H.Src;
  L.Slot = H.Slot;
  L.Imm = static_cast<uint32_t>(H.Imm);
  // Picks the register form, the immediate form, or Generic for a
  // flag-setting variant that has no kind of its own.
  const auto Alu = [&](LKind Reg, LKind Imm) {
    L.K = H.UseImm ? Imm : Reg;
    if (H.SetFlags || L.K == LKind::Generic) {
      L.K = LKind::Generic;
      L.Imm = Index;
    }
    return L;
  };
  switch (H.Op) {
  case HOp::Nop:
  case HOp::Marker:
    return L; // Fall: the caller emits nothing
  case HOp::Mov:
    L.K = H.UseImm ? LKind::MovI : LKind::MovR;
    return L;
  case HOp::LdEnv:
    L.K = LKind::LdEnv;
    return L;
  case HOp::StEnv:
    L.K = LKind::StEnv;
    return L;
  case HOp::StEnvI:
    L.K = LKind::StEnvI;
    return L;
  case HOp::Add:
    return Alu(LKind::AddR, LKind::AddI);
  case HOp::Sub:
    if (H.UseImm && H.SetFlags) {
      L.K = LKind::SubIF;
      return L;
    }
    return Alu(LKind::Generic, LKind::SubI);
  case HOp::Cmp: // always sets flags; SetFlags is moot
    L.K = H.UseImm ? LKind::CmpI : LKind::CmpR;
    return L;
  case HOp::And:
    return Alu(LKind::AndR, LKind::AndI);
  case HOp::Or:
    return Alu(LKind::OrR, LKind::Generic);
  case HOp::Xor:
    return Alu(LKind::XorR, LKind::Generic);
  case HOp::Bic:
    return Alu(LKind::BicR, LKind::Generic);
  case HOp::Not: // never sets flags
    L.K = LKind::Not;
    return L;
  case HOp::Shl:
    return Alu(LKind::Generic, LKind::ShlI);
  case HOp::Shr:
    return Alu(LKind::Generic, LKind::ShrI);
  case HOp::Test: // always sets NZ; SetFlags is moot
    L.K = H.UseImm ? LKind::TestI : LKind::TestR;
    return L;
  case HOp::SetCc:
    L.K = LKind::SetCc;
    L.Aux = static_cast<uint8_t>(H.Cc);
    return L;
  case HOp::PackF:
    L.K = LKind::PackF;
    return L;
  case HOp::UnpackF:
    L.K = LKind::UnpackF;
    return L;
  case HOp::TlbCmp:
    L.K = H.AccIsWrite ? LKind::TlbCmpW : LKind::TlbCmpR;
    L.Aux = H.Src2;
    return L;
  case HOp::TlbPhys:
    L.K = LKind::TlbPhys;
    return L;
  case HOp::GLoad:
  case HOp::GStore:
    L.K = H.Op == HOp::GLoad ? LKind::GLoad : LKind::GStore;
    L.Aux = H.Size;
    return L;
  case HOp::Jcc:
  case HOp::Jmp:
    L.K = H.Op == HOp::Jcc ? LKind::Jcc : LKind::Jmp;
    L.Aux = static_cast<uint8_t>(H.Cc);
    L.Imm = static_cast<uint32_t>(SegmentAt[H.Target]);
    return L;
  case HOp::ChainSlot:
    L.K = LKind::Chain;
    L.Aux = static_cast<uint8_t>(H.Imm);
    return L;
  case HOp::CallHelper:
    L.K = LKind::Call;
    L.Imm = Index;
    return L;
  case HOp::ExitTb:
    L.K = LKind::Exit;
    L.Aux = static_cast<uint8_t>(H.Imm);
    return L;
  default:
    L.K = LKind::Generic;
    L.Imm = Index;
    return L;
  }
}

} // namespace

bool host::verifyBlock(const HostBlock &B, uint32_t EnvWords,
                       uint32_t NumHelpers, std::string &Why) {
  const int32_t N = static_cast<int32_t>(B.Code.size());
  for (const HInst &H : B.Code)
    if (!verifyInst(H, N, EnvWords, NumHelpers, Why))
      return false;
  if (N == 0 ||
      (B.Code.back().Op != HOp::ExitTb && B.Code.back().Op != HOp::Jmp))
    return fail(Why, "block can fall off its end");
  // A flag-save range starts at a SyncOp marker and ends right before its
  // own exit's ChainSlot, so the elision can skip it whole.
  for (int S = 0; S < 2; ++S) {
    const int Begin = B.Chains[S].FlagSaveBegin;
    const int End = B.Chains[S].FlagSaveEnd;
    if (Begin == -1 && End == -1)
      continue;
    if (Begin < 0 || Begin >= End || End >= N ||
        B.Code[Begin].Op != HOp::Marker ||
        B.Code[Begin].Imm != static_cast<int32_t>(MarkerKind::SyncOp) ||
        B.Code[End].Op != HOp::ChainSlot || B.Code[End].Imm != S)
      return fail(Why, "flag-save range out of range");
  }
  return true;
}

std::shared_ptr<const LoweredBlock> host::lowerBlock(const HostBlock &B,
                                                     uint32_t EnvWords,
                                                     uint32_t NumHelpers,
                                                     std::string &Why) {
  if (!verifyBlock(B, EnvWords, NumHelpers, Why))
    return nullptr;
  const size_t N = B.Code.size();
  auto Low = std::make_shared<LoweredBlock>();
  std::vector<int32_t> &At = Low->SegmentAt;

  // Mark the segment starts, then number them in code order.
  At.assign(N, -1);
  At[0] = 0;
  for (const HostBlock::Chain &Ch : B.Chains)
    if (Ch.FlagSaveBegin >= 0)
      At[Ch.FlagSaveBegin] = At[Ch.FlagSaveEnd] = 0;
  for (size_t I = 0; I < N; ++I) {
    const HInst &H = B.Code[I];
    if (H.Op == HOp::Jcc || H.Op == HOp::Jmp)
      At[H.Target] = 0;
    if (endsSegment(H.Op) && I + 1 < N)
      At[I + 1] = 0;
  }
  int32_t NumSegments = 0;
  for (int32_t &S : At)
    if (S == 0)
      S = NumSegments++;

  Low->Segments.resize(NumSegments);
  LoweredBlock::Segment *Seg = nullptr;
  for (size_t I = 0; I < N; ++I) {
    const HInst &H = B.Code[I];
    if (At[I] >= 0) {
      Seg = &Low->Segments[At[I]];
      Seg->FirstOp = static_cast<uint32_t>(Low->Ops.size());
      Seg->Begin = static_cast<uint32_t>(I);
      for (const HostBlock::Chain &Ch : B.Chains)
        Seg->ElideCheck |= Ch.FlagSaveBegin == static_cast<int>(I);
    }
    const uint32_t Cost = opCost(H.Op);
    ++Seg->Len;
    Seg->Cost += Cost;
    Seg->ByClass[static_cast<unsigned>(H.Cls)] += Cost;
    if (H.Op == HOp::Marker &&
        H.Imm == static_cast<int32_t>(MarkerKind::SyncOp))
      ++Seg->SyncOps;

    const LOp L = lowerInst(H, static_cast<uint32_t>(I), At);
    if (L.K != LKind::Fall)
      Low->Ops.push_back(L);
    // A segment that ends without a control op falls into the next one.
    // The verifier guarantees the last op of the block is a control op.
    if (!endsSegment(H.Op) && I + 1 < N && At[I + 1] >= 0)
      Low->Ops.push_back(LOp());
  }
  return Low;
}
