//===- host/HostInst.h - Simulated host instruction set ---------*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured host instruction set that both translators emit and the
/// \ref HostMachine executes. It models a 32-bit x86-like machine:
///
///  * 16 general-purpose registers h0..h15 plus two translator scratch
///    registers t0/t1 (the paper's host is IA-32 with 8 GPRs; we widen the
///    file so guest r0-r14 can stay pinned without building a spilling
///    register allocator — the coordination traffic under study does not
///    depend on spills, see DESIGN.md §2);
///  * an implicit env pointer (QEMU reserves a host register for it) used
///    by the LdEnv/StEnv/Tlb* instructions;
///  * NZCV condition flags with ARM carry polarity, updated only by
///    instructions with the SetFlags bit (x86 equivalents exist for every
///    case: flag-setting ALU ops, lea/mov for the non-setting ones);
///  * the QEMU-softmmu inline TLB probe ops (TlbCmp/TlbPhys model x86
///    cmp/mov with scaled-index memory operands, one instruction each);
///  * engine ops: helper calls, patchable chain slots, TB exits.
///
/// Every instruction carries a \ref CostClass so executed host
/// instructions can be attributed to user code, CPU-state coordination
/// (sync), inline MMU code, interrupt checks, glue, or helpers — the
/// categories behind the paper's Figures 15 and 17.
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_HOST_HOSTINST_H
#define RDBT_HOST_HOSTINST_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rdbt {
namespace host {

/// Host register file geometry.
enum : uint8_t {
  NumHostGprs = 16,
  ScratchReg0 = 16, ///< t0 (softmmu probe scratch)
  ScratchReg1 = 17, ///< t1 (softmmu probe scratch)
  ScratchReg2 = 18, ///< t2 (address computation scratch)
  NumHostRegs = 19,
};

/// Host condition codes over NZCV (ARM polarity; the disassembler prints
/// the x86 jcc aliases).
enum class HCond : uint8_t {
  Eq = 0,
  Ne,
  Cs,
  Cc,
  Mi,
  Pl,
  Vs,
  Vc,
  Hi,
  Ls,
  Ge,
  Lt,
  Gt,
  Le,
  Al,
};

/// Host opcodes.
enum class HOp : uint8_t {
  Nop,
  Marker, ///< zero-cost bookkeeping (MarkerKind in Imm)

  Mov,    ///< Dst = Src/Imm (never sets flags; x86 mov)
  LdEnv,  ///< Dst = env[Slot]
  StEnv,  ///< env[Slot] = Src
  StEnvI, ///< env[Slot] = Imm

  // Two-address ALU: Dst = Dst op (Src|Imm). SetFlags optional.
  Add,
  Adc,
  Sub,
  Sbc,
  Rsb, ///< Dst = (Src|Imm) - Dst (x86: neg+add or 3-op lea; cost 1)
  And,
  Or,
  Xor,
  Bic, ///< Dst = Dst & ~(Src|Imm) (x86 BMI andn)
  Shl,
  Shr,
  Sar,
  Ror,
  Neg,
  Not,
  Mul,    ///< Dst = Dst * Src (low 32)
  MulLU,  ///< Src2:Dst = Dst * Src unsigned (x86 mul)
  MulLS,  ///< Src2:Dst = Dst * Src signed (x86 imul)
  Clz,    ///< Dst = clz(Src) (x86 lzcnt)

  Cmp,  ///< flags = Dst - (Src|Imm), sub polarity
  Cmn,  ///< flags = Dst + (Src|Imm), add polarity
  Test, ///< flags = Dst & (Src|Imm), NZ only

  SetCc,   ///< Dst = Cc ? 1 : 0 (x86 setcc+movzx folded, cost 1)
  PackF,   ///< Dst = NZCV << 28 (x86 lahf+seto shuffle, cost 2)
  UnpackF, ///< flags = Dst >> 28 (x86 sahf+add, cost 2)

  Jcc, ///< conditional jump to Target (instruction index in block)
  Jmp, ///< unconditional jump to Target

  // Inline softmmu (env-relative scaled-index ops, 1 instruction each).
  TlbCmp,  ///< flags = env.Tlb[env.MmuIdx][Src].Tag<kind> - Src2 (vpn)
  TlbPhys, ///< Dst = env.Tlb[env.MmuIdx][Src].PhysFlags

  GLoad,  ///< Dst = guest-physical[Src], Size bytes, zero-extended
  GStore, ///< guest-physical[Src] = Dst, Size bytes

  CallHelper, ///< call Helper with args R[Src], R[Src2]; result to Dst
  ChainSlot,  ///< patchable direct jump: chain slot index in Imm
  ExitTb,     ///< leave the code cache; ExitReason in Imm
};

/// Instruction cost/attribution classes (Fig. 15 / Fig. 17 accounting).
enum class CostClass : uint8_t {
  User = 0,  ///< translated guest computation
  Sync = 1,  ///< CPU state coordination (sync-save / sync-restore)
  MmuInline = 2, ///< inline softmmu probe
  IrqCheck = 3,  ///< TB-head interrupt check
  Glue = 4,      ///< block linking, PC bookkeeping, exits
  Helper = 5,    ///< helper call overhead + helper-internal cost
};
constexpr unsigned NumCostClasses = 6;

/// Marker kinds (HOp::Marker, zero cost).
enum class MarkerKind : uint8_t {
  SyncOp = 0,    ///< start of one coordination operation (sync_num)
  TbProlog = 1,  ///< TB entry point (retires the TB's guest instructions)
};

/// Reasons a run of translated code returns to the engine.
enum class ExitReason : uint8_t {
  Lookup = 0,    ///< continue at env.Regs[15] (indirect branch, fallthru)
  NeedTranslate, ///< chain slot unresolved; target PC in RunResult
  Interrupt,     ///< TB-head check observed ExitRequest
  Exception,     ///< a helper delivered a guest exception
  Halt,          ///< WFI
  Shutdown,      ///< guest requested stop (test bench hook)
};

/// One structured host instruction. Field use depends on Op.
struct HInst {
  HOp Op = HOp::Nop;
  HCond Cc = HCond::Al;
  CostClass Cls = CostClass::User;
  bool SetFlags = false;
  bool UseImm = false;
  bool AccIsWrite = false; ///< TlbCmp: probe the write tag
  uint8_t Size = 4;        ///< GLoad/GStore access size
  uint8_t Dst = 0;
  uint8_t Src = 0;
  uint8_t Src2 = 0;
  uint16_t Slot = 0;  ///< env word slot (LdEnv/StEnv)
  uint16_t Helper = 0;
  int32_t Imm = 0;
  int32_t Target = -1; ///< Jcc/Jmp destination index
  uint32_t GuestPc = 0; ///< metadata: guest PC for faulting ops/helpers
};

/// Host code for one translation block plus its two chain exits. Frozen
/// once translated: which exits are chained, and whether their flag-saves
/// are elided, is per-cache link state (host::ChainLinks), never stored
/// here, so one block is shared by every cache that holds it.
struct HostBlock {
  std::vector<HInst> Code;

  /// A direct-branch exit that can be chained to a successor TB.
  struct Chain {
    uint32_t GuestTarget = 0; ///< guest PC this exit branches to
    /// Host-code range [Begin, End) of the flag sync-save belonging to
    /// this exit, or (-1, -1) if none. The range starts at a SyncOp marker
    /// and ends right before this exit's ChainSlot; the inter-TB
    /// optimization skips it once the exit is chained.
    int FlagSaveBegin = -1;
    int FlagSaveEnd = -1;
  };
  Chain Chains[2];

  uint32_t GuestPc = 0;       ///< guest address this TB translates
  uint32_t NumGuestInstrs = 0;
  /// Raw guest words this TB was translated from (filled by the engine
  /// after translation). The persistent code cache re-validates a loaded
  /// block against freshly fetched guest memory through these.
  std::vector<uint32_t> GuestWords;
  // Guest instruction category counts (Table I accounting; the host
  // machine accumulates them blindly on every TB entry).
  uint32_t NumMemInstrs = 0;
  uint32_t NumSysInstrs = 0;
  uint32_t NumIrqChecks = 0;
  /// True if every path through the TB writes the NZCV flags before any
  /// instruction reads them (the III-C inter-TB elimination predicate).
  bool DefinesFlagsBeforeUse = false;
};

/// Per-cache link state of one block's two chain exits: the successor
/// each slot is chained to, and whether chaining elided that exit's
/// flag-save range (§III-C). Kept beside the immutable block, never in
/// it, so translated code is shared by every cache that holds it.
struct ChainLinks {
  int Target[2] = {-1, -1}; ///< resolved successor TB per slot, or -1
  bool Elided[2] = {};      ///< the slot's flag-save range is skipped

  /// The end of the elided flag-save range of \p B that starts at \p I
  /// (the index of its ChainSlot), or -1 if none starts there.
  int elidedRangeEnd(const HostBlock &B, size_t I) const {
    for (int S = 0; S < 2; ++S)
      if (Elided[S] && B.Chains[S].FlagSaveBegin == static_cast<int>(I))
        return B.Chains[S].FlagSaveEnd;
    return -1;
  }
};

/// Returns the mnemonic for \p Op.
const char *hopName(HOp Op);

/// x86-style condition suffix for \p Cc ("e", "ne", "ae", ...).
const char *hcondName(HCond Cc);

/// Maps an ARM condition index (same numeric order) to HCond.
constexpr HCond hcondFromArm(uint8_t ArmCond) {
  return static_cast<HCond>(ArmCond);
}

/// Evaluates \p Cc against NZCV flag values.
bool hcondHolds(HCond Cc, bool N, bool Z, bool C, bool V);

} // namespace host
} // namespace rdbt

#endif // RDBT_HOST_HOSTINST_H
