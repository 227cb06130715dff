//===- host/HostLowering.h - Block verifier and lowered form ----*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one structural verifier for host blocks, and the pre-decoded form
/// the host machine runs hot blocks in (DESIGN.md §15).
///
///  * **verifyBlock** proves what both executors rely on instead of
///    asserting: every field is in range, every register, env slot,
///    helper id and chain slot names something that exists, every jump
///    lands inside the block, control never runs off its end, and every
///    flag-save range is one the chain-time elision can skip whole. The
///    cache-file loader runs it on every loaded block, and lowering runs
///    it before it lowers anything.
///
///  * **lowerBlock** turns a verified block into straight-line segments
///    of compact ops. Each segment carries its whole fixed cost, split by
///    cost class, so the machine charges it once instead of per op. The
///    segment rule: a segment starts at op 0, at every jump target, and at
///    each chain exit's FlagSaveBegin and FlagSaveEnd; it ends after every
///    Jcc, Jmp, ChainSlot, ExitTb and CallHelper. Ops without an effect
///    (Nop, Marker) are folded into the segment's tallies and emit
///    nothing. The lowered form never changes a count: HostMachine::run
///    takes a segment whole only when no wall deadline and no runaway
///    limit falls inside it, and runs every other segment op by op.
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_HOST_HOSTLOWERING_H
#define RDBT_HOST_HOSTLOWERING_H

#include "host/HostInst.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace rdbt {
namespace host {

/// Checks \p B against an env of \p EnvWords words and \p NumHelpers
/// helper ids. Returns false with the first failed check in \p Why.
bool verifyBlock(const HostBlock &B, uint32_t EnvWords, uint32_t NumHelpers,
                 std::string &Why);

/// Lowered op kinds: an op's HOp, UseImm and SetFlags decoded once. The
/// measured hot ops have their own kinds; every other op is Generic and
/// runs through the reference executor's per-op semantics. The control
/// kinds (Fall onwards) end a segment. Flagless kinds leave NZCV alone.
#define RDBT_LOWERED_KINDS(X)                                                  \
  X(Generic) /* the HInst at index Imm of the block's Code */                  \
  X(MovR)    /* R[Dst] = R[Src] */                                             \
  X(MovI)    /* R[Dst] = Imm */                                                \
  X(LdEnv)   /* R[Dst] = env[Slot] */                                          \
  X(StEnv)   /* env[Slot] = R[Src] */                                          \
  X(StEnvI)  /* env[Slot] = Imm */                                             \
  X(AddR)    /* R[Dst] += R[Src], flagless */                                  \
  X(AddI)    /* R[Dst] += Imm, flagless */                                     \
  X(SubI)    /* R[Dst] -= Imm, flagless */                                     \
  X(SubIF)   /* R[Dst] -= Imm, sets NZCV */                                    \
  X(CmpR)    /* NZCV = R[Dst] - R[Src] */                                      \
  X(CmpI)    /* NZCV = R[Dst] - Imm */                                         \
  X(AndR)    /* R[Dst] &= R[Src], flagless */                                  \
  X(AndI)    /* R[Dst] &= Imm, flagless */                                     \
  X(OrR)     /* R[Dst] |= R[Src], flagless */                                  \
  X(XorR)    /* R[Dst] ^= R[Src], flagless */                                  \
  X(BicR)    /* R[Dst] &= ~R[Src], flagless */                                 \
  X(Not)     /* R[Dst] = ~R[Dst] */                                            \
  X(ShlI)    /* R[Dst] <<= Imm, flagless */                                    \
  X(ShrI)    /* R[Dst] >>= Imm, flagless */                                    \
  X(TestR)   /* NZ = R[Dst] & R[Src] */                                        \
  X(TestI)   /* NZ = R[Dst] & Imm */                                           \
  X(SetCc)   /* R[Dst] = condition Aux holds */                                \
  X(PackF)   /* R[Dst] = NZCV << 28 */                                         \
  X(UnpackF) /* NZCV = R[Dst] >> 28 */                                         \
  X(TlbCmpR) /* NZCV = read tag of TLB[R[Src]] - R[Aux] */                     \
  X(TlbCmpW) /* NZCV = write tag of TLB[R[Src]] - R[Aux] */                    \
  X(TlbPhys) /* R[Dst] = TLB[R[Src]].PhysFlags */                              \
  X(GLoad)   /* R[Dst] = guest-physical[R[Src]], Aux bytes */                  \
  X(GStore)  /* guest-physical[R[Src]] = R[Dst], Aux bytes */                  \
  X(Fall)    /* end of a segment that falls into the next one */               \
  X(Jcc)     /* to segment Imm if condition Aux holds, else the next one */    \
  X(Jmp)     /* to segment Imm */                                              \
  X(Chain)   /* chain slot Aux: follow it, or fall into the next segment */    \
  X(Call)    /* helper call of the HInst at index Imm */                       \
  X(Exit)    /* leave with ExitReason Aux, chain slot Src */

enum class LKind : uint8_t {
#define RDBT_LOWERED_KIND_ENUM(K) K,
  RDBT_LOWERED_KINDS(RDBT_LOWERED_KIND_ENUM)
#undef RDBT_LOWERED_KIND_ENUM
};

/// One lowered op, fields as documented per kind.
struct LOp {
  LKind K = LKind::Fall;
  uint8_t Dst = 0;
  uint8_t Src = 0;
  uint8_t Aux = 0;
  uint16_t Slot = 0; ///< env word slot
  uint32_t Imm = 0;  ///< immediate, target segment, or HInst index
};

/// The lowered form of one verified HostBlock. Immutable once built, so a
/// snapshot image and every fork of it share one.
struct LoweredBlock {
  /// One straight-line run of the block's ops, charged whole.
  struct Segment {
    uint32_t FirstOp = 0; ///< index of its first op in Ops
    uint32_t Begin = 0;   ///< index of its first HInst in the block's Code
    uint32_t Len = 0;     ///< HInsts it spans (what MaxInstrsPerRun counts)
    uint32_t Cost = 0;    ///< their summed opCost()
    uint32_t SyncOps = 0; ///< SyncOp markers among them
    uint32_t ByClass[NumCostClasses] = {}; ///< Cost split by cost class
    /// It starts at a chain exit's FlagSaveBegin, so a chained, elided
    /// exit skips it (ChainLinks::elidedRangeEnd).
    bool ElideCheck = false;
  };
  std::vector<Segment> Segments; ///< in code order
  std::vector<LOp> Ops;          ///< every segment ends in a control kind
  /// HInst index -> the segment starting there, or -1 inside a segment.
  std::vector<int32_t> SegmentAt;
};

/// Verifies \p B (see verifyBlock) and lowers it. Returns null with the
/// failed check in \p Why if the block does not verify.
std::shared_ptr<const LoweredBlock> lowerBlock(const HostBlock &B,
                                               uint32_t EnvWords,
                                               uint32_t NumHelpers,
                                               std::string &Why);

} // namespace host
} // namespace rdbt

#endif // RDBT_HOST_HOSTLOWERING_H
