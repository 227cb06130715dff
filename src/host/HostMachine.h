//===- host/HostMachine.h - Simulated host CPU ------------------*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes generated host code (\ref HostBlock) with exact per-category
/// instruction accounting. This is the stand-in for the real x86 the paper
/// runs on: every reported metric (host instructions per guest
/// instruction, sync instructions, wall cycles for speedups) is counted
/// here, not estimated.
///
/// The machine follows resolved chain slots directly from TB to TB (block
/// chaining), charges helper calls with the cost the helper reports, and
/// carries the wall-clock deadline of the device model so interrupts
/// arrive asynchronously while translated code runs. Blocks with a
/// lowered form (host/HostLowering.h) run segment by segment wherever
/// that is exact, and op by op everywhere else (DESIGN.md §15).
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_HOST_HOSTMACHINE_H
#define RDBT_HOST_HOSTMACHINE_H

#include "host/HostInst.h"
#include "host/HostLowering.h"

#include <cstdint>
#include <vector>

namespace rdbt {
namespace host {

/// Guest-physical memory access interface (implemented by the DBT engine
/// over the platform RAM; generated GLoad/GStore only touch RAM pages).
class PhysPort {
public:
  virtual ~PhysPort();
  virtual bool read(uint32_t Pa, unsigned Size, uint32_t &Value) = 0;
  virtual bool write(uint32_t Pa, unsigned Size, uint32_t Value) = 0;
};

/// Helper-function dispatch interface (implemented by the DBT engine).
class HelperHandler {
public:
  struct Outcome {
    bool Exit = false;             ///< leave the code cache
    ExitReason Reason = ExitReason::Lookup;
    uint64_t Cost = 0;             ///< host-instruction-equivalent cost
    bool HasResult = false;
    uint32_t Result = 0;
  };

  virtual ~HelperHandler();
  virtual Outcome call(uint16_t HelperId, uint32_t A0, uint32_t A1,
                       uint32_t GuestPc) = 0;
};

/// Wall-clock event sink: called when execution crosses the next device
/// deadline; returns the new next deadline (~0ull if none).
class WallSink {
public:
  virtual ~WallSink();
  virtual uint64_t onWall(uint64_t Now) = 0;
};

/// What the host machine needs to run one block: the block, the source's
/// link state for it, and its lowered form once it has one. A null Block
/// means the id names no block that may run.
struct TbView {
  const HostBlock *Block = nullptr;
  const ChainLinks *Links = nullptr;
  const LoweredBlock *Lowered = nullptr; ///< null: run it op by op
};

/// The translated blocks the machine runs and follows chains through.
class CodeSource {
public:
  virtual ~CodeSource();
  /// Enters block \p TbId: called once per run start and once per chain
  /// follow, so a source can count entries and lower a block when it
  /// turns hot (CodeCache does on the second entry). The view is valid
  /// until the source next inserts, links or drops a block. A null Block
  /// stops the run with ExitReason::InvalidBlock.
  virtual TbView enter(int TbId) = 0;
};

/// Execution counters, attributed by CostClass.
struct ExecCounters {
  uint64_t Wall = 0; ///< total host cost (cycles == host instructions)
  uint64_t ByClass[NumCostClasses] = {};
  uint64_t SyncOps = 0;      ///< coordination operations (SyncOp markers)
  uint64_t GuestInstrs = 0;  ///< guest instructions retired via TB entries
  uint64_t GuestMemInstrs = 0; ///< Table I: memory-access instructions
  uint64_t GuestSysInstrs = 0; ///< Table I: system-level instructions
  uint64_t IrqChecks = 0;      ///< Table I: interrupt checks executed
  uint64_t TbEntries = 0;    ///< TB executions (entries + chain follows)
  uint64_t ChainFollows = 0;
  uint64_t HelperCalls = 0;
};

/// Result of one run() — why control returned to the engine.
struct RunResult {
  ExitReason Reason = ExitReason::Lookup;
  uint32_t NextPc = 0;   ///< NeedTranslate: the guest PC to translate
  int FromTb = -1;       ///< NeedTranslate: TB owning the chain slot
  int FromChainSlot = 0; ///< NeedTranslate: which slot to patch
};

class HostMachine {
public:
  /// \p EnvWords is the CpuEnv viewed as a word array; generated code
  /// addresses it by slot. The TLB layout constants are passed explicitly
  /// so this module stays independent of sys/; \p TlbHalfEntries is a
  /// power of two.
  HostMachine(uint32_t *EnvWords, uint32_t EnvSize, PhysPort &Mem,
              HelperHandler &Helpers, WallSink &Wall, uint16_t MmuIdxSlot,
              uint32_t TlbBaseSlot, uint32_t TlbEntryWords,
              uint32_t TlbHalfEntries);

  /// Runs translated code starting at \p StartTb until an exit. A block
  /// with a lowered form runs segment by segment wherever a whole segment
  /// fits before NextDeadline and MaxInstrsPerRun, and op by op
  /// everywhere else; every counter comes out the same either way.
  RunResult run(CodeSource &Src, int StartTb);

  uint32_t reg(unsigned R) const { return R_[R]; }
  void setReg(unsigned R, uint32_t V) { R_[R] = V; }
  /// Packed NZCV (bits 31:28) of the host flags.
  uint32_t packedFlags() const;
  void setPackedFlags(uint32_t Nzcv);

  ExecCounters Counters;
  /// Next wall deadline; execution calls WallSink::onWall when crossed.
  uint64_t NextDeadline = ~0ull;
  /// Abort knob for runaway translated code (host instructions).
  uint64_t MaxInstrsPerRun = ~0ull;
  /// When non-null, per-TB entry counts (indexed by TB id, grown on
  /// demand) for the hot-block profiler. Never touches Counters, so the
  /// simulated totals are identical with or without it.
  std::vector<uint64_t> *TbExecs = nullptr;

private:
  uint32_t R_[NumHostRegs] = {};
  bool FN = false, FZ = false, FC = false, FV = false;

  uint32_t *Env;
  uint32_t EnvSize;
  PhysPort &Mem;
  HelperHandler &Helpers;
  WallSink &Wall;
  uint16_t MmuIdxSlot;
  uint32_t TlbBaseSlot, TlbEntryWords, TlbHalfEntries;

  void charge(const HInst &H, uint64_t Cost);
  uint32_t aluOperand(const HInst &H) const {
    return H.UseImm ? static_cast<uint32_t>(H.Imm) : R_[H.Src];
  }
  uint32_t tlbWord(uint32_t Index, uint32_t FieldWord) const;

  /// Enters \p Tb as the current block \p T; false if it may not run.
  bool enterBlock(CodeSource &Src, int Tb, TbView &T);
  /// Runs \p T's lowered segments from the one starting at \p I. Returns
  /// true with \p Res once the run is over, or false with \p I where the
  /// op-by-op path continues: a segment that does not fit, or op 0 of an
  /// unlowered block it chained into.
  bool runLowered(CodeSource &Src, TbView &T, int &CurTb, size_t &I,
                  uint64_t &Executed, RunResult &Res);

  // The semantics of each op, written once and run by both executors.
  void exec(const HInst &H); ///< any op that is not a marker or control op
  void ldEnv(uint8_t Dst, uint32_t Slot);
  void stEnv(uint32_t Slot, uint32_t V);
  void addSub(HOp Op, bool SetFlags, uint8_t Dst, uint32_t Operand);
  void logic(HOp Op, bool SetFlags, uint8_t Dst, uint32_t Operand);
  void shift(HOp Op, bool SetFlags, uint8_t Dst, uint32_t Operand);
  void tlbCmp(uint8_t IdxReg, uint8_t VpnReg, bool IsWrite);
  void gLoad(uint8_t Dst, uint8_t AddrReg, unsigned Size);
  void gStore(uint8_t DataReg, uint8_t AddrReg, unsigned Size);
  /// Calls \p H's helper and charges what it reports (the call overhead
  /// is charged by the caller, with the op).
  HelperHandler::Outcome callHelper(const HInst &H);
};

} // namespace host
} // namespace rdbt

#endif // RDBT_HOST_HOSTMACHINE_H
