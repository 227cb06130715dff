//===- tests/InterpFastpathTest.cpp - Decoded-instruction cache tests -------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// The contracts the interpreter fastpath (DESIGN.md §14) rests on:
///
///  * **Guest invisibility**: the cached interpreter finishes a whole
///    system run with the same final CPU env, console bytes and retired
///    instruction count as a test-local reference loop that fetches
///    through the MMU and decodes every word from scratch.
///
///  * **SMC correctness**: rewriting a cached page re-decodes, both
///    through the TbInvKind invalidation pipeline (TLBIMVA drops the
///    page's records) and by construction (a hit re-fetches and
///    compares the raw word, so even an uninvalidated rewrite executes
///    the new instruction).
///
///  * **Fork stability**: a forked VM starts with a scrubbed decode
///    cache — its decode counters restart at zero and count only
///    post-fork execution — while its finals stay identical to a fresh
///    session's.
///
//===----------------------------------------------------------------------===//

#include "arm/AsmBuilder.h"
#include "guestsw/Workloads.h"
#include "sys/Interpreter.h"
#include "sys/Mmu.h"
#include "sys/Platform.h"
#include "vm/Snapshot.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace rdbt;
using namespace rdbt::sys;
using arm::AsmBuilder;
using arm::Cp15Reg;

namespace {

vm::VmConfig cfgFor(const std::string &Kind) {
  return vm::VmConfig().translator(Kind).workload("libquantum").scale(1);
}

/// Result of the decode-every-step reference run.
struct ReferenceRun {
  uint64_t InstrsRetired = 0;
  uint64_t Fetches = 0; ///< successful instruction fetches
};

/// The system-run loop of sys::runSystemInterpreter with the decoded-
/// instruction cache taken out: every step fetches through the MMU and
/// retires arm::decode(Word) through the public Interpreter::execute.
ReferenceRun runDecodeEveryStep(Platform &Board, uint64_t MaxInstrs) {
  Mmu Mem(Board.Env, Board);
  Interpreter Interp(Board.Env, Mem, Board);
  ReferenceRun Run;
  while (!Board.ShutdownRequested && Interp.InstrsRetired < MaxInstrs) {
    if (Board.Env.Halted) {
      if (!Board.Env.IrqPending && Board.fastForward() == 0 &&
          !Board.Env.IrqPending)
        break; // deadlock
      if (!Board.Env.IrqPending)
        continue;
      Board.Env.Halted = 0;
    }
    if (Board.Env.ExitRequest) {
      Board.Env.ExitRequest = 0;
      Interp.maybeTakeIrq();
    }
    const uint32_t Pc = Board.Env.Regs[15];
    uint32_t Word = 0;
    Fault F;
    if (Mem.fetchWord(Pc, Word, F)) {
      ++Run.Fetches;
      Interp.execute(arm::decode(Word), Pc);
    } else {
      Board.Env.Ifsr = F.Fsr;
      Board.Env.Dfar = F.Far;
      takeException(Board.Env, ExcKind::PrefetchAbort, Pc);
    }
    Board.advance(1);
  }
  Run.InstrsRetired = Interp.InstrsRetired;
  return Run;
}

TEST(InterpFastpath, DecodeCacheMatchesDecodeEveryStepReference) {
  // libquantum re-executes hot loops; ctxswitch adds ASID switches and
  // TLB maintenance, so cached pages are dropped and re-keyed mid-run.
  for (const std::string Workload : {"libquantum", "ctxswitch"}) {
    const uint32_t Ram = guestsw::requiredWorkloadRam(Workload);
    Platform Ref(Ram), Cached(Ram);
    ASSERT_TRUE(guestsw::setupGuest(Ref, Workload, 1)) << Workload;
    ASSERT_TRUE(guestsw::setupGuest(Cached, Workload, 1)) << Workload;

    const uint64_t Budget = vm::VmConfig().wallBudget();
    const ReferenceRun R = runDecodeEveryStep(Ref, Budget);
    const SystemRunResult C = runSystemInterpreter(Cached, Budget);
    ASSERT_TRUE(Ref.ShutdownRequested) << Workload;
    EXPECT_TRUE(C.Shutdown) << Workload;

    EXPECT_EQ(0, std::memcmp(&Ref.Env, &Cached.Env, sizeof(CpuEnv)))
        << Workload << ": final CPU env diverged";
    EXPECT_EQ(Ref.uart().output(), Cached.uart().output())
        << Workload << ": console diverged";
    EXPECT_EQ(R.InstrsRetired, C.InstrsRetired) << Workload;

    // The cache must actually be exercised, and every consultation is
    // one successful instruction fetch of the same stream.
    EXPECT_GT(C.DecodeHits, 0u) << Workload;
    EXPECT_EQ(C.DecodeHits + C.DecodeMisses, R.Fetches) << Workload;
  }
}

class FastpathFixture : public ::testing::Test {
protected:
  FastpathFixture() : Board(1 << 20), Mmu_(Board.Env, Board),
                      In(Board.Env, Mmu_, Board) {}

  void load(AsmBuilder &A) { Board.Ram.loadWords(A.baseAddr(), A.finish()); }
  StepKind stepAt(uint32_t Pc) {
    Board.Env.Regs[15] = Pc;
    return In.step();
  }
  /// The encoding of "mov rd, #imm".
  static uint32_t moviWord(uint8_t Rd, uint32_t Imm) {
    AsmBuilder A(0);
    A.movi(Rd, Imm);
    return A.finish()[0];
  }

  sys::Platform Board;
  Mmu Mmu_;
  Interpreter In;
};

TEST_F(FastpathFixture, RepeatedExecutionHitsCache) {
  AsmBuilder A(0x100);
  A.movi(0, 1);
  load(A);
  ASSERT_EQ(stepAt(0x100), StepKind::Ok);
  EXPECT_EQ(In.DecodeMisses, 1u);
  EXPECT_EQ(In.DecodeHits, 0u);
  ASSERT_EQ(stepAt(0x100), StepKind::Ok);
  EXPECT_EQ(In.DecodeMisses, 1u);
  EXPECT_EQ(In.DecodeHits, 1u);
}

TEST_F(FastpathFixture, RawWordMismatchRedecodesWithoutInvalidation) {
  AsmBuilder A(0x100);
  A.movi(0, 1);
  load(A);
  ASSERT_EQ(stepAt(0x100), StepKind::Ok);
  EXPECT_EQ(Board.Env.Regs[0], 1u);

  // Plain SMC with no TLB maintenance: the record is stale, but a hit
  // compares the freshly fetched word against the record, so the new
  // instruction executes and counts as a miss.
  Board.Ram.write(0x100, 4, moviWord(0, 7));
  const uint64_t Misses = In.DecodeMisses;
  ASSERT_EQ(stepAt(0x100), StepKind::Ok);
  EXPECT_EQ(Board.Env.Regs[0], 7u);
  EXPECT_EQ(In.DecodeMisses, Misses + 1);
}

TEST_F(FastpathFixture, TlbimvaDropsCachedPageViaInvalidationPipeline) {
  AsmBuilder A(0x100);
  A.movi(0, 1);               // 0x100: the instruction we cache
  A.mcr(Cp15Reg::TLBIMVA, 8); // 0x104: SMC-style maintenance for page 0
  load(A);
  Board.Env.Regs[8] = 0x00000100; // MVA in page 0x000 (any ASID)

  ASSERT_EQ(stepAt(0x100), StepKind::Ok);
  ASSERT_EQ(stepAt(0x100), StepKind::Ok);
  EXPECT_EQ(In.DecodeHits, 1u);
  EXPECT_EQ(In.DecodePagesDropped, 0u);

  // The TLBIMVA raises a by-page request and the interpreter scrubs its
  // own decode cache at the raise site — the page holding 0x100 (which
  // also holds the MCR itself) drops.
  ASSERT_EQ(stepAt(0x104), StepKind::Ok);
  EXPECT_EQ(Board.Env.TbInvKind, TbInvPage);
  EXPECT_EQ(Board.Env.TbInvPage, 0u);
  EXPECT_GE(In.DecodePagesDropped, 1u);

  // The dropped record must re-decode (a miss), then hit again.
  const uint64_t Misses = In.DecodeMisses;
  ASSERT_EQ(stepAt(0x100), StepKind::Ok);
  EXPECT_EQ(In.DecodeMisses, Misses + 1);
}

TEST_F(FastpathFixture, InvalidationScopesMatchArchitecture) {
  AsmBuilder A(0x100);
  A.movi(0, 1);
  load(A);
  ASSERT_EQ(stepAt(0x100), StepKind::Ok); // populate page 0 under ASID 0

  // A foreign ASID's scope must not touch this page...
  uint64_t Dropped = In.DecodePagesDropped;
  In.onTbInvalidate(TbInvAsid, /*Asid=*/7, 0);
  EXPECT_EQ(In.DecodePagesDropped, Dropped);
  // ...a foreign page must not either...
  In.onTbInvalidate(TbInvPage, 0, /*Page=*/0x5000);
  EXPECT_EQ(In.DecodePagesDropped, Dropped);
  // ...but the owning ASID drops it.
  In.onTbInvalidate(TbInvAsid, /*Asid=*/0, 0);
  EXPECT_EQ(In.DecodePagesDropped, Dropped + 1);

  ASSERT_EQ(stepAt(0x100), StepKind::Ok); // repopulate
  Dropped = In.DecodePagesDropped;
  In.onTbInvalidate(TbInvFull, 0, 0);
  EXPECT_EQ(In.DecodePagesDropped, Dropped + 1) << "full scope drops all";
}

TEST(InterpFastpath, ForkSeesScrubbedCacheAndIdenticalFinals) {
  for (const std::string &Kind : {"native", "rule:scheduling"}) {
    // Master boots, is captured warm, and a fork finishes the workload.
    vm::Vm Master(cfgFor(Kind));
    ASSERT_TRUE(Master.valid()) << Kind;
    Master.runToBootMark();
    const vm::Snapshot Snap = Master.capture();
    std::unique_ptr<vm::Vm> Fork = vm::Vm::forkFrom(Snap);
    ASSERT_TRUE(Fork->valid()) << Kind;
    const vm::RunReport F = Fork->run();

    // A fresh session runs straight through for comparison.
    vm::Vm FreshVm(cfgFor(Kind));
    const vm::RunReport Fresh = FreshVm.run();
    ASSERT_TRUE(Fresh.Ok) << Kind;

    // Guest-visible identity: the fork finishes exactly like the fresh
    // session (the snapshot subsystem's own contract, re-checked here
    // because the decode cache must not leak into it).
    EXPECT_EQ(0, std::memcmp(&F.Counters, &Fresh.Counters,
                             sizeof(F.Counters)))
        << Kind << ": fork counters diverged";
    for (int I = 0; I < 16; ++I)
      EXPECT_EQ(F.Final.Regs[I], Fresh.Final.Regs[I]) << Kind << ": r" << I;
    EXPECT_EQ(F.Final.Nzcv, Fresh.Final.Nzcv) << Kind;
    EXPECT_EQ(F.Console, Fresh.Console) << Kind;
    EXPECT_EQ(F.Ok, Fresh.Ok) << Kind;

    // The fork's decode cache started scrubbed: its counters cover only
    // post-fork execution, so they are strictly below the fresh
    // session's boot-inclusive totals, and re-decoding happened.
    EXPECT_GT(F.InterpDecodeMisses, 0u)
        << Kind << ": scrubbed cache must re-decode";
    EXPECT_LT(F.InterpDecodeHits + F.InterpDecodeMisses,
              Fresh.InterpDecodeHits + Fresh.InterpDecodeMisses)
        << Kind << ": fork must not inherit pre-capture decode activity";
  }
}

} // namespace
