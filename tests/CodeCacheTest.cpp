//===- tests/CodeCacheTest.cpp - Translation-cache unit tests --------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// Direct unit tests for the ASID-aware code cache — keying, per-ASID and
/// per-page selective invalidation, chain unlinking that reverts flag-save
/// elision, stale-id rejection, id stability across flushes, forks that
/// link without touching shared blocks — plus
/// integration tests that prove the multi-process ctxswitch workload
/// retains translations across context switches (the ≥5x retranslation
/// reduction the ASID design exists for) while every executor still
/// produces identical guest output.
///
//===----------------------------------------------------------------------===//

#include "dbt/CodeCache.h"
#include "dbt/Engine.h"
#include "guestsw/MiniKernel.h"
#include "guestsw/Workloads.h"
#include "host/HostEmitter.h"
#include "ir/QemuTranslator.h"
#include "sys/Env.h"
#include "vm/TranslatorRegistry.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

using namespace rdbt;
using namespace rdbt::dbt;

namespace {

/// A minimal host block: four sync-class instructions, a flag-save
/// region [1, 3) attached to chain slot 0.
std::shared_ptr<const host::HostBlock> makeBlock(uint32_t GuestPc,
                                                 uint32_t NumGuestInstrs = 4) {
  auto B = std::make_shared<host::HostBlock>();
  B->GuestPc = GuestPc;
  B->NumGuestInstrs = NumGuestInstrs;
  for (int I = 0; I < 4; ++I) {
    host::HInst H;
    H.Op = host::HOp::Nop;
    H.Cls = host::CostClass::Sync;
    B->Code.push_back(H);
  }
  B->Chains[0].GuestTarget = GuestPc + 4 * NumGuestInstrs;
  B->Chains[0].FlagSaveBegin = 1;
  B->Chains[0].FlagSaveEnd = 3;
  return B;
}

TEST(CodeCache, KeyedByPcMmuIdxAndAsid) {
  CodeCache C;
  const int PrivA0 = C.insert(makeBlock(0x1000), 0, 0);
  const int UserA0 = C.insert(makeBlock(0x1000), 1, 0);
  const int UserA1 = C.insert(makeBlock(0x1000), 1, 1);
  EXPECT_EQ(C.find(0x1000, 0, 0), PrivA0);
  EXPECT_EQ(C.find(0x1000, 1, 0), UserA0);
  EXPECT_EQ(C.find(0x1000, 1, 1), UserA1);
  EXPECT_EQ(C.find(0x1000, 0, 1), -1);
  EXPECT_EQ(C.find(0x2000, 0, 0), -1);
  EXPECT_EQ(C.size(), 3u);
}

TEST(CodeCache, ChainElisionMarksFlagSaveElidedAndCounts) {
  CodeCache C;
  const int A = C.insert(makeBlock(0x1000), 0, 0);
  const int B = C.insert(makeBlock(0x2000), 0, 0);
  EXPECT_TRUE(C.chain(A, 0, B, /*ElideFlagSave=*/true));
  EXPECT_EQ(C.links(A).Target[0], B);
  EXPECT_TRUE(C.links(A).Elided[0]);
  EXPECT_FALSE(C.links(A).Elided[1]);
  // The elided range is [1, 3): it is skipped from its head at 1 to 3.
  EXPECT_EQ(C.links(A).elidedRangeEnd(*C.block(A), 1), 3);
  EXPECT_EQ(C.links(A).elidedRangeEnd(*C.block(A), 0), -1);
  EXPECT_EQ(C.Stats.ChainsMade, 1u);
  EXPECT_EQ(C.Stats.ChainsWithElision, 1u);
  EXPECT_EQ(C.Stats.ElidedSyncInstrs, 2u);
  // A second patch of the same slot is a stale request, not an error.
  EXPECT_FALSE(C.chain(A, 0, B, false));
  EXPECT_EQ(C.Stats.StaleChainRequests, 1u);
}

TEST(CodeCache, ChainWithoutElisionKeepsFlagSave) {
  CodeCache C;
  const int A = C.insert(makeBlock(0x1000), 0, 0);
  const int B = C.insert(makeBlock(0x2000), 0, 0);
  EXPECT_TRUE(C.chain(A, 0, B, /*ElideFlagSave=*/false));
  EXPECT_EQ(C.links(A).Target[0], B);
  EXPECT_FALSE(C.links(A).Elided[0]);
  EXPECT_EQ(C.Stats.ChainsWithElision, 0u);
  EXPECT_EQ(C.Stats.ElidedSyncInstrs, 0u);
}

TEST(CodeCache, InvalidateAsidDropsOnlyThatAsid) {
  CodeCache C;
  const int A0 = C.insert(makeBlock(0x1000), 0, 0);
  const int A1 = C.insert(makeBlock(0x1000), 0, 1);
  const int B1 = C.insert(makeBlock(0x2000), 0, 1);
  C.invalidateAsid(1);
  EXPECT_EQ(C.find(0x1000, 0, 0), A0);
  EXPECT_EQ(C.find(0x1000, 0, 1), -1);
  EXPECT_EQ(C.find(0x2000, 0, 1), -1);
  EXPECT_EQ(C.block(A1), nullptr);
  EXPECT_EQ(C.block(B1), nullptr);
  EXPECT_NE(C.block(A0), nullptr);
  EXPECT_EQ(C.size(), 1u);
  EXPECT_EQ(C.Stats.AsidInvalidations, 1u);
  EXPECT_EQ(C.Stats.TbsInvalidated, 2u);
  EXPECT_EQ(C.Stats.TbsRetained, 1u);
}

TEST(CodeCache, InvalidatePageDropsSpanningBlocksFromEitherSide) {
  CodeCache C;
  // Block straddling the 0x1000 -> 0x2000 page boundary.
  const int Straddle = C.insert(makeBlock(0x1FF8, /*NumGuestInstrs=*/4), 0, 0);
  const int InPage = C.insert(makeBlock(0x2100), 0, 0);
  const int Elsewhere = C.insert(makeBlock(0x5000), 0, 2);
  C.invalidatePage(0x2000);
  EXPECT_EQ(C.block(Straddle), nullptr) << "straddling block covers 0x2000";
  EXPECT_EQ(C.block(InPage), nullptr);
  EXPECT_NE(C.block(Elsewhere), nullptr);
  EXPECT_EQ(C.Stats.PageInvalidations, 1u);
  EXPECT_EQ(C.Stats.TbsInvalidated, 2u);
  EXPECT_EQ(C.Stats.TbsRetained, 1u);

  // The same straddling block is also reachable from its first page.
  const int Straddle2 = C.insert(makeBlock(0x1FF8, 4), 0, 0);
  C.invalidatePage(0x1000);
  EXPECT_EQ(C.block(Straddle2), nullptr);
}

TEST(CodeCache, InvalidationUnlinksIncomingChainsAndRevertsElision) {
  CodeCache C;
  const int A = C.insert(makeBlock(0x1000), 0, 0);
  const int B = C.insert(makeBlock(0x2000), 0, 1);
  ASSERT_TRUE(C.chain(A, 0, B, /*ElideFlagSave=*/true));
  ASSERT_TRUE(C.links(A).Elided[0]);

  C.invalidateAsid(1); // drops B, must unlink A -> B
  ASSERT_NE(C.block(A), nullptr);
  EXPECT_EQ(C.links(A).Target[0], -1)
      << "chain into the dropped block must be reset";
  EXPECT_FALSE(C.links(A).Elided[0])
      << "elided flag-save must run again once unlinked";
  EXPECT_EQ(C.links(A).elidedRangeEnd(*C.block(A), 1), -1);
  EXPECT_EQ(C.Stats.ChainsUnlinked, 1u);
  EXPECT_EQ(C.Stats.ElisionsReverted, 1u);

  // The unlinked slot can chain again, to a new target.
  const int B2 = C.insert(makeBlock(0x2000), 0, 1);
  EXPECT_TRUE(C.chain(A, 0, B2, false));
  EXPECT_EQ(C.links(A).Target[0], B2);
}

TEST(CodeCache, ForkLinksWithoutTouchingSharedBlocks) {
  CodeCache Master;
  const int A = Master.insert(makeBlock(0x1000), 0, 0);
  const int B = Master.insert(makeBlock(0x2000), 0, 1);
  ASSERT_TRUE(Master.chain(A, 0, B, /*ElideFlagSave=*/true));
  const std::shared_ptr<const CodeCache::Image> Img = Master.capture();
  const CodeCache::Entry &ImgA = Img->Entries[A - Img->BaseId];

  CodeCache Fork;
  Fork.adopt(*Img);
  Fork.invalidateAsid(1); // drops B, unlinks A -> B in the fork only
  EXPECT_EQ(Fork.links(A).Target[0], -1);
  EXPECT_FALSE(Fork.links(A).Elided[0]);
  ASSERT_TRUE(Fork.chain(A, 0, A, /*ElideFlagSave=*/true));
  EXPECT_EQ(Fork.links(A).Target[0], A);

  // The fork still runs the image's very block object; only its own
  // link table moved, and the image's (and the master's) did not.
  EXPECT_EQ(Fork.block(A), ImgA.Block.get());
  EXPECT_EQ(Master.block(A), ImgA.Block.get());
  EXPECT_EQ(ImgA.Links.Target[0], B);
  EXPECT_TRUE(ImgA.Links.Elided[0]);
  EXPECT_EQ(Master.links(A).Target[0], B);
  EXPECT_NE(Master.block(B), nullptr);
  EXPECT_EQ(Fork.Stats.CowBlockCopies, 0u);
  EXPECT_EQ(Master.Stats.CowBlockCopies, 0u);
}

TEST(CodeCache, OutOfRangeChainSlotIsRefused) {
  // The slot comes from an exit in the block's code, which a loaded
  // cache file supplies; a bad one is refused, never indexed.
  CodeCache C;
  const int A = C.insert(makeBlock(0x1000), 0, 0);
  const int B = C.insert(makeBlock(0x2000), 0, 0);
  EXPECT_FALSE(C.chain(A, 2, B, true));
  EXPECT_FALSE(C.chain(A, -1, B, true));
  EXPECT_EQ(C.Stats.StaleChainRequests, 2u);
  EXPECT_EQ(C.Stats.ChainsMade, 0u);
  EXPECT_EQ(C.links(A).Target[0], -1);
  EXPECT_EQ(C.links(A).Target[1], -1);
}

TEST(CodeCache, SelfChainInvalidation) {
  CodeCache C;
  const int A = C.insert(makeBlock(0x1000), 0, 3);
  ASSERT_TRUE(C.chain(A, 0, A, false)); // tight loop chained to itself
  C.invalidateAsid(3);
  EXPECT_EQ(C.block(A), nullptr);
  EXPECT_EQ(C.Stats.TbsInvalidated, 1u);
}

TEST(CodeCache, IdsNeverReusedAcrossFlush) {
  CodeCache C;
  const int A = C.insert(makeBlock(0x1000), 0, 0);
  const int B = C.insert(makeBlock(0x2000), 0, 0);
  C.flush();
  EXPECT_EQ(C.size(), 0u);
  EXPECT_EQ(C.block(A), nullptr);
  const int A2 = C.insert(makeBlock(0x1000), 0, 0);
  EXPECT_GT(A2, B) << "ids must be monotonic across flushes";
  EXPECT_EQ(C.block(A), nullptr) << "retired id must not alias new blocks";
  EXPECT_EQ(C.find(0x1000, 0, 0), A2);
}

TEST(CodeCache, StaleIdChainRequestIsRefused) {
  // The regression for the Engine.cpp hazard: a FromTb captured before a
  // flush must not patch whatever lives at that id afterwards.
  CodeCache C;
  const int From = C.insert(makeBlock(0x1000), 0, 0);
  C.flush();
  const int To = C.insert(makeBlock(0x2000), 0, 0);
  EXPECT_FALSE(C.chain(From, 0, To, false));
  EXPECT_EQ(C.Stats.StaleChainRequests, 1u);
  EXPECT_EQ(C.Stats.ChainsMade, 0u);

  // Same for a target dropped by a partial invalidation.
  const int From2 = C.insert(makeBlock(0x3000), 0, 0);
  const int To2 = C.insert(makeBlock(0x4000), 0, 1);
  C.invalidateAsid(1);
  EXPECT_FALSE(C.chain(From2, 0, To2, false));
  EXPECT_EQ(C.Stats.StaleChainRequests, 2u);
}

TEST(CodeCache, RetranslationAccounting) {
  CodeCache C;
  C.insert(makeBlock(0x1000, /*NumGuestInstrs=*/7), 0, 0);
  EXPECT_EQ(C.Stats.Retranslations, 0u);
  C.flush();
  C.insert(makeBlock(0x1000, 7), 0, 0);
  EXPECT_EQ(C.Stats.Retranslations, 1u);
  EXPECT_EQ(C.Stats.RetranslatedGuestInstrs, 7u);
  // A fresh key under another ASID is a first translation, not a re-do.
  C.insert(makeBlock(0x1000, 7), 0, 1);
  EXPECT_EQ(C.Stats.Retranslations, 1u);
}

TEST(CodeCache, FindAfterPartialFlushKeepsSurvivors) {
  CodeCache C;
  int Ids[8];
  for (int I = 0; I < 8; ++I)
    Ids[I] = C.insert(makeBlock(0x1000 + 0x1000u * I), 0,
                      static_cast<uint32_t>(I % 2));
  C.invalidateAsid(0);
  for (int I = 0; I < 8; ++I) {
    const uint32_t Pc = 0x1000 + 0x1000u * I;
    if (I % 2) {
      EXPECT_EQ(C.find(Pc, 0, 1), Ids[I]);
      EXPECT_NE(C.block(Ids[I]), nullptr);
    } else {
      EXPECT_EQ(C.find(Pc, 0, 0), -1);
      EXPECT_EQ(C.block(Ids[I]), nullptr);
    }
  }
  EXPECT_EQ(C.size(), 4u);
}

//===----------------------------------------------------------------------===//
// Lowered forms: built on a block's second entry, kept beside its links,
// shared with forks, dropped with the block.
//===----------------------------------------------------------------------===//

/// A block both executors may run: one mov, then an exit.
std::shared_ptr<const host::HostBlock> makeRunnable(uint32_t GuestPc) {
  auto B = std::make_shared<host::HostBlock>();
  B->GuestPc = GuestPc;
  B->NumGuestInstrs = 1;
  host::HostEmitter E(*B);
  E.movRI(0, 1);
  E.exitTb(host::ExitReason::Lookup);
  return B;
}

TEST(CodeCacheLowering, BlockIsLoweredOnItsSecondEntry) {
  CodeCache C;
  const int A = C.insert(makeRunnable(0x1000), 0, 0);
  const host::TbView First = C.enter(A);
  EXPECT_EQ(First.Block, C.block(A));
  EXPECT_EQ(First.Links, &C.links(A));
  EXPECT_EQ(First.Lowered, nullptr);
  EXPECT_EQ(C.lowered(A), nullptr) << "a block entered once stays unlowered";
  const host::TbView Second = C.enter(A);
  ASSERT_NE(Second.Lowered, nullptr);
  EXPECT_EQ(Second.Lowered, C.lowered(A));
  EXPECT_EQ(C.enter(A).Lowered, Second.Lowered) << "lowered once, then kept";
}

TEST(CodeCacheLowering, ForkSharesLoweredFormsAndReLowersNothing) {
  CodeCache Master;
  const int A = Master.insert(makeRunnable(0x1000), 0, 0);
  const int B = Master.insert(makeRunnable(0x2000), 0, 0);
  Master.enter(A);
  Master.enter(A);
  Master.enter(B);
  const auto Img = Master.capture();
  ASSERT_NE(Img->Entries[A].Lowered, nullptr);

  CodeCache Fork;
  Fork.adopt(*Img);
  EXPECT_EQ(Fork.lowered(A), Master.lowered(A));
  EXPECT_EQ(Fork.lowered(A), Img->Entries[A].Lowered.get());
  EXPECT_EQ(Fork.enter(A).Lowered, Img->Entries[A].Lowered.get())
      << "the fork runs the image's lowered form; it lowers nothing anew";
  // B's entry count came along: the fork's first entry is B's second.
  EXPECT_NE(Fork.enter(B).Lowered, nullptr);
  EXPECT_EQ(Master.lowered(B), nullptr) << "a fork's lowering stays its own";
  EXPECT_EQ(Img->Entries[B].Lowered, nullptr);
}

TEST(CodeCacheLowering, InvalidationAndFlushDropTheLoweredForm) {
  CodeCache C;
  const int A = C.insert(makeRunnable(0x1000), 0, 0);
  const int B = C.insert(makeRunnable(0x5000), 0, 0);
  for (const int Id : {A, A, B, B})
    C.enter(Id);
  // Watch A's lowered form through a weak pointer: only the cache owns it.
  std::weak_ptr<const host::LoweredBlock> LowA = C.capture()->Entries[A].Lowered;
  ASSERT_FALSE(LowA.expired());

  C.invalidatePage(0x1000);
  EXPECT_EQ(C.lowered(A), nullptr);
  EXPECT_TRUE(LowA.expired()) << "an invalidated block's lowered form is freed";
  EXPECT_EQ(C.enter(A).Block, nullptr);
  EXPECT_NE(C.lowered(B), nullptr) << "other pages keep theirs";

  C.flush();
  EXPECT_EQ(C.lowered(B), nullptr);
  EXPECT_EQ(C.enter(B).Block, nullptr);
}

TEST(CodeCacheLowering, BlockThatFailsVerificationIsNeverLoweredOrRunAgain) {
  CodeCache C;
  // makeBlock's four nops fall off the block's end.
  const int A = C.insert(makeBlock(0x1000), 0, 0);
  EXPECT_NE(C.enter(A).Block, nullptr); // the first entry is not checked
  const host::TbView Second = C.enter(A);
  EXPECT_EQ(Second.Block, nullptr);
  EXPECT_EQ(C.lowered(A), nullptr);
  EXPECT_NE(C.lowerError().find("block can fall off its end"),
            std::string::npos)
      << C.lowerError();
  EXPECT_EQ(C.enter(A).Block, nullptr);
}

/// Qemu's translation plus an unreachable op with an env slot past the
/// end of env: harmless on a block's first run, refused when lowered.
class UnverifiableTranslator final : public Translator {
public:
  const char *name() const override { return "unverifiable"; }
  void translate(const GuestBlock &GB, host::HostBlock &Out) override {
    Inner.translate(GB, Out);
    host::HostEmitter E(Out);
    E.stEnv(static_cast<uint16_t>(sys::envWordCount()), 0);
    E.exitTb(host::ExitReason::Lookup);
  }
  EntryStub entryStub() const override { return Inner.entryStub(); }

private:
  ir::QemuTranslator Inner;
};

TEST(CodeCacheLowering, SessionStopsWithAnErrorOnUnverifiableCode) {
  sys::Platform Board(guestsw::KernelLayout::MinRam);
  ASSERT_TRUE(guestsw::setupGuest(Board, "cpu-prime", 1));
  UnverifiableTranslator Xlat;
  DbtEngine Engine(Board, Xlat);
  EXPECT_EQ(Engine.run(1ull << 40), StopReason::InvalidCode);
  EXPECT_NE(Engine.codeCache().lowerError().find("env slot out of range"),
            std::string::npos)
      << Engine.codeCache().lowerError();
  EXPECT_FALSE(Board.ShutdownRequested);

  // The session facade turns the stop into an error report.
  vm::TranslatorRegistry::KindInfo K;
  K.Name = "test:unverifiable";
  K.Label = "unverifiable";
  K.MetricKey = "unverifiable";
  K.Make = [](const vm::TranslatorRegistry::Context &) {
    return std::unique_ptr<Translator>(new UnverifiableTranslator);
  };
  vm::TranslatorRegistry::global().registerKind(K);
  vm::Vm V(vm::VmConfig().translator("test:unverifiable").workload(
      "cpu-prime"));
  ASSERT_TRUE(V.valid()) << V.error();
  const vm::RunReport R = V.run();
  EXPECT_EQ(R.Stop, StopReason::InvalidCode);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("failed verification"), std::string::npos)
      << R.Error;
}

//===----------------------------------------------------------------------===//
// Integration: the ctxswitch workload through the vm/ facade
//===----------------------------------------------------------------------===//

vm::VmConfig ctxswitchConfig(const char *Kind) {
  return vm::VmConfig().workload("ctxswitch").translator(Kind);
}

vm::RunReport runCtxswitch(const char *Kind) {
  vm::Vm V(ctxswitchConfig(Kind));
  EXPECT_TRUE(V.valid()) << V.error();
  return V.run();
}

TEST(CtxSwitch, SelectiveInvalidationKeepsEveryProcessTranslated) {
  vm::Vm V(ctxswitchConfig("rule:scheduling"));
  ASSERT_TRUE(V.valid()) << V.error();
  const vm::RunReport R = V.run();
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Console, runCtxswitch("native").Console)
      << "the cache policy must be invisible to the guest";

  // Context switches rewrite TTBR0 and CONTEXTIDR on every yield, yet
  // nothing is flushed beyond boot and nothing is translated twice.
  EXPECT_LT(R.Cache.Flushes, 4u);
  EXPECT_EQ(R.Cache.RetranslatedGuestInstrs, 0u);

  // Every process runs the same user image under its own ASID (its pid).
  // The live cache must still hold each process's code at the end, down
  // to the entry block translated in its first timeslice: the union of
  // every address space's working set, not just the last timeslice's.
  const CodeCache &Cache = V.engine()->codeCache();
  EXPECT_EQ(R.Cache.LiveTbs, Cache.size());
  for (uint32_t Pid = 0; Pid < guestsw::CtxSwitchNumProcs; ++Pid)
    EXPECT_GE(Cache.find(guestsw::KernelLayout::UserVirt, /*MmuIdx=*/1, Pid),
              0)
        << "process " << Pid << " lost its entry block";
}

TEST(CtxSwitch, AllExecutorsAgreeOnConsole) {
  const vm::RunReport Native = runCtxswitch("native");
  const vm::RunReport Qemu = runCtxswitch("qemu");
  const vm::RunReport Rule = runCtxswitch("rule:scheduling");
  ASSERT_TRUE(Native.Ok);
  ASSERT_TRUE(Qemu.Ok);
  ASSERT_TRUE(Rule.Ok);
  EXPECT_FALSE(Native.Console.empty());
  EXPECT_EQ(Native.Console, Qemu.Console);
  EXPECT_EQ(Native.Console, Rule.Console);
}

TEST(CtxSwitch, ReportSurfacesCacheAndRuleCounters) {
  const vm::RunReport R = runCtxswitch("rule:scheduling");
  ASSERT_TRUE(R.Ok);
  EXPECT_GT(R.Engine.Translations, 0u);
  EXPECT_GT(R.RuleMatchAttempts, 0u);
  EXPECT_GT(R.RuleMatchHits, 0u);
  EXPECT_LE(R.RuleMatchHits, R.RuleMatchAttempts);
}

} // namespace
