//===- tests/HostAndRulesTest.cpp - Host machine and rule-set tests --------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//

#include "host/HostDisasm.h"
#include "host/HostEmitter.h"
#include "host/HostMachine.h"
#include "dbt/SoftmmuEmit.h"
#include "rules/RuleSet.h"
#include "sys/Env.h"
#include "sys/Platform.h"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <iterator>
#include <memory>
#include <string>

using namespace rdbt;
using namespace rdbt::host;

namespace {

/// Minimal harness around HostMachine with a real env + RAM.
class HostFixture : public ::testing::Test, public HelperHandler,
                    public WallSink {
protected:
  HostFixture()
      : Board(8 << 20), Port(Board),
        Machine(reinterpret_cast<uint32_t *>(&Board.Env),
                sys::envWordCount(), Port, *this, *this,
                sys::envSlotMmuIdx(), sys::envSlotTlbBase(),
                sys::tlbEntryWords(), sys::TlbSize) {}

  Outcome call(uint16_t Id, uint32_t A0, uint32_t A1, uint32_t) override {
    LastHelper = Id;
    Outcome O;
    O.Cost = 5;
    O.HasResult = true;
    O.Result = A0 + A1;
    return O;
  }
  uint64_t onWall(uint64_t) override { return ~0ull; }

  class Port_ final : public PhysPort {
  public:
    explicit Port_(sys::Platform &B) : Board(B) {}
    bool read(uint32_t Pa, unsigned Size, uint32_t &V) override {
      return Board.physRead(Pa, Size, V);
    }
    bool write(uint32_t Pa, unsigned Size, uint32_t V) override {
      return Board.physWrite(Pa, Size, V);
    }
    sys::Platform &Board;
  };

  class OneBlock final : public CodeSource {
  public:
    HostBlock B;
    ChainLinks Links;
    TbView enter(int Id) override {
      if (Id != 0)
        return {};
      return {&B, &Links, nullptr};
    }
  };

  sys::Platform Board;
  Port_ Port;
  HostMachine Machine;
  uint16_t LastHelper = 0xFFFF;
};

TEST_F(HostFixture, AluAndFlagsArmPolarity) {
  OneBlock Src;
  HostEmitter E(Src.B);
  E.movRI(0, 5);
  E.aluI(HOp::Sub, 0, 7, /*SetFlags=*/true); // 5 - 7: borrow -> C clear
  E.setCc(1, HCond::Cc);                     // x86 "b": C clear
  E.setCc(2, HCond::Mi);
  E.exitTb(ExitReason::Lookup);
  const RunResult R = Machine.run(Src, 0);
  EXPECT_EQ(R.Reason, ExitReason::Lookup);
  EXPECT_EQ(Machine.reg(0), 5u - 7u);
  EXPECT_EQ(Machine.reg(1), 1u) << "ARM-polarity carry: borrow clears C";
  EXPECT_EQ(Machine.reg(2), 1u) << "negative result sets N";
}

TEST_F(HostFixture, PackUnpackFlagsRoundTrip) {
  OneBlock Src;
  HostEmitter E(Src.B);
  E.movRI(0, 1);
  E.aluI(HOp::Sub, 0, 1, true); // Z=1, C=1 (no borrow)
  E.packF(1);
  E.movRI(2, 0);
  E.aluI(HOp::Add, 2, 1, true); // clobber flags (result 1: NZCV=0)
  E.unpackF(1);
  E.setCc(3, HCond::Eq);
  E.setCc(4, HCond::Cs);
  E.exitTb(ExitReason::Lookup);
  Machine.run(Src, 0);
  EXPECT_EQ(Machine.reg(3), 1u);
  EXPECT_EQ(Machine.reg(4), 1u);
}

TEST_F(HostFixture, EnvSlotsAndHelperCalls) {
  Board.Env.Regs[7] = 0xAA55;
  OneBlock Src;
  HostEmitter E(Src.B);
  E.ldEnv(0, sys::envSlotReg(7));
  E.movRI(1, 3);
  E.setClass(CostClass::Helper);
  E.callHelper(/*Helper=*/9, /*A0=*/0, /*A1=*/1, /*Dst=*/2);
  E.setClass(CostClass::User);
  E.stEnv(sys::envSlotReg(8), 2);
  E.exitTb(ExitReason::Lookup);
  Machine.run(Src, 0);
  EXPECT_EQ(LastHelper, 9u);
  EXPECT_EQ(Board.Env.Regs[8], 0xAA55u + 3u);
  EXPECT_EQ(Machine.Counters.HelperCalls, 1u);
  // call overhead 3 + helper-reported 5 charged to the Helper class.
  EXPECT_EQ(Machine.Counters.ByClass[static_cast<unsigned>(
                CostClass::Helper)],
            8u);
}

TEST_F(HostFixture, TlbProbeAndGuestAccess) {
  // Install a TLB entry by hand and run the probe sequence the
  // translators emit.
  const uint32_t Va = 0x00345678;
  sys::TlbEntry &Entry =
      Board.Env.Tlb[0][(Va >> 12) & (sys::TlbSize - 1)];
  Entry.TagRead = Va >> 12;
  Entry.TagWrite = Va >> 12;
  Entry.PhysFlags = 0x00345000;
  Board.Ram.write(0x00345678, 4, 0x13579BDF);

  OneBlock Src;
  HostEmitter E(Src.B);
  E.movRI(4, Va);
  dbt::emitInlineAccess(E, 4, 5, 4, /*IsLoad=*/true);
  E.exitTb(ExitReason::Lookup);
  Machine.run(Src, 0);
  EXPECT_EQ(Machine.reg(5), 0x13579BDFu);
  EXPECT_EQ(Machine.Counters.HelperCalls, 0u) << "hit path, no helper";
  EXPECT_GT(Machine.Counters.ByClass[static_cast<unsigned>(
                CostClass::MmuInline)],
            5u);
}

TEST_F(HostFixture, TlbProbeStaysInsideTheTlb) {
  // A crafted cache file can probe with an unmasked index register and
  // store any MMU index to env; the probe still reads a TLB entry.
  Board.Env.Tlb[1][0x45].PhysFlags = 0xCAFE0000u;
  OneBlock Src;
  HostEmitter E(Src.B);
  E.stEnvI(sys::envSlotMmuIdx(), 3);
  E.movRI(4, 0x12345);
  E.tlbPhys(5, 4);
  E.exitTb(ExitReason::Lookup);
  Machine.run(Src, 0);
  EXPECT_EQ(Machine.reg(5), 0xCAFE0000u);
}

TEST_F(HostFixture, ChainSlotFallsThroughWhenUnresolved) {
  OneBlock Src;
  HostEmitter E(Src.B);
  E.chainSlot(0, 0x2000);
  E.stEnvI(sys::envSlotReg(15), 0x2000);
  E.exitTbNeedTranslate(0);
  const RunResult R = Machine.run(Src, 0);
  EXPECT_EQ(R.Reason, ExitReason::NeedTranslate);
  EXPECT_EQ(R.FromChainSlot, 0);
  EXPECT_EQ(Board.Env.Regs[15], 0x2000u);
}

TEST_F(HostFixture, ElidedFlagSaveRangeCostsNothing) {
  // mov; [SyncOp marker; mov] = slot 0's flag-save range; chain exit.
  OneBlock Src;
  HostEmitter E(Src.B);
  E.movRI(0, 1);
  Src.B.Chains[0].FlagSaveBegin = E.marker(MarkerKind::SyncOp);
  E.movRI(0, 2);
  Src.B.Chains[0].FlagSaveEnd = E.chainSlot(0, 0x2000);
  E.stEnvI(sys::envSlotReg(15), 0x2000);
  E.exitTbNeedTranslate(0);

  Src.Links.Elided[0] = true;
  // Skipped ops do not count toward the runaway guard either: the four
  // live ops fit a budget of exactly four.
  Machine.MaxInstrsPerRun = 4;
  const RunResult R = Machine.run(Src, 0);
  EXPECT_EQ(R.Reason, ExitReason::NeedTranslate);
  EXPECT_EQ(Machine.reg(0), 1u);
  EXPECT_EQ(Machine.Counters.Wall, 4u); // mov + chain + stenvi + exit
  EXPECT_EQ(Machine.Counters.SyncOps, 0u);

  // The same block with the range live runs it and counts the SyncOp.
  Src.Links.Elided[0] = false;
  Machine.MaxInstrsPerRun = ~0ull;
  Machine.run(Src, 0);
  EXPECT_EQ(Machine.reg(0), 2u);
  EXPECT_EQ(Machine.Counters.Wall, 4u + 5u);
  EXPECT_EQ(Machine.Counters.SyncOps, 1u);
}

TEST_F(HostFixture, DisassemblyMarksElidedFlagSaveOps) {
  OneBlock Src;
  HostEmitter E(Src.B);
  Src.B.Chains[0].FlagSaveBegin = E.marker(MarkerKind::SyncOp);
  E.movRI(0, 2);
  Src.B.Chains[0].FlagSaveEnd = E.chainSlot(0, 0x2000);
  E.exitTbNeedTranslate(0);
  EXPECT_EQ(disassembleBlock(Src.B).find("(elided)"), std::string::npos);
  EXPECT_EQ(disassembleBlock(Src.B, &Src.Links).find("(elided)"),
            std::string::npos);
  Src.Links.Elided[0] = true;
  const std::string Text = disassembleBlock(Src.B, &Src.Links);
  size_t Marks = 0;
  for (size_t P = Text.find("(elided)"); P != std::string::npos;
       P = Text.find("(elided)", P + 1))
    ++Marks;
  EXPECT_EQ(Marks, 2u) << Text; // the marker and the mov, not the chain
}

//===----------------------------------------------------------------------===//
// Executor equivalence: every program runs once op by op and once through
// its lowered form, and must come out identical in every register, flag,
// env word, RAM word, counter and onWall call.
//===----------------------------------------------------------------------===//

/// Helper ids the equivalence programs may call (the verifier's bound).
constexpr uint32_t TestHelpers = 4;
constexpr uint32_t ScratchRam = 0x4000; ///< GLoad/GStore window

/// Serves a set of blocks with or without their lowered forms.
class Program final : public CodeSource {
public:
  std::vector<HostBlock> Blocks;
  std::vector<ChainLinks> Links;
  std::vector<std::shared_ptr<const LoweredBlock>> Lowered;
  /// Bit I set: serve block I lowered.
  uint32_t LoweredMask = 0;

  HostBlock &add() {
    Blocks.emplace_back();
    Links.emplace_back();
    return Blocks.back();
  }
  /// Lowers every block; false if one does not verify.
  bool lower() {
    Lowered.clear();
    for (const HostBlock &B : Blocks) {
      std::string Why;
      Lowered.push_back(
          lowerBlock(B, sys::envWordCount(), TestHelpers, Why));
      if (!Lowered.back()) {
        ADD_FAILURE() << "block does not verify: " << Why;
        return false;
      }
    }
    return true;
  }
  TbView enter(int Id) override {
    if (Id < 0 || static_cast<size_t>(Id) >= Blocks.size())
      return {};
    const bool Low = (LoweredMask >> Id) & 1;
    return {&Blocks[Id], &Links[Id], Low ? Lowered[Id].get() : nullptr};
  }
};

/// One host machine over its own env and RAM. The wall sink plays a
/// device: every deadline it serves writes the time into env and RAM, so
/// an op that ran on the wrong side of a deadline reads a different value.
struct Rig : HelperHandler, WallSink, PhysPort {
  sys::Platform Board{1 << 20};
  HostMachine M{reinterpret_cast<uint32_t *>(&Board.Env),
                sys::envWordCount(),
                *this,
                *this,
                *this,
                sys::envSlotMmuIdx(),
                sys::envSlotTlbBase(),
                sys::tlbEntryWords(),
                sys::TlbSize};
  std::vector<uint64_t> Walls;
  uint64_t Period = 0; ///< 0: no further deadline

  bool read(uint32_t Pa, unsigned Size, uint32_t &V) override {
    return Board.physRead(Pa, Size, V);
  }
  bool write(uint32_t Pa, unsigned Size, uint32_t V) override {
    return Board.physWrite(Pa, Size, V);
  }
  uint64_t onWall(uint64_t Now) override {
    Walls.push_back(Now);
    Board.Env.Regs[9] = static_cast<uint32_t>(Now);
    Board.Ram.write(ScratchRam, 4, static_cast<uint32_t>(Now * 3));
    return Period ? Now + Period : ~0ull;
  }
  Outcome call(uint16_t Id, uint32_t A0, uint32_t A1, uint32_t) override {
    Outcome O;
    O.Cost = 2 + (A0 & 7); // a data-dependent cost, like the softmmu's
    O.HasResult = true;
    O.Result = A0 * 31 + A1 + Id;
    O.Exit = Id == 3;
    O.Reason = ExitReason::Exception;
    return O;
  }
};

/// Runs \p P on two identically prepared rigs, op by op and lowered, and
/// expects identical outcomes. \p Prepare sets up a rig before the run.
void expectSameRun(Program &P, const std::string &What,
                   const std::function<void(Rig &)> &Prepare,
                   uint32_t LoweredMask = ~0u) {
  ASSERT_TRUE(P.lower()) << What;
  auto Ref = std::make_unique<Rig>();
  auto Low = std::make_unique<Rig>();
  RunResult Res[2];
  Rig *Rigs[2] = {Ref.get(), Low.get()};
  for (int K = 0; K < 2; ++K) {
    // A wrong lowering that breaks a loop counter must fail, not hang.
    Rigs[K]->M.MaxInstrsPerRun = 1u << 20;
    Prepare(*Rigs[K]);
    P.LoweredMask = K ? LoweredMask : 0;
    Res[K] = Rigs[K]->M.run(P, 0);
  }
  EXPECT_EQ(Res[0].Reason, Res[1].Reason) << What;
  EXPECT_EQ(Res[0].FromTb, Res[1].FromTb) << What;
  EXPECT_EQ(Res[0].FromChainSlot, Res[1].FromChainSlot) << What;
  for (unsigned R = 0; R < NumHostRegs; ++R)
    EXPECT_EQ(Ref->M.reg(R), Low->M.reg(R)) << What << ": h" << R;
  EXPECT_EQ(Ref->M.packedFlags(), Low->M.packedFlags()) << What;
  const auto *EnvA = reinterpret_cast<const uint32_t *>(&Ref->Board.Env);
  const auto *EnvB = reinterpret_cast<const uint32_t *>(&Low->Board.Env);
  for (uint32_t W = 0; W < sys::envWordCount(); ++W)
    ASSERT_EQ(EnvA[W], EnvB[W]) << What << ": env word " << W;
  for (uint32_t Pa = ScratchRam; Pa < ScratchRam + 64; Pa += 4)
    EXPECT_EQ(Ref->Board.Ram.read(Pa, 4), Low->Board.Ram.read(Pa, 4))
        << What << ": RAM " << Pa;
  const ExecCounters &A = Ref->M.Counters, &B = Low->M.Counters;
  EXPECT_EQ(A.Wall, B.Wall) << What;
  for (unsigned C = 0; C < NumCostClasses; ++C)
    EXPECT_EQ(A.ByClass[C], B.ByClass[C]) << What << ": class " << C;
  EXPECT_EQ(A.SyncOps, B.SyncOps) << What;
  EXPECT_EQ(A.GuestInstrs, B.GuestInstrs) << What;
  EXPECT_EQ(A.GuestMemInstrs, B.GuestMemInstrs) << What;
  EXPECT_EQ(A.GuestSysInstrs, B.GuestSysInstrs) << What;
  EXPECT_EQ(A.IrqChecks, B.IrqChecks) << What;
  EXPECT_EQ(A.TbEntries, B.TbEntries) << What;
  EXPECT_EQ(A.ChainFollows, B.ChainFollows) << What;
  EXPECT_EQ(A.HelperCalls, B.HelperCalls) << What;
  EXPECT_EQ(Ref->Walls, Low->Walls) << What << ": onWall sequence";
}

/// Every op that is neither a marker nor control flow.
const HOp DataOps[] = {
    HOp::Nop,   HOp::Mov,   HOp::LdEnv,  HOp::StEnv,   HOp::StEnvI,
    HOp::Add,   HOp::Adc,   HOp::Sub,    HOp::Sbc,     HOp::Rsb,
    HOp::And,   HOp::Or,    HOp::Xor,    HOp::Bic,     HOp::Shl,
    HOp::Shr,   HOp::Sar,   HOp::Ror,    HOp::Neg,     HOp::Not,
    HOp::Mul,   HOp::MulLU, HOp::MulLS,  HOp::Clz,     HOp::Cmp,
    HOp::Cmn,   HOp::Test,  HOp::SetCc,  HOp::PackF,   HOp::UnpackF,
    HOp::TlbCmp, HOp::TlbPhys, HOp::GLoad, HOp::GStore,
};

TEST(ExecutorEquivalence, EveryOpUseImmAndSetFlagsCombination) {
  // Operand pairs around every carry, overflow, sign and shift edge.
  const uint32_t Operands[][2] = {
      {5, 7},          {0x80000000u, 0x80000000u}, {0xFFFFFFFFu, 1},
      {0x7FFFFFFFu, 1}, {0x12345678u, 33},         {0xF0F0F0F0u, 32},
      {0, 0},          {1, 31},
  };
  const uint32_t FlagSets[] = {0x00000000u, 0xF0000000u, 0x60000000u,
                               0x90000000u};
  for (const HOp Op : DataOps)
    for (int UseImm = 0; UseImm < 2; ++UseImm)
      for (int SetFlags = 0; SetFlags < 2; ++SetFlags)
        for (size_t V = 0; V < std::size(Operands); ++V) {
          Program P;
          HostBlock &B = P.add();
          HostEmitter E(B);
          E.movRI(0, Operands[V][0]);
          E.movRI(1, Operands[V][1]);
          E.movRI(2, ScratchRam + 8);
          E.movRI(3, FlagSets[V % std::size(FlagSets)]);
          E.unpackF(3);
          HInst H;
          H.Op = Op;
          H.UseImm = UseImm;
          H.SetFlags = SetFlags;
          H.Cc = static_cast<HCond>(V % 15);
          H.AccIsWrite = V & 1;
          H.Size = std::array<uint8_t, 3>{1, 2, 4}[V % 3];
          H.Dst = 0;
          H.Src = Op == HOp::GLoad || Op == HOp::GStore ? 2 : 1;
          H.Src2 = 1;
          H.Imm = static_cast<int32_t>(Operands[V][1]);
          H.Slot = sys::envSlotReg(V % 15);
          E.emit(H);
          E.packF(4);
          E.stEnv(sys::envSlotReg(10), 4);
          E.exitTb(ExitReason::Lookup);
          expectSameRun(P,
                        std::string(hopName(Op)) + " imm=" +
                            std::to_string(UseImm) +
                            " flags=" + std::to_string(SetFlags) +
                            " operands#" + std::to_string(V),
                        [&](Rig &R) {
                          for (unsigned I = 0; I < 15; ++I)
                            R.Board.Env.Regs[I] = 0x1111u * (I + V);
                          R.Board.Env.Tlb[0][1].TagRead = Operands[V][1];
                          R.Board.Ram.write(ScratchRam + 8, 4, 0xA5C3E7F1u);
                        });
        }
}

/// A loop of straight-line work around every kind of op the lowered
/// executor handles itself, reading what the wall sink writes.
Program loopProgram(uint32_t Iterations) {
  Program P;
  HostBlock &B = P.add();
  B.NumGuestInstrs = 3;
  B.NumMemInstrs = 1;
  HostEmitter E(B);
  E.movRI(5, Iterations);
  E.movRI(6, ScratchRam);
  E.movRI(7, 0);
  const int Top = E.here();
  E.marker(MarkerKind::SyncOp);
  E.ldEnv(0, sys::envSlotReg(9)); // the time the sink last saw
  E.alu(HOp::Add, 7, 0);
  E.gLoad(1, 6, 4); // the sink's RAM write
  E.alu(HOp::Xor, 7, 1);
  E.aluI(HOp::Shr, 1, 3);
  E.aluI(HOp::And, 1, 0xFF);
  E.alu(HOp::Or, 7, 1);
  E.packF(2);
  E.alu(HOp::Add, 7, 2);
  E.setCc(3, HCond::Ne);
  E.alu(HOp::Add, 7, 3);
  E.stEnv(sys::envSlotReg(11), 7);
  E.setClass(CostClass::Helper);
  E.callHelper(1, 7, 5, 8);
  E.setClass(CostClass::MmuInline);
  E.tlbCmp(8, 5, false);
  E.tlbPhys(4, 8);
  E.setClass(CostClass::User);
  E.gStore(7, 6, 4);
  E.aluI(HOp::Sub, 5, 1, /*SetFlags=*/true);
  E.patchTarget(E.jcc(HCond::Ne), Top);
  E.stEnv(sys::envSlotReg(12), 8);
  E.exitTb(ExitReason::Lookup);
  return P;
}

TEST(ExecutorEquivalence, WallDeadlinesInsideSegments) {
  // Deadlines every Period cycles land before, inside and after every
  // segment; the sink must see the same onWall(Now) sequence.
  for (const uint64_t First : {1ull, 5ull, 17ull, 100ull, 1000ull})
    for (const uint64_t Period : {0ull, 1ull, 2ull, 3ull, 7ull, 13ull, 29ull}) {
      Program P = loopProgram(20);
      expectSameRun(P,
                    "first deadline " + std::to_string(First) + ", period " +
                        std::to_string(Period),
                    [&](Rig &R) {
                      R.Period = Period;
                      R.M.NextDeadline = First;
                    });
    }
}

TEST(ExecutorEquivalence, RunawayLimitExpiresMidSegment) {
  for (uint64_t Max = 1; Max <= 160; ++Max) {
    Program P = loopProgram(8);
    expectSameRun(P, "MaxInstrsPerRun " + std::to_string(Max), [&](Rig &R) {
      R.M.MaxInstrsPerRun = Max;
      R.Period = 11;
      R.M.NextDeadline = 40;
    });
  }
}

/// Block 0 chains (slot 0) to block 1 through a flag-save range; block 1
/// loops through a Jcc and calls a helper, then leaves.
Program chainProgram(bool Elided) {
  Program P;
  HostBlock &B0 = P.add();
  B0.NumGuestInstrs = 2;
  HostEmitter E0(B0);
  E0.movRI(0, 3);
  E0.aluI(HOp::Sub, 0, 1, /*SetFlags=*/true);
  E0.setClass(CostClass::Sync);
  B0.Chains[0].FlagSaveBegin = E0.marker(MarkerKind::SyncOp);
  E0.packF(ScratchReg0);
  E0.stEnv(sys::envSlotPackedCcr(), ScratchReg0);
  E0.setClass(CostClass::Glue);
  B0.Chains[0].FlagSaveEnd = E0.chainSlot(0, 0x2000);
  E0.stEnvI(sys::envSlotReg(15), 0x2000);
  E0.exitTbNeedTranslate(0);
  P.Links[0].Target[0] = 1;
  P.Links[0].Elided[0] = Elided;

  HostBlock &B1 = P.add();
  B1.NumGuestInstrs = 4;
  B1.NumIrqChecks = 1;
  HostEmitter E1(B1);
  E1.marker(MarkerKind::TbProlog);
  E1.movRI(1, 0);
  const int Top = E1.here();
  E1.alu(HOp::Add, 1, 0);
  E1.aluI(HOp::Add, 1, 7);
  E1.aluI(HOp::Sub, 0, 1, /*SetFlags=*/true);
  E1.patchTarget(E1.jcc(HCond::Ge), Top);
  E1.setClass(CostClass::Helper);
  E1.callHelper(2, 1, 0, 2);
  E1.setClass(CostClass::Glue);
  E1.stEnv(sys::envSlotReg(13), 2);
  E1.callHelper(3, 2, 1, 3); // helper 3 leaves with an exception
  E1.exitTb(ExitReason::Lookup);
  return P;
}

TEST(ExecutorEquivalence, ElidedFlagSaveRangeAndChains) {
  for (const bool Elided : {false, true})
    // Every mix of lowered and unlowered blocks across the chain.
    for (uint32_t Mask = 0; Mask < 4; ++Mask)
      for (uint64_t Max = 1; Max <= 40; ++Max) {
        Program P = chainProgram(Elided);
        expectSameRun(P,
                      std::string(Elided ? "elided" : "live") +
                          " flag-save, lowered mask " + std::to_string(Mask) +
                          ", MaxInstrsPerRun " + std::to_string(Max),
                      [&](Rig &R) {
                        R.M.MaxInstrsPerRun = Max;
                        R.Period = 4;
                        R.M.NextDeadline = 9;
                      },
                      Mask);
      }
}

TEST(ExecutorEquivalence, LoweringFoldsMarkersAndSplitsAtSegmentRule) {
  Program P = chainProgram(false);
  ASSERT_TRUE(P.lower());
  const LoweredBlock &L = *P.Lowered[0];
  // Segments: [0,2) falls into the flag-save range [2,5), which falls
  // into the ChainSlot's segment; the exit epilogue follows it.
  ASSERT_EQ(L.Segments.size(), 4u);
  EXPECT_EQ(L.Segments[1].Begin, 2u);
  EXPECT_TRUE(L.Segments[1].ElideCheck);
  EXPECT_EQ(L.Segments[1].SyncOps, 1u);
  EXPECT_EQ(L.Segments[1].Len, 3u);
  EXPECT_EQ(L.Segments[1].Cost, 3u); // marker 0 + packf 2 + stenv 1
  EXPECT_EQ(L.Segments[1].ByClass[static_cast<unsigned>(CostClass::Sync)],
            3u);
  EXPECT_EQ(L.SegmentAt[5], 2);
  EXPECT_EQ(L.SegmentAt[3], -1);
}

TEST(ExecutorEquivalence, BlockThatFailsVerificationIsNeverLowered) {
  Program P = chainProgram(false);
  ASSERT_EQ(P.Blocks[1].Code[7].Op, HOp::StEnv);
  P.Blocks[1].Code[7].Slot = sys::envWordCount();
  std::string Why;
  EXPECT_EQ(lowerBlock(P.Blocks[1], sys::envWordCount(), TestHelpers, Why),
            nullptr);
  EXPECT_EQ(Why, "env slot out of range");
  P.Blocks[1].Code[7].Slot = sys::envSlotReg(13);
  P.Blocks[1].Code.back().Op = HOp::Mov; // can now fall off its end
  EXPECT_EQ(lowerBlock(P.Blocks[1], sys::envWordCount(), TestHelpers, Why),
            nullptr);
  EXPECT_EQ(Why, "block can fall off its end");
  // A source that refuses a block stops the run before any of it runs.
  class Refusing final : public CodeSource {
  public:
    TbView enter(int) override { return {}; }
  } Src;
  Rig R;
  const RunResult Res = R.M.run(Src, 7);
  EXPECT_EQ(Res.Reason, ExitReason::InvalidBlock);
  EXPECT_EQ(Res.FromTb, 7);
  EXPECT_EQ(R.M.Counters.TbEntries, 0u);
  EXPECT_EQ(R.M.Counters.Wall, 0u);
}

TEST(RuleSetTest, ReferenceRulesMatchAndEmit) {
  const rules::RuleSet RS = rules::buildReferenceRuleSet();
  arm::Inst I;
  I.Op = arm::Opcode::ADD;
  I.Rd = 0;
  I.Rn = 1;
  I.Op2 = arm::Operand2::reg(2);
  rules::Binding B;
  const rules::Rule *R = nullptr;
  ASSERT_EQ(RS.match(&I, 1, &R, B), 1u);
  HostBlock HB;
  HostEmitter E(HB);
  rules::emitRule(*R, B, E);
  ASSERT_EQ(HB.Code.size(), 2u); // mov h0, h1 ; add h0, h2
  EXPECT_EQ(HB.Code[0].Op, HOp::Mov);
  EXPECT_EQ(HB.Code[1].Op, HOp::Add);

  // add r0, r0, r2 elides the mov.
  I.Rn = 0;
  ASSERT_EQ(RS.match(&I, 1, &R, B), 1u);
  HostBlock HB2;
  HostEmitter E2(HB2);
  rules::emitRule(*R, B, E2);
  EXPECT_EQ(HB2.Code.size(), 1u);
}

TEST(RuleSetTest, SubAliasedUsesRsbForm) {
  const rules::RuleSet RS = rules::buildReferenceRuleSet();
  arm::Inst I;
  I.Op = arm::Opcode::SUB;
  I.Rd = 2;
  I.Rn = 1;
  I.Op2 = arm::Operand2::reg(2); // rd == rm
  rules::Binding B;
  const rules::Rule *R = nullptr;
  ASSERT_EQ(RS.match(&I, 1, &R, B), 1u);
  HostBlock HB;
  HostEmitter E(HB);
  rules::emitRule(*R, B, E);
  ASSERT_FALSE(HB.Code.empty());
  EXPECT_EQ(HB.Code[0].Op, HOp::Rsb) << "sub rd, rn, rd -> rsb form";
}

TEST(RuleSetTest, SystemInstructionsNeverMatch) {
  const rules::RuleSet RS = rules::buildReferenceRuleSet();
  arm::Inst I;
  I.Op = arm::Opcode::VMSR;
  I.Rd = 0;
  rules::Binding B;
  const rules::Rule *R = nullptr;
  EXPECT_EQ(RS.match(&I, 1, &R, B), 0u);
  I = arm::Inst();
  I.Op = arm::Opcode::LDR;
  I.Rd = 0;
  I.Rn = 1;
  EXPECT_EQ(RS.match(&I, 1, &R, B), 0u)
      << "memory accesses are structural, not rules";
}

TEST(RuleSetTest, PcOperandsRejected) {
  const rules::RuleSet RS = rules::buildReferenceRuleSet();
  arm::Inst I;
  I.Op = arm::Opcode::ADD;
  I.Rd = 0;
  I.Rn = arm::RegPC;
  I.Op2 = arm::Operand2::reg(2);
  rules::Binding B;
  const rules::Rule *R = nullptr;
  EXPECT_EQ(RS.match(&I, 1, &R, B), 0u);
}

} // namespace
