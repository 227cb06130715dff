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
    const HostBlock *block(int Id) const override {
      return Id == 0 ? &B : nullptr;
    }
    const ChainLinks &links(int) const override { return Links; }
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
