//===- tests/BatchRunnerTest.cpp - Parallel batch executor tests ------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// The contracts the perf-regression gate rests on (DESIGN.md §9):
///
///  * Determinism: the merged matrix JSON serialized from a BatchRunner
///    result is byte-identical whether the batch ran on 1 worker or 8 —
///    results are keyed by submission index and sessions share no
///    mutable state.
///  * Shared-corpus stats isolation: sessions matching against ONE
///    const RuleSet concurrently report exactly the per-session matcher
///    counters a solo run of the same config reports.
///  * Facade equivalence: batching one config changes nothing about the
///    run — counter-for-counter identical to Vm::run.
///  * Error containment: an invalid config fails its own cell, not the
///    batch.
///  * The paper-figure view: Table I and Figs. 14-19 computed from
///    matrix cells give the ratios and geomeans their counters imply,
///    and a failed cell turns its workload's row into a FAILED row that
///    no geomean includes.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "vm/BatchRunner.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace rdbt;

namespace {

/// A small but heterogeneous kind x workload matrix: engine and
/// interpreter executors, two rule opt-levels, workloads with different
/// lengths so parallel completion order differs from submission order.
std::vector<vm::VmConfig> smallMatrix() {
  std::vector<vm::VmConfig> Configs;
  for (const char *Kind :
       {"native", "qemu", "rule:base", "rule:scheduling"})
    for (const char *Workload : {"cpu-prime", "libquantum", "mcf"})
      Configs.push_back(
          vm::VmConfig().translator(Kind).workload(Workload).scale(1));
  return Configs;
}

std::string matrixJsonOf(const std::vector<vm::RunReport> &Reports) {
  std::vector<bench::MatrixCell> Cells;
  for (const vm::RunReport &R : Reports)
    Cells.push_back({R.Spec, bench::fromReport(R)});
  return bench::formatMatrixJson(Cells, 1);
}

TEST(BatchRunner, MergedJsonIsByteIdenticalAcrossJobCounts) {
  const std::vector<vm::VmConfig> Configs = smallMatrix();
  const std::vector<vm::RunReport> Serial =
      vm::BatchRunner(1).run(Configs);
  ASSERT_EQ(Serial.size(), Configs.size());
  for (const vm::RunReport &R : Serial)
    EXPECT_TRUE(R.Ok) << R.Spec << ": " << R.stopName();

  const std::string Reference = matrixJsonOf(Serial);
  for (const unsigned Jobs : {2u, 8u}) {
    const std::vector<vm::RunReport> Parallel =
        vm::BatchRunner(Jobs).run(Configs);
    ASSERT_EQ(Parallel.size(), Configs.size());
    EXPECT_EQ(matrixJsonOf(Parallel), Reference)
        << "matrix JSON must be bitwise identical at --jobs " << Jobs;
  }
}

TEST(BatchRunner, SharedCorpusSessionsDoNotBleedMatchCounters) {
  // One immutable corpus, shared read-only by every session in the
  // batch. Per-session matcher counters must equal the solo run's.
  const rules::RuleSet Corpus = rules::buildReferenceRuleSet();
  std::vector<vm::VmConfig> Configs;
  for (const char *Workload : {"cpu-prime", "libquantum", "mcf", "hmmer"})
    Configs.push_back(vm::VmConfig()
                          .translator("rule:scheduling")
                          .workload(Workload)
                          .rules(&Corpus));

  const std::vector<vm::RunReport> Concurrent =
      vm::BatchRunner(4).run(Configs);
  ASSERT_EQ(Concurrent.size(), Configs.size());
  for (size_t I = 0; I < Configs.size(); ++I) {
    ASSERT_TRUE(Concurrent[I].Ok) << Concurrent[I].Spec;
    vm::Vm Solo(Configs[I]);
    ASSERT_TRUE(Solo.valid()) << Solo.error();
    const vm::RunReport Ref = Solo.run();
    EXPECT_GT(Concurrent[I].RuleMatchAttempts, 0u);
    EXPECT_EQ(Concurrent[I].RuleMatchAttempts, Ref.RuleMatchAttempts)
        << Concurrent[I].Spec
        << ": concurrent sessions must not bleed attempts";
    EXPECT_EQ(Concurrent[I].RuleMatchHits, Ref.RuleMatchHits)
        << Concurrent[I].Spec;
  }
}

TEST(BatchRunner, BatchOfOneMatchesVmRunCounterForCounter) {
  const vm::VmConfig Cfg =
      vm::VmConfig().translator("rule:scheduling").workload("libquantum");

  vm::Vm V(Cfg);
  ASSERT_TRUE(V.valid()) << V.error();
  const vm::RunReport Ref = V.run();

  const std::vector<vm::RunReport> Batch = vm::BatchRunner(1).run({Cfg});
  ASSERT_EQ(Batch.size(), 1u);
  const vm::RunReport &R = Batch[0];

  EXPECT_EQ(R.Stop, Ref.Stop);
  EXPECT_EQ(R.Ok, Ref.Ok);
  EXPECT_EQ(R.Spec, Ref.Spec);
  EXPECT_EQ(R.Console, Ref.Console);
  EXPECT_EQ(R.Counters.Wall, Ref.Counters.Wall);
  EXPECT_EQ(R.Counters.GuestInstrs, Ref.Counters.GuestInstrs);
  EXPECT_EQ(R.Counters.GuestMemInstrs, Ref.Counters.GuestMemInstrs);
  EXPECT_EQ(R.Counters.GuestSysInstrs, Ref.Counters.GuestSysInstrs);
  EXPECT_EQ(R.Counters.IrqChecks, Ref.Counters.IrqChecks);
  EXPECT_EQ(R.Counters.SyncOps, Ref.Counters.SyncOps);
  EXPECT_EQ(R.Counters.TbEntries, Ref.Counters.TbEntries);
  EXPECT_EQ(R.Counters.ChainFollows, Ref.Counters.ChainFollows);
  EXPECT_EQ(R.Counters.HelperCalls, Ref.Counters.HelperCalls);
  for (unsigned K = 0; K < host::NumCostClasses; ++K)
    EXPECT_EQ(R.Counters.ByClass[K], Ref.Counters.ByClass[K])
        << "cost class " << K;
  EXPECT_EQ(R.Engine.Translations, Ref.Engine.Translations);
  EXPECT_EQ(R.Cache.Flushes, Ref.Cache.Flushes);
  EXPECT_EQ(R.RuleCoveredInstrs, Ref.RuleCoveredInstrs);
  EXPECT_EQ(R.FallbackInstrs, Ref.FallbackInstrs);
  EXPECT_EQ(R.RuleMatchAttempts, Ref.RuleMatchAttempts);
  EXPECT_EQ(R.RuleMatchHits, Ref.RuleMatchHits);
}

TEST(BatchRunner, InvalidConfigFailsItsCellNotTheBatch) {
  std::vector<vm::VmConfig> Configs;
  Configs.push_back(
      vm::VmConfig().translator("no-such-kind").workload("cpu-prime"));
  Configs.push_back(
      vm::VmConfig().translator("rule:scheduling").workload("cpu-prime"));

  const std::vector<vm::RunReport> Reports =
      vm::BatchRunner(2).run(Configs);
  ASSERT_EQ(Reports.size(), 2u);
  EXPECT_FALSE(Reports[0].Ok);
  EXPECT_FALSE(Reports[0].Error.empty())
      << "the invalid cell must carry its construction error";
  EXPECT_TRUE(Reports[1].Ok)
      << "a bad cell must not poison the rest of the batch";
}

TEST(BatchRunner, EmptyBatchAndZeroJobsAreSafe) {
  EXPECT_TRUE(vm::BatchRunner(0).run({}).empty());
  EXPECT_EQ(vm::BatchRunner(0).jobs(), 1u);
  EXPECT_GE(vm::BatchRunner::hardwareJobs(), 1u);
}

/// The paper figure with the given id.
const bench::PaperFigure &paperFigure(const std::string &Id) {
  for (const bench::PaperFigure &F : bench::paperFigures())
    if (F.Id == Id)
      return F;
  ADD_FAILURE() << "no paper figure '" << Id << "'";
  return bench::paperFigures().front();
}

bench::FigureView figure(const std::string &Id,
                         const std::vector<bench::MatrixCell> &Cells) {
  return bench::computeFigure(paperFigure(Id), Cells, 1);
}

bool near(double A, double B) { return std::fabs(A - B) < 1e-9 * B; }

/// A synthetic scale-1 matrix: every figure kind on every workload, each
/// retiring 1000 guest instructions. qemu's wall is doubled on every
/// other workload, so speedups differ per row; \p Lift is the factor
/// that doubling leaves on a SPEC speedup geomean.
std::vector<bench::MatrixCell> syntheticMatrix(double &Lift) {
  struct Kind {
    const char *Name;
    uint64_t Wall, SyncInstrs, SyncOps;
  };
  const Kind Kinds[] = {
      {"native", 1000, 0, 0},           {"qemu", 12000, 0, 0},
      {"rule:base", 16000, 8000, 400},  {"rule:reduction", 10000, 2000, 200},
      {"rule:elimination", 8000, 1500, 150},
      {"rule:scheduling", 6000, 1000, 100}};
  std::vector<bench::MatrixCell> Cells;
  unsigned Index = 0, Spec = 0, Doubled = 0;
  for (const auto &W : guestsw::workloads()) {
    const bool Double = Index++ % 2 == 1;
    Spec += W.IsSpecProxy;
    Doubled += W.IsSpecProxy && Double;
    for (const Kind &K : Kinds) {
      bench::MatrixCell C{bench::matrixKey(K.Name, W.Name, 1), {}};
      C.S.Ok = true;
      C.S.GuestInstrs = 1000;
      C.S.SysInstrs = 5;
      C.S.MemInstrs = 300;
      C.S.IrqChecks = 100;
      C.S.Wall = K.Wall * (Double && std::string(K.Name) == "qemu" ? 2 : 1);
      C.S.SyncInstrs = K.SyncInstrs;
      C.S.SyncOps = K.SyncOps;
      Cells.push_back(C);
    }
  }
  Lift = std::pow(2.0, static_cast<double>(Doubled) / Spec);
  return Cells;
}

TEST(PaperFigures, RatiosAndGeomeansFollowFromTheCounters) {
  double Lift = 0;
  const std::vector<bench::MatrixCell> Cells = syntheticMatrix(Lift);

  // Table I: 5, 300 and 100 of 1000 guest instructions under qemu.
  const bench::FigureView T1 = figure("table1", Cells);
  const double Shares[] = {0.5, 30.0, 10.0};
  for (unsigned I = 0; I < 3; ++I) {
    EXPECT_TRUE(near(T1.Rows[0].Values[I], Shares[I])) << I;
    EXPECT_TRUE(near(T1.Geomeans[I], Shares[I])) << T1.Geomeans[I];
  }

  // Fig. 14: qemu 12000 over rule-base 16000 and full-opt 6000 walls;
  // the second row's qemu wall is doubled.
  const bench::FigureView F14 = figure("fig14", Cells);
  EXPECT_TRUE(near(F14.Rows[0].Values[0], 1.0));
  EXPECT_TRUE(near(F14.Rows[0].Values[1], 0.75)) << F14.Rows[0].Values[1];
  EXPECT_TRUE(near(F14.Rows[1].Values[2], 4.0)) << F14.Rows[1].Values[2];
  // (5 + 300 + 100) / 1000 need coordination; full-opt keeps 1/4 of
  // rule-base's sync ops.
  EXPECT_EQ(F14.Rows[0].Note, "  (40.5% -> 10.1% sync ops)");
  EXPECT_TRUE(near(F14.Geomeans[0], 1.0)) << F14.Geomeans[0];
  EXPECT_TRUE(near(F14.Geomeans[2], 2.0 * Lift)) << F14.Geomeans[2];

  const bench::FigureView F16 = figure("fig16", Cells);
  const bench::FigureView F17 = figure("fig17", Cells);
  const double Speedups[] = {0.75, 1.2, 1.5, 2.0};
  const double SyncPerGuest[] = {8.0, 2.0, 1.5, 1.0};
  for (unsigned L = 0; L < 4; ++L) {
    EXPECT_TRUE(near(F16.Rows[0].Values[L], Speedups[L])) << L;
    EXPECT_TRUE(near(F16.Geomeans[L], Speedups[L] * Lift)) << L;
    EXPECT_TRUE(near(F17.Rows[1].Values[L], SyncPerGuest[L])) << L;
    EXPECT_TRUE(near(F17.Geomeans[L], SyncPerGuest[L])) << L;
  }
}

TEST(PaperFigures, FailedCellGivesAFailedRowOutsideTheGeomean) {
  double Lift = 0;
  std::vector<bench::MatrixCell> Cells = syntheticMatrix(Lift);
  const bench::FigureView Clean = figure("fig14", Cells);
  // Fail rule:base on the first SPEC proxy, one without a doubled wall.
  const std::string Name = Clean.Rows[0].Workload;
  const std::string Key = bench::matrixKey("rule:base", Name, 1);
  for (bench::MatrixCell &C : Cells)
    C.S.Ok = C.Key != Key;

  const bench::FigureView V = figure("fig14", Cells);
  ASSERT_EQ(V.Rows.size(), Clean.Rows.size());
  EXPECT_EQ(V.Rows[0].FailedKey, Key);
  EXPECT_TRUE(V.Rows[0].Values.empty());
  const double Rest = static_cast<double>(V.Rows.size() - 1);
  EXPECT_TRUE(near(V.Geomeans[2],
                   2.0 * std::pow(Lift, V.Rows.size() / Rest)))
      << "the failed workload must be left out: " << V.Geomeans[2];
  const std::string Text = bench::formatFigure(paperFigure("fig14"), V, 1);
  EXPECT_NE(Text.find("FAILED (" + Key + ")"), std::string::npos) << Text;
  // Table I reads only qemu cells, so the workload stays in it.
  EXPECT_TRUE(figure("table1", Cells).Rows[0].FailedKey.empty());

  // A missing cell fails its row the same way.
  std::vector<bench::MatrixCell> NoNative;
  for (const bench::MatrixCell &C : Cells)
    if (C.Key.compare(0, 7, "native/") != 0)
      NoNative.push_back(C);
  const bench::FigureView F18 = figure("fig18", NoNative);
  EXPECT_EQ(F18.Rows[0].FailedKey, bench::matrixKey("native", Name, 1));
  EXPECT_EQ(F18.Geomeans[0], 0.0);
}

} // namespace
