//===- perfbench/src/SpecExec.cpp - The spec-exec workload ----------------===//
//
// Part of RuleDBT's benchmark (perfbench/README.md).
//
// The 12 SPEC CINT2006 proxies boot the mini kernel and run to power-off
// under qemu and rule:scheduling, one cell after another on one thread,
// in an order drawn from the seed, pass after pass. At scale 1
// translation is well under 1% of run time, so host-code execution, the
// engine loop and the softmmu helpers dominate — the paper's own
// workload. Scale 1 is also the checked-in matrix's scale, so every cell
// of every pass is held to the matrix's exact counts.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "guestsw/Workloads.h"
#include "vm/Vm.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>

using namespace rdbt;

namespace perfbench {
namespace {

constexpr uint32_t SpecScale = 1;
/// Simulated-cycle budget of one run() slice in the traced run.
constexpr uint64_t SliceCycles = 1000000;
const char *const Kinds[2] = {"qemu", "rule:scheduling"};
const char *const KindKeys[2] = {"qemu", "rule"};
const char *const ReferencePath = "/perfbench/data/spec_reference.txt";

std::vector<std::string> specProxies() {
  std::vector<std::string> Out;
  for (const guestsw::WorkloadInfo &W : guestsw::workloads())
    if (W.IsSpecProxy)
      Out.push_back(W.Name);
  return Out;
}

std::string toHex(const std::string &Bytes) {
  static const char Digits[] = "0123456789abcdef";
  std::string Out;
  for (const unsigned char C : Bytes) {
    Out += Digits[C >> 4];
    Out += Digits[C & 15];
  }
  return Out;
}

/// Reads the native consoles; false (with \p Err) on a malformed file.
bool loadReference(const std::string &Root,
                   std::map<std::string, std::string> &Console,
                   std::string &Err) {
  std::ifstream IS(Root + ReferencePath);
  if (!IS) {
    Err = "cannot read " + Root + ReferencePath;
    return false;
  }
  std::string Line;
  while (std::getline(IS, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    std::string Name, Hex;
    uint32_t Scale = 0;
    if (!(LS >> Name >> Scale >> Hex) || Hex.size() % 2 ||
        Hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
      Err = "malformed reference line: " + Line;
      return false;
    }
    if (Scale != SpecScale)
      continue;
    std::string Bytes;
    for (size_t I = 0; I < Hex.size(); I += 2)
      Bytes += static_cast<char>(std::stoi(Hex.substr(I, 2), nullptr, 16));
    Console[Name] = Bytes;
  }
  return true;
}

/// The value of "Field" inside the "Key" cell object of the matrix
/// document; false when either is missing.
bool matrixField(const std::string &Doc, const std::string &Key,
                 const std::string &Field, uint64_t &Value) {
  const size_t Cell = Doc.find("\"" + Key + "\": {");
  if (Cell == std::string::npos)
    return false;
  const size_t End = Doc.find('}', Cell);
  const size_t At = Doc.find("\"" + Field + "\": ", Cell);
  if (At == std::string::npos || At > End)
    return false;
  char *Stop = nullptr;
  const char *Digits = Doc.c_str() + At + Field.size() + 4;
  Value = std::strtoull(Digits, &Stop, 10);
  return Stop != Digits;
}

/// The exact counts every cell must reproduce, keyed like the matrix
/// ("qemu/mcf@1").
struct MatrixCell {
  uint64_t Wall = 0, GuestInstrs = 0, SyncInstrs = 0;
};

/// Reads the checked-in matrix baseline's cells for \p Names under both
/// kinds; false (with \p Err) when the file or a cell is missing.
bool loadMatrix(const std::string &Root, const std::vector<std::string> &Names,
                std::map<std::string, MatrixCell> &Cells, std::string &Err) {
  const std::string Path = Root + "/bench/baselines/BENCH_matrix.json";
  std::ifstream IS(Path);
  std::stringstream SS;
  SS << IS.rdbuf();
  const std::string Doc = SS.str();
  for (const std::string &W : Names)
    for (const char *K : Kinds) {
      const std::string Key =
          std::string(K) + "/" + W + "@" + std::to_string(SpecScale);
      MatrixCell &C = Cells[Key];
      if (!matrixField(Doc, Key, "wall", C.Wall) ||
          !matrixField(Doc, Key, "guest_instrs", C.GuestInstrs) ||
          !matrixField(Doc, Key, "sync_instrs", C.SyncInstrs)) {
        Err = "cell " + Key + " missing from " + Path;
        return false;
      }
    }
  return true;
}

struct CellRun {
  vm::RunReport R;
  uint64_t Start = 0;
  uint64_t End = 0;
  uint64_t CtorNs = 0;
  uint64_t RunNs = 0;
};

/// Runs one cell to power-off. With tracing on, the run is sliced — boot
/// to the boot mark, then fixed simulated-cycle run() slices — and every
/// layer call is a span; the counters must come out identical to the
/// unsliced run.
CellRun runCell(const std::string &W, unsigned K, uint64_t Op, Tracer &T,
                LayerStats &L) {
  CellRun C;
  const uint64_t T0 = nowNs();
  const int64_t Cell = T.open("cell", Op, -1, T0);
  auto V = std::make_unique<vm::Vm>(
      vm::VmConfig().translator(Kinds[K]).workload(W).scale(SpecScale));
  const uint64_t T1 = nowNs();
  T.add("vm.construct", Op, Cell, T0, T1);
  C.CtorNs = T1 - T0;
  if (!T.on()) {
    C.R = V->run();
    C.RunNs = nowNs() - T1;
  } else {
    vm::RunReport Prev = V->runToBootMark();
    uint64_t S0 = nowNs();
    T.add("vm.boot", Op, Cell, T1, S0);
    ExecSlices &Ex = L.Slices[KindKeys[K]];
    for (unsigned Guard = 0; Guard < 1000000; ++Guard) {
      C.R = V->run(SliceCycles);
      const uint64_t S1 = nowNs();
      T.add("vm.run_slice", Op, Cell, S0, S1);
      if (C.R.Engine.Translations == Prev.Engine.Translations) {
        Ex.Ns += S1 - S0;
        Ex.SimCycles += C.R.wall() - Prev.wall();
        Ex.GuestInstrs += C.R.guestInstrs() - Prev.guestInstrs();
      }
      Prev = C.R;
      S0 = S1;
      if (C.R.Stop != dbt::StopReason::WallLimit)
        break;
    }
    C.RunNs = S0 - T1;
    L.addEngineRun(C.R, nullptr, V->engine()->mmu().Misses);
  }
  const uint64_t D0 = nowNs();
  V.reset();
  const uint64_t D1 = nowNs();
  T.add("vm.destroy", Op, Cell, D0, D1);
  T.close(Cell, D1);
  C.Start = T0;
  C.End = D1;
  return C;
}

} // namespace

int regenerateSpecReference(const std::string &Root) {
  std::ostringstream OS;
  OS << "# Guest consoles of the spec-exec cells under the native reference\n"
        "# interpreter. Regenerate with: python3 perfbench/run.py "
        "--regen-reference\n# <workload> <scale> <console bytes, hex>\n";
  for (const std::string &W : specProxies()) {
    vm::Vm V(vm::VmConfig().translator("native").workload(W).scale(SpecScale));
    const vm::RunReport R = V.run();
    if (!R.Ok) {
      std::fprintf(stderr, "native %s did not power off cleanly\n", W.c_str());
      return 1;
    }
    OS << W << " " << SpecScale << " " << toHex(R.Console) << "\n";
  }
  std::ofstream F(Root + ReferencePath);
  F << OS.str();
  if (!F) {
    std::fprintf(stderr, "cannot write %s%s\n", Root.c_str(), ReferencePath);
    return 1;
  }
  std::printf("wrote %s%s\n", Root.c_str(), ReferencePath);
  return 0;
}

int runSpecExec(const RunContext &Ctx, Outcome &Out) {
  const std::vector<std::string> Names = specProxies();
  std::map<std::string, std::string> Reference;
  std::map<std::string, MatrixCell> Matrix;
  std::string Err;
  if (!loadReference(Ctx.Root, Reference, Err) ||
      !loadMatrix(Ctx.Root, Names, Matrix, Err)) {
    std::fprintf(stderr, "spec-exec: %s\n", Err.c_str());
    return 1;
  }

  std::vector<std::pair<std::string, unsigned>> Cells;
  for (const std::string &W : Names)
    for (unsigned K = 0; K < 2; ++K)
      Cells.emplace_back(W, K);
  SeedRng Rng(Ctx.Seed);
  uint64_t Op = 0;

  // One pass over all 24 cells in a seeded order, each checked against
  // the native console and the matrix's exact counts. Returns the pass's
  // reports in Cells order.
  const auto Pass = [&](uint64_t Window, Tracer &T, LayerStats &L,
                        std::vector<vm::RunReport> &Reports) {
    std::vector<size_t> Order(Cells.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[Rng.below(I)]);
    Reports.assign(Cells.size(), vm::RunReport());
    double CtorS = 0;
    for (const size_t I : Order) {
      const std::string &W = Cells[I].first;
      const unsigned K = Cells[I].second;
      CellRun C = runCell(W, K, Op++, T, L);
      ++Out.Attempted;
      CtorS += C.CtorNs / 1e9;
      Out.Sessions.push_back({Window, C.Start, C.End, 1, C.R.guestInstrs(),
                              C.RunNs});
      const MatrixCell &M =
          Matrix[std::string(Kinds[K]) + "/" + W + "@" +
                 std::to_string(SpecScale)];
      if (!C.R.Ok)
        Out.fail(C.R.Spec + ": stopped with '" + C.R.stopName() + "'");
      else if (Reference[W] != C.R.Console)
        Out.fail(C.R.Spec + ": console differs from the native reference");
      else if (C.R.wall() != M.Wall || C.R.guestInstrs() != M.GuestInstrs ||
               C.R.syncInstrs() != M.SyncInstrs)
        Out.fail(C.R.Spec + ": counts differ from the matrix baseline");
      if (K == 1 && Window == 0)
        Out.SimCycles += C.R.wall();
      Reports[I] = std::move(C.R);
    }
    Out.SetupS.push_back(CtorS);
  };

  std::vector<vm::RunReport> First, Reports;
  Tracer Off(false, 0);
  LayerStats Unused;
  const uint64_t Start = nowNs();
  Pass(0, Off, Unused, First);
  if (!Ctx.Trace) {
    for (uint64_t Window = 1; nowNs() - Start < Ctx.Seconds * 1e9; ++Window)
      Pass(Window, Off, Unused, Reports);
    return 0;
  }

  // Traced: after the warm-up pass above, one untraced pass and one
  // sliced, spanned pass, timed for the overhead. Every simulated counter
  // of the traced pass must match the unsliced run exactly.
  const uint64_t UntracedStart = nowNs();
  Pass(1, Off, Unused, Reports);
  const uint64_t TracedStart = nowNs();
  Pass(2, Out.Trace, Out.Layers, Reports);
  Out.Layers.TracedNs = static_cast<double>(nowNs() - TracedStart);
  Out.Layers.UntracedNs = static_cast<double>(TracedStart - UntracedStart);
  for (size_t I = 0; I < Cells.size(); ++I) {
    ++Out.Attempted;
    const std::string Why = reportDiff(First[I], Reports[I]);
    if (!Why.empty())
      Out.fail(Reports[I].Spec + ": traced sliced run differs (" + Why + ")");
    Out.Layers.addUnit(KindKeys[Cells[I].second], Reports[I].Counters);
    // Cells pair up as (W, qemu), (W, rule:scheduling).
    if (Cells[I].second == 1 && Reports[I - 1].wall() && Reports[I].wall())
      Out.Layers.SpeedupVsQemu.push_back(
          static_cast<double>(Reports[I - 1].wall()) /
          static_cast<double>(Reports[I].wall()));
  }
  Tracer Probe(true, 0);
  probeBoardSetup(Probe, Names, SpecScale, 0, 3);
  Out.Trace.absorb(Probe);
  return 0;
}

} // namespace perfbench
