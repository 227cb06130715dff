//===- perfbench/src/ServeFork.cpp - The serve-fork workload --------------===//
//
// Part of RuleDBT's benchmark (perfbench/README.md).
//
// rdbt_serve's request shape: one master per spec is booted, warmed
// with one item and captured; short copy-on-write forks (one ~30k-cycle
// item each) are then drained in a closed loop by one client, the spec
// of each session drawn from the seed. Items are short enough
// that snapshot adoption, code-cache sharing and COW privatization carry
// a large share of every session.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "vm/Snapshot.h"
#include "vm/Vm.h"

#include <cstdio>
#include <memory>

using namespace rdbt;

namespace perfbench {
namespace {

constexpr uint64_t ItemCycles = 30000;
/// Sessions per end-to-end window.
constexpr uint64_t WindowSessions = 100;
/// The drain repeats the set-up (on scratch masters) every this many
/// sessions, so setup_s is a median over samples spread across the run.
constexpr uint64_t SetupEvery = 5 * WindowSessions;
const char *const Specs[] = {"rule:scheduling/libquantum",
                             "rule:scheduling/mcf", "rule:scheduling/gcc"};
constexpr unsigned NumSpecs = 3;

struct Master {
  vm::Snapshot Snap;
  vm::RunReport Prep;      ///< the master's report at capture
  uint64_t MmuMisses = 0;  ///< the master's TLB refills at capture
  vm::RunReport FirstFork; ///< the oracle every later fork must equal
};

/// Builds, boots, warms and captures one master; returns its set-up time.
uint64_t prepareMaster(const vm::VmConfig &Cfg, Master &M, Tracer &T,
                       uint64_t Op) {
  const uint64_t T0 = nowNs();
  const int64_t Setup = T.open("master", Op, -1, T0);
  vm::Vm V(Cfg);
  const uint64_t T1 = nowNs();
  V.runToBootMark();
  const uint64_t T2 = nowNs();
  M.Prep = V.run(ItemCycles);
  const uint64_t T3 = nowNs();
  M.Snap = V.capture();
  const uint64_t T4 = nowNs();
  M.MmuMisses = V.engine()->mmu().Misses;
  T.add("vm.construct", Op, Setup, T0, T1);
  T.add("vm.boot", Op, Setup, T1, T2);
  T.add("vm.warm", Op, Setup, T2, T3);
  T.add("vm.capture", Op, Setup, T3, T4);
  T.close(Setup, T4);
  return T4 - T0;
}

/// One set-up repetition: every spec's master, kept in \p Keep or, when
/// null, dropped before the next spec's so repetitions add one master to
/// peak memory. Returns seconds.
double prepareMasters(const std::vector<vm::VmConfig> &Cfgs, Master *Keep,
                      Tracer &T) {
  uint64_t Ns = 0;
  for (unsigned S = 0; S < NumSpecs; ++S) {
    Master Scratch;
    Ns += prepareMaster(Cfgs[S], Keep ? Keep[S] : Scratch, T, S);
  }
  return Ns / 1e9;
}

/// Drains forks for \p Seconds in a closed loop: fork, run one item,
/// destroy, check against the spec's first fork, next. Returns the
/// drain's wall time per session.
double drain(const Master *Masters, const std::vector<vm::VmConfig> &Cfgs,
             const RunContext &Ctx, double Seconds, bool Traced,
             Outcome &Out) {
  Tracer T(Traced, 1);
  const uint64_t Start = nowNs();
  const uint64_t Deadline = Start + static_cast<uint64_t>(Seconds * 1e9);
  uint64_t I = 0;
  for (uint64_t T0 = Start; T0 < Deadline; T0 = nowNs(), ++I) {
    if (I && I % SetupEvery == 0) {
      Out.SetupS.push_back(prepareMasters(Cfgs, nullptr, T));
      T0 = nowNs();
    }
    const Master &M = Masters[SeedRng(Ctx.Seed ^ (I * 0xD1B54A32D192ED03ull))
                                  .below(NumSpecs)];
    const int64_t Session = T.open("session", I, -1, T0);
    std::unique_ptr<vm::Vm> V = vm::Vm::forkFrom(M.Snap);
    const uint64_t T1 = nowNs();
    const vm::RunReport R = V->run(ItemCycles);
    const uint64_t T2 = nowNs();
    const uint64_t Misses = V->engine()->mmu().Misses;
    V.reset();
    const uint64_t T3 = nowNs();
    T.add("vm.fork", I, Session, T0, T1);
    T.add("vm.run", I, Session, T1, T2);
    T.add("vm.destroy", I, Session, T2, T3);
    T.close(Session, T3);
    ++Out.Attempted;
    if (!Traced)
      Out.Sessions.push_back({I / WindowSessions, T0, T3, 1,
                              R.guestInstrs() - M.Prep.guestInstrs(),
                              T2 - T1});
    else
      Out.Layers.addEngineRun(R, &M.Prep, Misses - M.MmuMisses);

    const std::string Why = reportDiff(R, M.FirstFork);
    if (!R.Error.empty() || (!R.Ok && R.Stop != dbt::StopReason::WallLimit))
      Out.fail(R.Spec + ": forked session stopped with '" + R.stopName() +
               "'");
    else if (!Why.empty())
      Out.fail(R.Spec + ": fork differs from the first fork (" + Why + ")");
  }
  Out.Trace.absorb(T);
  return I ? static_cast<double>(nowNs() - Start) / I : 0;
}

} // namespace

int runServeFork(const RunContext &Ctx, Outcome &Out) {
  std::vector<vm::VmConfig> Cfgs;
  for (const char *Spec : Specs) {
    std::string Err;
    Cfgs.push_back(vm::VmConfig::fromSpec(Spec, &Err));
    if (!Err.empty()) {
      std::fprintf(stderr, "serve-fork: %s: %s\n", Spec, Err.c_str());
      return 1;
    }
  }

  Master Masters[NumSpecs];
  Out.SetupS.push_back(prepareMasters(Cfgs, Masters, Out.Trace));

  // Oracles: each spec's first fork, checked against a fresh-boot twin
  // that constructs, boots, replays the warm item and runs the item.
  for (unsigned S = 0; S < NumSpecs; ++S) {
    Master &M = Masters[S];
    if (!M.Prep.Error.empty()) {
      std::fprintf(stderr, "serve-fork: %s: %s\n", Specs[S],
                   M.Prep.Error.c_str());
      return 1;
    }
    M.FirstFork = vm::Vm::forkFrom(M.Snap)->run(ItemCycles);
    vm::Vm Twin(Cfgs[S]);
    Twin.runToBootMark();
    Twin.run(ItemCycles);
    const std::string Why = reportDiff(M.FirstFork, Twin.run(ItemCycles));
    ++Out.Attempted;
    if (!Why.empty())
      Out.fail(std::string(Specs[S]) + ": fork differs from its fresh-boot "
               "twin (" + Why + ")");
    Out.SimCycles += M.FirstFork.wall() - M.Prep.wall();
    Out.Layers.addUnit("rule", counterDelta(M.FirstFork.Counters,
                                            M.Prep.Counters));
  }

  if (!Ctx.Trace) {
    drain(Masters, Cfgs, Ctx, Ctx.Seconds, false, Out);
    return 0;
  }
  // Traced: an untraced drain, then a traced one of the same length.
  const double Half = Ctx.Seconds / 2;
  Out.Layers.UntracedNs = drain(Masters, Cfgs, Ctx, Half, false, Out);
  Out.Layers.TracedNs = drain(Masters, Cfgs, Ctx, Half, true, Out);

  Tracer Probe(true, 0);
  probeBoardSetup(Probe, {"libquantum", "mcf", "gcc"}, 1, 0, 3);
  Out.Trace.absorb(Probe);
  return 0;
}

} // namespace perfbench
