//===- perfbench/src/FuzzDiff.cpp - The fuzz-diff workload ----------------===//
//
// Part of RuleDBT's benchmark (perfbench/README.md).
//
// A seeded window of mixed-profile programs runs on one thread as flat
// images under native and all five engine kinds, and every final state
// is diffed against native. Each exec translates fresh code once and
// runs it about once, so board and Vm construction, translation and the
// reference interpreter dominate — the layers spec-exec uses least.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "dbt/GuestBlock.h"
#include "fuzz/Differential.h"
#include "fuzz/ProgramGen.h"
#include "sys/Mmu.h"
#include "vm/TranslatorRegistry.h"
#include "vm/Vm.h"

#include <cstdio>
#include <memory>

using namespace rdbt;

namespace perfbench {
namespace {

constexpr uint64_t ProgramSeeds = 1000;
/// Seeds per end-to-end window.
constexpr uint64_t SeedsPerWindow = 100;
/// The run repeats the set-up (into scratch programs) every this many
/// seeds, so setup_s is a median over samples spread across the run.
constexpr uint64_t SetupEvery = 5 * SeedsPerWindow;
constexpr uint32_t FlatRamBytes = 8u << 20; // fuzz::flatConfig's board
const char *const Kinds[] = {"native",           "qemu",
                             "rule:base",        "rule:reduction",
                             "rule:elimination", "rule:scheduling"};
constexpr unsigned NumKinds = 6;

struct Programs {
  rules::RuleSet Corpus;
  std::vector<std::vector<uint32_t>> Images;
};

/// Builds the shared rule corpus and renders the seed window's programs;
/// returns the time taken.
uint64_t buildPrograms(const RunContext &Ctx, const fuzz::Profile &Mix,
                     Programs &W, Tracer &T) {
  const uint64_t T0 = nowNs();
  W.Corpus = rules::buildReferenceRuleSet();
  T.add("rules.corpus", 0, -1, T0, nowNs());
  W.Images.clear();
  for (uint64_t I = 0; I < ProgramSeeds; ++I) {
    const uint64_t G0 = nowNs();
    W.Images.push_back(
        fuzz::render(fuzz::generate(Ctx.Seed * ProgramSeeds + I, Mix)));
    T.add("fuzz.gen", I, -1, G0, nowNs());
  }
  return nowNs() - T0;
}

/// Replays the session's translated blocks through a fresh translator of
/// the same kind: guest fetch+decode, then translation, each timed.
/// Returns the time spent.
uint64_t replayTranslations(vm::Vm &V, const std::string &Kind,
                            const rules::RuleSet &Corpus, uint64_t Blocks,
                            uint64_t Op, int64_t Parent, Tracer &T,
                            LayerStats &L) {
  const uint64_t R0 = nowNs();
  const int64_t Replay = T.open("replay", Op, Parent, R0);
  vm::TranslatorRegistry::Context XCtx;
  XCtx.Rules = &Corpus;
  std::unique_ptr<dbt::Translator> Xlat =
      vm::TranslatorRegistry::global().find(Kind)->Make(XCtx);
  const bool Ir = Kind == "qemu";
  sys::Mmu Mmu(V.board().Env, V.board());
  for (uint64_t Id = 0; Id < Blocks; ++Id) {
    const host::HostBlock *B =
        V.engine()->codeCache().block(static_cast<int>(Id));
    if (!B)
      continue;
    dbt::GuestBlock GB;
    sys::Fault F;
    const uint64_t F0 = nowNs();
    if (!dbt::fetchGuestBlock(Mmu, B->GuestPc, V.board().Env.MmuIdx, GB, F))
      continue;
    const uint64_t F1 = nowNs();
    host::HostBlock Out;
    Xlat->translate(GB, Out);
    const uint64_t F2 = nowNs();
    T.add("dbt.fetch", Op, Replay, F0, F1);
    T.add(Ir ? "ir.translate" : "core.translate", Op, Replay, F1, F2);
    L.FetchNs += F1 - F0;
    L.FetchGuestInstrs += GB.Insts.size();
    (Ir ? L.IrXlateNs : L.CoreXlateNs) += F2 - F1;
    (Ir ? L.IrXlateGuestInstrs : L.CoreXlateGuestInstrs) += GB.Insts.size();
  }
  const uint64_t R1 = nowNs();
  T.close(Replay, R1);
  return R1 - R0;
}

} // namespace

int runFuzzDiff(const RunContext &Ctx, Outcome &Out) {
  const fuzz::Profile *Mix = fuzz::findProfile("mixed");
  if (!Mix) {
    std::fprintf(stderr, "fuzz-diff: no 'mixed' generator profile\n");
    return 1;
  }
  Programs W;
  Out.SetupS.push_back(buildPrograms(Ctx, *Mix, W, Out.Trace) / 1e9);

  LayerStats Unused;
  // Runs the \p J-th seed of the sequence (cycling over the programs)
  // under every kind and diffs against native. Returns rule:scheduling's
  // simulated cycles and adds the replay time to \p ReplayNs.
  const auto RunSeed = [&](uint64_t J, Tracer &T, LayerStats &L,
                           uint64_t &ReplayNs) {
    const uint64_t I = J % ProgramSeeds;
    const uint64_t Op = Ctx.Seed * ProgramSeeds + I;
    uint64_t Guest = 0, RunNs = 0;
    const uint64_t S0 = nowNs();
    const int64_t Seed = T.open("seed", Op, -1, S0);
    uint64_t Cycles = 0, Replayed = 0;
    fuzz::FinalState Ref;
    for (unsigned K = 0; K < NumKinds; ++K) {
      const bool IsNative = K == 0;
      const uint64_t E0 = nowNs();
      const int64_t Exec = T.open("exec", Op, Seed, E0);
      auto V = std::make_unique<vm::Vm>(fuzz::flatConfig(
          W.Images[I], Kinds[K], IsNative ? nullptr : &W.Corpus,
          IsNative ? fuzz::NativeBudget : fuzz::EngineBudget));
      const uint64_t E1 = nowNs();
      const vm::RunReport R = V->run();
      const uint64_t E2 = nowNs();
      T.add("vm.construct", Op, Exec, E0, E1);
      T.add("vm.run", Op, Exec, E1, E2);
      ++Out.Attempted;
      Guest += R.guestInstrs();
      RunNs += E2 - E1;
      if (IsNative) {
        L.addNativeRun(R, E2 - E1);
      } else {
        L.addEngineRun(R, nullptr, V->engine()->mmu().Misses);
        if (T.on())
          Replayed += replayTranslations(*V, Kinds[K], W.Corpus,
                                         R.Engine.Translations, Op, Exec, T,
                                         L);
      }
      if (K == 1)
        L.addUnit("qemu", R.Counters);
      if (K == NumKinds - 1) {
        L.addUnit("rule", R.Counters);
        Cycles = R.wall();
      }
      const uint64_t D0 = nowNs();
      V.reset();
      const uint64_t D1 = nowNs();
      T.add("vm.destroy", Op, Exec, D0, D1);
      T.close(Exec, D1);

      const fuzz::FinalState Got = fuzz::finalStateOf(R);
      if (IsNative)
        Ref = Got;
      if (!R.Ok)
        Out.fail("seed " + std::to_string(Op) + " " + Kinds[K] +
                 ": stopped with '" + R.stopName() + "'");
      else if (!IsNative && !fuzz::statesAgree(Ref, Got))
        Out.fail("seed " + std::to_string(Op) + " " + Kinds[K] +
                 ": final state differs from native" +
                 fuzz::diffStates(Ref, Got));
    }
    const uint64_t S1 = nowNs();
    T.close(Seed, S1);
    Out.Sessions.push_back(
        {J / SeedsPerWindow, S0, S1 - Replayed, NumKinds, Guest, RunNs});
    ReplayNs += Replayed;
    return Cycles;
  };

  // The first pass always completes: it fixes sim_cycles, which every
  // further full pass must reproduce. Untraced runs then keep cycling
  // over the programs until the deadline.
  Tracer Off(false, 0);
  uint64_t ReplayNs = 0, PassCycles = 0;
  const uint64_t Start = nowNs();
  for (uint64_t J = 0;
       J < ProgramSeeds ||
       (!Ctx.Trace && nowNs() - Start < Ctx.Seconds * 1e9);
       ++J) {
    if (!Ctx.Trace && J && J % SetupEvery == 0) {
      Programs Scratch;
      Out.SetupS.push_back(buildPrograms(Ctx, *Mix, Scratch, Off) / 1e9);
    }
    PassCycles += RunSeed(J, Off, Unused, ReplayNs);
    if (J % ProgramSeeds == ProgramSeeds - 1) {
      if (J < ProgramSeeds)
        Out.SimCycles = PassCycles;
      else if (PassCycles != Out.SimCycles)
        Out.fail("fuzz-diff: simulated cycles changed between passes");
      PassCycles = 0;
    }
  }
  if (!Ctx.Trace)
    return 0;

  // Traced: after the warm-up pass above, one untraced pass and one
  // spanned pass with translation replay, timed for the overhead. Replay
  // is measurement work, so it is left out of the comparison.
  const uint64_t UntracedStart = nowNs();
  for (uint64_t I = 0; I < ProgramSeeds; ++I)
    RunSeed(I, Off, Unused, ReplayNs);
  const uint64_t TracedStart = nowNs();
  Out.Layers.UntracedNs = static_cast<double>(TracedStart - UntracedStart);
  for (uint64_t I = 0; I < ProgramSeeds; ++I)
    RunSeed(I, Out.Trace, Out.Layers, ReplayNs);
  Out.Layers.TracedNs = static_cast<double>(nowNs() - TracedStart - ReplayNs);
  Tracer Probe(true, 0);
  probeBoardSetup(Probe, {}, 0, FlatRamBytes, 20);
  Out.Trace.absorb(Probe);
  return 0;
}

} // namespace perfbench
