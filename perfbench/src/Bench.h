//===- perfbench/src/Bench.h - Shared benchmark machinery -------*- C++ -*-===//
//
// Part of RuleDBT's benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads share: the run context, the in-memory span
/// recorder that times each layer from outside its public entry points,
/// the per-layer accumulators, and the result every workload fills in.
/// Nothing here reaches into src/ internals — the stack is driven only
/// through vm::Vm, sys::Platform, guestsw, dbt and fuzz entry points.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "host/HostMachine.h"
#include "vm/RunReport.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

uint64_t nowNs();

/// Deterministic 64-bit generator (splitmix64): every seeded input the
/// benchmark draws comes from here, so a seed means the same inputs on
/// every standard library.
class SeedRng {
public:
  explicit SeedRng(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return next() % N; }

private:
  uint64_t State;
};

struct RunContext {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  std::string Root; ///< checkout root (reads bench/baselines, perfbench/data)
};

/// One recorded span: a layer call timed from outside. Spans of one
/// cell, session or exec share Op; Parent indexes the enclosing span in
/// the same recorder (-1 for a root).
struct Span {
  const char *Name = "";
  uint64_t Start = 0;
  uint64_t End = 0;
  int64_t Parent = -1;
  uint64_t Op = 0;
  unsigned Tid = 0;
};

/// In-memory span recorder, one per thread. Disabled recorders store
/// nothing and hand out -1, so untraced runs pay only the clock reads
/// the end-to-end metrics need anyway (callers pass timestamps in).
class Tracer {
public:
  Tracer(bool On, unsigned Tid) : On_(On), Tid_(Tid) {}

  bool on() const { return On_; }
  int64_t open(const char *Name, uint64_t Op, int64_t Parent, uint64_t Start);
  void close(int64_t Handle, uint64_t End);
  /// open + close for a call already timed by the caller.
  int64_t add(const char *Name, uint64_t Op, int64_t Parent, uint64_t Start,
              uint64_t End);
  /// Moves \p Other's spans in, rebasing its parent indices.
  void absorb(Tracer &Other);
  const std::vector<Span> &spans() const { return Spans_; }

private:
  bool On_;
  unsigned Tid_;
  std::vector<Span> Spans_;
};

/// Per-layer time: count, total, self time (duration minus the time the
/// span's direct children cover) and the durations for percentiles.
struct LayerTime {
  uint64_t Count = 0;
  uint64_t TotalNs = 0;
  uint64_t SelfNs = 0;
  std::vector<uint64_t> Durations;
};
std::map<std::string, LayerTime> layerTimes(const std::vector<Span> &Spans);

/// Writes \p Spans as Chrome trace-event JSON — the same "X"-event
/// object format src/obs/ writes, so one viewer loads both. At most
/// \p MaxEvents are written; the rest are counted in perfbenchDroppedEvents.
bool writeChromeTrace(const std::string &Path, const std::string &Label,
                      const std::vector<Span> &Spans, size_t MaxEvents);

/// Nearest-rank percentile of sorted \p V (0 when empty).
double percentile(const std::vector<uint64_t> &Sorted, unsigned Pct);

/// Median of \p V (0 when empty).
double median(std::vector<double> V);

/// Exact-count comparison of two reports of the same session: counters,
/// final architectural state, console, engine and cache statistics and
/// rule-translator counters. Fork provenance (AdoptedTbs, CowBlockCopies,
/// Forked, CowPrivatePages) and host time are excluded. Empty when equal,
/// otherwise what differed.
std::string reportDiff(const rdbt::vm::RunReport &A,
                       const rdbt::vm::RunReport &B);

/// Simulated-counter difference \p After - \p Before (forks report
/// cumulative counters that include the master's run).
rdbt::host::ExecCounters counterDelta(const rdbt::host::ExecCounters &After,
                                      const rdbt::host::ExecCounters &Before);

/// Sliced-run accounting for one kind: run() slices that added no
/// translation (the dbt.exec_* metrics).
struct ExecSlices {
  uint64_t Ns = 0;
  uint64_t SimCycles = 0;
  uint64_t GuestInstrs = 0;
};

/// Everything the per-layer metrics are computed from. Every workload
/// feeds the same accumulators; a layer a workload never calls reads 0.
struct LayerStats {
  /// Counters of the workload's unit of work (the set whose
  /// rule:scheduling total is sim_cycles), keyed "qemu" / "rule".
  std::map<std::string, rdbt::host::ExecCounters> Unit;
  std::map<std::string, ExecSlices> Slices;
  /// Every engine run's counters (all kinds).
  rdbt::host::ExecCounters Engine;
  uint64_t CacheEntries = 0;
  uint64_t IrqsDelivered = 0;
  uint64_t Translations = 0;
  uint64_t TranslatedGuestInstrs = 0;
  /// TLB refills (sys::Mmu misses). The generated inline probe's hits
  /// never reach the Mmu counters, so hits are derived from the guest
  /// memory instructions the engine retired.
  uint64_t MmuMisses = 0;
  uint64_t RuleCovered = 0, RuleFallback = 0;
  uint64_t MatchAttempts = 0, MatchHits = 0;
  // Reference interpreter (native kind).
  uint64_t NativeNs = 0, NativeGuestInstrs = 0;
  uint64_t DecodeHits = 0, DecodeMisses = 0;
  // Forked sessions.
  uint64_t ForkedSessions = 0;
  uint64_t CowPages = 0, CowBlockCopies = 0, NewTranslations = 0;
  // Translation replay (fetchGuestBlock / Translator::translate).
  uint64_t FetchNs = 0, FetchGuestInstrs = 0;
  uint64_t CoreXlateNs = 0, CoreXlateGuestInstrs = 0;
  uint64_t IrXlateNs = 0, IrXlateGuestInstrs = 0;
  /// qemu-wall / rule-wall per workload (Fig. 14 ratio).
  std::vector<double> SpeedupVsQemu;
  /// Traced vs untraced time for the same work.
  double TracedNs = 0, UntracedNs = 0;

  /// Adds one finished engine-kind run's report (\p Base: counters the
  /// session inherited, zero for fresh sessions) and the TLB refills it
  /// made.
  void addEngineRun(const rdbt::vm::RunReport &R,
                    const rdbt::vm::RunReport *Base, uint64_t MmuMisses);
  void addNativeRun(const rdbt::vm::RunReport &R, uint64_t RunNs);
  /// Adds one run of the unit of work under \p Kind ("qemu" / "rule").
  void addUnit(const std::string &Kind, const rdbt::host::ExecCounters &C);
};

/// One timed session (a cell, a forked session, or one seed's
/// differential round) of the untraced run. Window groups consecutive
/// sessions; the end-to-end metrics are medians over windows, so a
/// burst of machine noise moves one window, not the run's figures.
struct SessionRecord {
  uint64_t Window = 0;
  uint64_t Start = 0;
  uint64_t End = 0;
  uint64_t Execs = 0;       ///< oracle-checked Vm runs in the session
  uint64_t GuestInstrs = 0; ///< retired during its timed Vm::run calls
  uint64_t RunNs = 0;       ///< wall time of those calls
};

/// What a workload run produced: op accounting, the timed sessions, the
/// set-up samples and, for traced runs, the spans and layer counters.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t SimCycles = 0; ///< rule:scheduling, one unit of work
  std::vector<SessionRecord> Sessions;
  std::vector<double> SetupS; ///< one sample per set-up repetition
  std::vector<std::string> Errors; ///< first few failure descriptions
  LayerStats Layers;
  Tracer Trace{false, 0};

  void fail(const std::string &Why);
};

/// Window medians of the end-to-end rates and latencies. Windows smaller
/// than the largest one (a run's cut-off tail) are left out.
struct EndToEnd {
  double GuestMips = 0;
  double SessionsPerS = 0;
  double ExecsPerS = 0;
  double P50Ms = 0;
  double TailMs = 0;
  unsigned TailPct = 0;    ///< the percentile TailMs reports
  size_t WindowSize = 0;   ///< sessions per window
  size_t Windows = 0;
};
EndToEnd summarize(const std::vector<SessionRecord> &Sessions);

int runSpecExec(const RunContext &Ctx, Outcome &Out);
int runServeFork(const RunContext &Ctx, Outcome &Out);
int runFuzzDiff(const RunContext &Ctx, Outcome &Out);

/// Rewrites perfbench/data/spec_reference.txt from the native reference
/// interpreter.
int regenerateSpecReference(const std::string &Root);

/// Times sys::Platform construction (and, for kernel workloads,
/// guestsw::setupGuest) \p Reps times per workload into \p T.
void probeBoardSetup(Tracer &T, const std::vector<std::string> &Workloads,
                     uint32_t Scale, uint32_t FlatRamBytes, unsigned Reps);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
