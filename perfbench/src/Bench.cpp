//===- perfbench/src/Bench.cpp - Shared benchmark machinery ---------------===//
//
// Part of RuleDBT's benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "guestsw/Workloads.h"
#include "sys/Platform.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>

using namespace rdbt;

namespace perfbench {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t SeedRng::next() {
  uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

int64_t Tracer::open(const char *Name, uint64_t Op, int64_t Parent,
                     uint64_t Start) {
  if (!On_)
    return -1;
  Span S;
  S.Name = Name;
  S.Start = Start;
  S.Parent = Parent;
  S.Op = Op;
  S.Tid = Tid_;
  Spans_.push_back(S);
  return static_cast<int64_t>(Spans_.size()) - 1;
}

void Tracer::close(int64_t Handle, uint64_t End) {
  if (Handle >= 0)
    Spans_[static_cast<size_t>(Handle)].End = End;
}

int64_t Tracer::add(const char *Name, uint64_t Op, int64_t Parent,
                    uint64_t Start, uint64_t End) {
  const int64_t H = open(Name, Op, Parent, Start);
  close(H, End);
  return H;
}

void Tracer::absorb(Tracer &Other) {
  const int64_t Base = static_cast<int64_t>(Spans_.size());
  for (Span S : Other.Spans_) {
    if (S.Parent >= 0)
      S.Parent += Base;
    Spans_.push_back(S);
  }
  Other.Spans_.clear();
}

std::map<std::string, LayerTime> layerTimes(const std::vector<Span> &Spans) {
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[static_cast<size_t>(S.Parent)] += S.End - S.Start;
  std::map<std::string, LayerTime> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const uint64_t Dur = Spans[I].End - Spans[I].Start;
    LayerTime &L = Out[Spans[I].Name];
    ++L.Count;
    L.TotalNs += Dur;
    L.SelfNs += Dur > ChildNs[I] ? Dur - ChildNs[I] : 0;
    L.Durations.push_back(Dur);
  }
  for (auto &KV : Out)
    std::sort(KV.second.Durations.begin(), KV.second.Durations.end());
  return Out;
}

bool writeChromeTrace(const std::string &Path, const std::string &Label,
                      const std::vector<Span> &Spans, size_t MaxEvents) {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  const uint64_t T0 = Spans.empty() ? 0 : Spans.front().Start;
  const auto Us = [&OS](uint64_t Ns) {
    OS << Ns / 1000 << "." << (Ns % 1000) / 100 << (Ns % 100) / 10 << Ns % 10;
  };
  OS << "{\"traceEvents\": [\n  {\"name\": \"process_name\", \"ph\": \"M\", "
        "\"pid\": 1, \"tid\": 0, \"args\": {\"name\": \""
     << Label << "\"}}";
  const size_t N = std::min(Spans.size(), MaxEvents);
  for (size_t I = 0; I < N; ++I) {
    const Span &S = Spans[I];
    OS << ",\n  {\"name\": \"" << S.Name
       << "\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
       << S.Tid << ", \"ts\": ";
    Us(S.Start >= T0 ? S.Start - T0 : 0);
    OS << ", \"dur\": ";
    Us(S.End - S.Start);
    OS << ", \"args\": {\"op\": " << S.Op << ", \"parent\": " << S.Parent
       << "}}";
  }
  OS << "\n], \"displayTimeUnit\": \"ns\", \"perfbenchDroppedEvents\": "
     << Spans.size() - N << "}\n";
  return static_cast<bool>(OS);
}

double percentile(const std::vector<uint64_t> &Sorted, unsigned Pct) {
  if (Sorted.empty())
    return 0;
  size_t Rank = (Sorted.size() * Pct + 99) / 100; // ceil, 1-based
  Rank = std::max<size_t>(Rank, 1);
  return static_cast<double>(Sorted[Rank - 1]);
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// The highest percentile <= 99 of \p Samples values that still has at
/// least ten samples beyond it (50 when none has).
static unsigned tailPercentile(size_t Samples) {
  for (unsigned Pct = 99; Pct > 50; --Pct)
    if (Samples - (Samples * Pct + 99) / 100 >= 10)
      return Pct;
  return 50;
}

EndToEnd summarize(const std::vector<SessionRecord> &Sessions) {
  std::map<uint64_t, std::vector<const SessionRecord *>> ByWindow;
  for (const SessionRecord &S : Sessions)
    ByWindow[S.Window].push_back(&S);
  EndToEnd E;
  for (const auto &KV : ByWindow)
    E.WindowSize = std::max(E.WindowSize, KV.second.size());
  E.TailPct = tailPercentile(E.WindowSize);
  std::vector<double> Mips, Rate, ExecRate, P50, Tail;
  for (const auto &KV : ByWindow) {
    if (KV.second.size() < E.WindowSize)
      continue;
    uint64_t First = ~0ull, Last = 0, Execs = 0, Guest = 0, RunNs = 0;
    std::vector<uint64_t> Lat;
    for (const SessionRecord *S : KV.second) {
      First = std::min(First, S->Start);
      Last = std::max(Last, S->End);
      Execs += S->Execs;
      Guest += S->GuestInstrs;
      RunNs += S->RunNs;
      Lat.push_back(S->End - S->Start);
    }
    std::sort(Lat.begin(), Lat.end());
    const double Span = static_cast<double>(Last - First);
    Mips.push_back(RunNs ? Guest * 1e3 / RunNs : 0);
    Rate.push_back(Span > 0 ? Lat.size() * 1e9 / Span : 0);
    ExecRate.push_back(Span > 0 ? Execs * 1e9 / Span : 0);
    P50.push_back(percentile(Lat, 50) / 1e6);
    Tail.push_back(percentile(Lat, E.TailPct) / 1e6);
    ++E.Windows;
  }
  E.GuestMips = median(Mips);
  E.SessionsPerS = median(Rate);
  E.ExecsPerS = median(ExecRate);
  E.P50Ms = median(P50);
  E.TailMs = median(Tail);
  return E;
}

std::string reportDiff(const vm::RunReport &A, const vm::RunReport &B) {
  if (A.Error != B.Error)
    return "error";
  if (A.Ok != B.Ok || A.Stop != B.Stop)
    return "stop reason";
  if (std::memcmp(&A.Counters, &B.Counters, sizeof(A.Counters)) != 0)
    return "exec counters";
  for (int I = 0; I < 16; ++I)
    if (A.Final.Regs[I] != B.Final.Regs[I])
      return "final registers";
  if (A.Final.Nzcv != B.Final.Nzcv ||
      A.Final.ShutdownRequested != B.Final.ShutdownRequested)
    return "final flags";
  if (A.Console != B.Console)
    return "console";
  if (std::memcmp(&A.Engine, &B.Engine, sizeof(A.Engine)) != 0)
    return "engine stats";
  dbt::CacheStats CA = A.Cache, CB = B.Cache;
  CA.AdoptedTbs = CB.AdoptedTbs = 0;
  CA.CowBlockCopies = CB.CowBlockCopies = 0;
  if (std::memcmp(&CA, &CB, sizeof(CA)) != 0)
    return "cache stats";
  if (A.RuleCoveredInstrs != B.RuleCoveredInstrs ||
      A.FallbackInstrs != B.FallbackInstrs ||
      A.RuleMatchAttempts != B.RuleMatchAttempts ||
      A.RuleMatchHits != B.RuleMatchHits)
    return "rule-translator counters";
  return "";
}

host::ExecCounters counterDelta(const host::ExecCounters &After,
                                const host::ExecCounters &Before) {
  host::ExecCounters D = After;
  D.Wall -= Before.Wall;
  for (unsigned C = 0; C < host::NumCostClasses; ++C)
    D.ByClass[C] -= Before.ByClass[C];
  D.SyncOps -= Before.SyncOps;
  D.GuestInstrs -= Before.GuestInstrs;
  D.GuestMemInstrs -= Before.GuestMemInstrs;
  D.GuestSysInstrs -= Before.GuestSysInstrs;
  D.IrqChecks -= Before.IrqChecks;
  D.TbEntries -= Before.TbEntries;
  D.ChainFollows -= Before.ChainFollows;
  D.HelperCalls -= Before.HelperCalls;
  return D;
}

static void accumulate(host::ExecCounters &Sum, const host::ExecCounters &C) {
  Sum.Wall += C.Wall;
  for (unsigned K = 0; K < host::NumCostClasses; ++K)
    Sum.ByClass[K] += C.ByClass[K];
  Sum.SyncOps += C.SyncOps;
  Sum.GuestInstrs += C.GuestInstrs;
  Sum.GuestMemInstrs += C.GuestMemInstrs;
  Sum.GuestSysInstrs += C.GuestSysInstrs;
  Sum.IrqChecks += C.IrqChecks;
  Sum.TbEntries += C.TbEntries;
  Sum.ChainFollows += C.ChainFollows;
  Sum.HelperCalls += C.HelperCalls;
}

void LayerStats::addEngineRun(const vm::RunReport &R,
                              const vm::RunReport *Base,
                              uint64_t Misses) {
  const vm::RunReport Zero;
  const vm::RunReport &B = Base ? *Base : Zero;
  accumulate(Engine, counterDelta(R.Counters, B.Counters));
  CacheEntries += R.Engine.CacheEntries - B.Engine.CacheEntries;
  IrqsDelivered += R.Engine.IrqsDelivered - B.Engine.IrqsDelivered;
  Translations += R.Engine.Translations - B.Engine.Translations;
  TranslatedGuestInstrs +=
      R.Engine.TranslatedGuestInstrs - B.Engine.TranslatedGuestInstrs;
  MmuMisses += Misses;
  RuleCovered += R.RuleCoveredInstrs - B.RuleCoveredInstrs;
  RuleFallback += R.FallbackInstrs - B.FallbackInstrs;
  MatchAttempts += R.RuleMatchAttempts - B.RuleMatchAttempts;
  MatchHits += R.RuleMatchHits - B.RuleMatchHits;
  if (R.Forked) {
    ++ForkedSessions;
    CowPages += R.CowPrivatePages;
    CowBlockCopies += R.Cache.CowBlockCopies;
    NewTranslations += R.Engine.Translations - B.Engine.Translations;
  }
}

void LayerStats::addNativeRun(const vm::RunReport &R, uint64_t RunNs) {
  NativeNs += RunNs;
  NativeGuestInstrs += R.guestInstrs();
  DecodeHits += R.InterpDecodeHits;
  DecodeMisses += R.InterpDecodeMisses;
}

void LayerStats::addUnit(const std::string &Kind,
                         const host::ExecCounters &C) {
  accumulate(Unit[Kind], C);
}

void Outcome::fail(const std::string &Why) {
  ++Failed;
  if (Errors.size() < 8)
    Errors.push_back(Why);
}

void probeBoardSetup(Tracer &T, const std::vector<std::string> &Workloads,
                     uint32_t Scale, uint32_t FlatRamBytes, unsigned Reps) {
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    if (Workloads.empty()) {
      const uint64_t T0 = nowNs();
      sys::Platform Board(FlatRamBytes);
      T.add("sys.platform_new", 0, -1, T0, nowNs());
      continue;
    }
    for (const std::string &W : Workloads) {
      const uint64_t T0 = nowNs();
      sys::Platform Board(guestsw::requiredWorkloadRam(W));
      const uint64_t T1 = nowNs();
      guestsw::setupGuest(Board, W, Scale);
      const uint64_t T2 = nowNs();
      T.add("sys.platform_new", 0, -1, T0, T1);
      T.add("guestsw.image", 0, -1, T1, T2);
    }
  }
}

} // namespace perfbench
