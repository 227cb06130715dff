//===- bench/BenchCommon.h - Shared benchmark harness -----------*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared benchmark harness: the measured counters of one run
/// (RunStats, filled from a vm::RunReport), their JSON emitters, and the
/// paper's Table I and Figs. 14-19 as a view over the scenario matrix's
/// cells (PaperFigure, printed by `rdbt_scenarios --jobs N`). Absolute
/// numbers come from the simulated host (host instructions = wall
/// cycles); see EXPERIMENTS.md for the paper-vs-measured comparison.
///
/// RDBT_BENCH_SCALE (env) scales workload iteration counts (default 4).
/// RDBT_BENCH_JSON (env), when set, makes each binary also write its raw
/// counters and derived series to BENCH_<name>.json (the variable's
/// value is the output directory; "1" or empty means the current
/// directory).
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_BENCH_BENCHCOMMON_H
#define RDBT_BENCH_BENCHCOMMON_H

#include "guestsw/Workloads.h"
#include "vm/Vm.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace rdbt {
namespace bench {

struct RunStats {
  uint64_t Wall = 0;        ///< emulation cost in host cycles
  uint64_t GuestInstrs = 0; ///< guest instructions retired
  uint64_t MemInstrs = 0;
  uint64_t SysInstrs = 0;
  uint64_t IrqChecks = 0;
  uint64_t SyncInstrs = 0; ///< CostClass::Sync host instructions
  uint64_t SyncOps = 0;
  uint64_t HostInstrs = 0; ///< all executed host instructions + helper cost
  // Translation-cache behavior (zero for the native executor).
  uint64_t CacheFlushes = 0;
  uint64_t TbsInvalidated = 0;
  uint64_t TbsRetained = 0;
  uint64_t LiveTbs = 0;
  uint64_t Retranslations = 0;
  uint64_t RetranslatedGuestInstrs = 0;
  // Rule-translator coverage and pattern matcher statistics (zero for
  // non-rule kinds).
  uint64_t RuleCoveredInstrs = 0;
  uint64_t FallbackInstrs = 0;
  uint64_t RuleMatchAttempts = 0;
  uint64_t RuleMatchHits = 0;
  // Translation-gap profile (zero unless a GapMiner was attached).
  uint64_t GapSeqs = 0;
  uint64_t GapTranslations = 0;
  uint64_t GapExecs = 0;
  // Translation work actually performed, and persistent-cache provenance
  // (dbt/CodeCacheIo.h). A warm boot against a complete cache file shows
  // Translations == 0 with LoadedTbs covering every block; a run without
  // a cache dir — or a cold run against an absent file — shows all three
  // provenance counters at zero.
  uint64_t Translations = 0;
  uint64_t TranslatedGuestInstrs = 0;
  uint64_t CacheFileHits = 0;
  uint64_t CacheFileMisses = 0;
  uint64_t LoadedTbs = 0;
  // Interpreter decoded-instruction cache behavior (DESIGN.md §14).
  // Deterministic for a deterministic run, so the perf gate holds them
  // exact like every other counter.
  uint64_t InterpDecodeHits = 0;
  uint64_t InterpDecodeMisses = 0;
  // Host wall-clock timing, split at the serving boundary (see
  // vm::RunReport::Timing). Nondeterministic, so excluded from the
  // perf-gated matrix JSON; writeTimingFields emits it only when asked
  // (rdbt_serve's BENCH_serve.json does).
  vm::RunReport::Timing Time;
  // Observability results (vm::RunReport::ObsStats), present only when
  // the run was traced. Emitted as the obs_* field family — waived by
  // prefix in the perf gate, so they never trip the exact-count diff.
  vm::RunReport::ObsStats Obs;
  bool Ok = false;
};

/// Parses a workload scale the way VmConfig::fromSpec parses
/// "@<scale>": decimal digits only, no overflow past uint32, non-zero.
inline bool parseScale(const char *Text, uint32_t &Out) {
  uint32_t Scale = 0;
  for (const char *P = Text; *P; ++P) {
    const uint32_t Digit = static_cast<uint32_t>(*P - '0');
    if (*P < '0' || *P > '9' || Scale > (0xFFFFFFFFu - Digit) / 10)
      return false;
    Scale = Scale * 10 + Digit;
  }
  if (Scale == 0)
    return false;
  Out = Scale;
  return true;
}

/// The workload scale from RDBT_BENCH_SCALE (4 when unset). A value
/// parseScale rejects ends the bench with exit status 2.
inline uint32_t benchScale() {
  const char *S = std::getenv("RDBT_BENCH_SCALE");
  if (!S)
    return 4;
  uint32_t Scale = 0;
  if (!parseScale(S, Scale)) {
    std::fprintf(stderr,
                 "RDBT_BENCH_SCALE: bad scale '%s' (want a positive "
                 "integer)\n", S);
    std::exit(2);
  }
  return Scale;
}

inline RunStats fromReport(const vm::RunReport &R, bool EngineRun = true) {
  RunStats S;
  S.Ok = R.Ok;
  S.Wall = R.wall();
  S.GuestInstrs = R.guestInstrs();
  S.MemInstrs = R.memInstrs();
  S.SysInstrs = R.sysInstrs();
  S.IrqChecks = R.irqChecks();
  S.SyncInstrs = R.syncInstrs();
  S.SyncOps = R.syncOps();
  // The native baseline reports no host-side cost (1 guest instruction =
  // 1 native cycle, already in Wall).
  S.HostInstrs = EngineRun ? R.wall() : 0;
  S.CacheFlushes = R.Cache.Flushes;
  S.TbsInvalidated = R.Cache.TbsInvalidated;
  S.TbsRetained = R.Cache.TbsRetained;
  S.LiveTbs = R.Cache.LiveTbs;
  S.Retranslations = R.Cache.Retranslations;
  S.RetranslatedGuestInstrs = R.Cache.RetranslatedGuestInstrs;
  S.RuleCoveredInstrs = R.RuleCoveredInstrs;
  S.FallbackInstrs = R.FallbackInstrs;
  S.RuleMatchAttempts = R.RuleMatchAttempts;
  S.RuleMatchHits = R.RuleMatchHits;
  S.GapSeqs = R.Profile.GapSeqs;
  S.GapTranslations = R.Profile.GapTranslations;
  S.GapExecs = R.Profile.GapExecs;
  S.Translations = R.Engine.Translations;
  S.TranslatedGuestInstrs = R.Engine.TranslatedGuestInstrs;
  S.CacheFileHits = R.Cache.CacheFileHits;
  S.CacheFileMisses = R.Cache.CacheFileMisses;
  S.LoadedTbs = R.Cache.LoadedTbs;
  S.InterpDecodeHits = R.InterpDecodeHits;
  S.InterpDecodeMisses = R.InterpDecodeMisses;
  S.Time = R.Time;
  S.Obs = R.Obs;
  return S;
}

//===----------------------------------------------------------------------===//
// Optional BENCH_*.json emission (see RDBT_BENCH_JSON above). Binaries
// push the raw counters of their runs into JsonRecorder::Runs and add
// their derived series with recordMetric(). writeBenchJson() at the end of
// main() dumps both, so downstream tooling can recompute any series from
// the raw runs.
//===----------------------------------------------------------------------===//

struct JsonRecorder {
  struct Run {
    std::string Workload;
    std::string Config;
    RunStats S;
  };
  struct Metric {
    std::string Series;
    std::string Point;
    double Value;
  };
  std::vector<Run> Runs;
  std::vector<Metric> Metrics;

  static JsonRecorder &get() {
    static JsonRecorder R;
    return R;
  }
};

/// Records one point of a derived series (e.g. series "speedup_fullopt",
/// point "perlbench", value 1.36) for BENCH_*.json emission.
inline void recordMetric(const std::string &Series, const std::string &Point,
                         double Value) {
  JsonRecorder::get().Metrics.push_back({Series, Point, Value});
}

inline std::string jsonEscape(const std::string &In) {
  std::string Out;
  for (const char C : In) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

/// The one emitter of the wall-clock timing split: stable boot_ns/run_ns
/// keys wherever timing appears in a JSON document. Callers decide
/// *whether* timing belongs in their document (perf-gated documents must
/// not include it); this decides how it is spelled.
template <typename Stream>
inline void writeTimingFields(Stream &OS, const vm::RunReport::Timing &T) {
  OS << "\"boot_ns\": " << T.BootNs << ", \"run_ns\": " << T.RunNs;
}

/// Emits one obs histogram as a nested JSON object (counts only —
/// deterministic fields first, min/max/mean depend on the recorded
/// values, which for wall-time histograms are nondeterministic; callers
/// put these objects only in non-gated documents).
template <typename Stream>
inline void writeHistogramJson(Stream &OS, const obs::Histogram &H) {
  OS << "{\"count\": " << H.Count << ", \"sum\": " << H.Sum
     << ", \"min\": " << (H.Count ? H.Min : 0) << ", \"max\": " << H.Max
     << ", \"buckets\": [";
  // Trailing zero buckets are elided so small histograms stay readable;
  // bucket k >= 1 spans [2^(k-1), 2^k), bucket 0 is exact zeros.
  unsigned Last = obs::Histogram::NumBuckets;
  while (Last > 1 && H.Buckets[Last - 1] == 0)
    --Last;
  for (unsigned I = 0; I < Last; ++I)
    OS << (I ? ", " : "") << H.Buckets[I];
  OS << "]}";
}

/// Emits the canonical RunStats counter fields (the key set every
/// BENCH_*.json run record and BENCH_matrix.json cell shares) — integer
/// counters only, in a fixed order, so two emissions of equal stats are
/// byte-identical. A traced run additionally carries the obs_* field
/// family (flat scalars, so the perf gate's parser sees them and its
/// --allow-prefix obs_ waiver can skip them); an untraced run emits no
/// obs_* field at all, keeping its document byte-identical to pre-obs
/// output. \p WithTiming additionally appends the wall-clock
/// boot_ns/run_ns split; it defaults off because timing is
/// nondeterministic and must never enter a perf-gated or
/// byte-compared document (BENCH_matrix.json stays timing-free).
template <typename Stream>
inline void writeRunStatsFields(Stream &OS, const RunStats &S,
                                bool WithTiming = false) {
  OS << "\"ok\": " << (S.Ok ? "true" : "false") << ", \"wall\": " << S.Wall
     << ", \"guest_instrs\": " << S.GuestInstrs
     << ", \"mem_instrs\": " << S.MemInstrs
     << ", \"sys_instrs\": " << S.SysInstrs
     << ", \"irq_checks\": " << S.IrqChecks
     << ", \"sync_instrs\": " << S.SyncInstrs
     << ", \"sync_ops\": " << S.SyncOps
     << ", \"host_instrs\": " << S.HostInstrs
     << ", \"cache_flushes\": " << S.CacheFlushes
     << ", \"tbs_invalidated\": " << S.TbsInvalidated
     << ", \"tbs_retained\": " << S.TbsRetained
     << ", \"live_tbs\": " << S.LiveTbs
     << ", \"retranslations\": " << S.Retranslations
     << ", \"retranslated_guest_instrs\": " << S.RetranslatedGuestInstrs
     << ", \"rule_covered_instrs\": " << S.RuleCoveredInstrs
     << ", \"fallback_instrs\": " << S.FallbackInstrs
     << ", \"rule_match_attempts\": " << S.RuleMatchAttempts
     << ", \"rule_match_hits\": " << S.RuleMatchHits
     << ", \"gap_seqs\": " << S.GapSeqs
     << ", \"gap_translations\": " << S.GapTranslations
     << ", \"gap_execs\": " << S.GapExecs
     << ", \"translations\": " << S.Translations
     << ", \"translated_guest_instrs\": " << S.TranslatedGuestInstrs
     << ", \"cache_file_hits\": " << S.CacheFileHits
     << ", \"cache_file_misses\": " << S.CacheFileMisses
     << ", \"loaded_tbs\": " << S.LoadedTbs
     << ", \"interp_decode_hits\": " << S.InterpDecodeHits
     << ", \"interp_decode_misses\": " << S.InterpDecodeMisses;
  if (S.Obs.Enabled) {
    OS << ", \"obs_events\": " << S.Obs.Events
       << ", \"obs_dropped_events\": " << S.Obs.Dropped;
    for (const auto &C : S.Obs.Metrics.counters())
      OS << ", \"obs_" << jsonEscape(C.first) << "\": " << C.second;
    for (const auto &H : S.Obs.Metrics.histograms()) {
      const std::string N = jsonEscape(H.first);
      OS << ", \"obs_" << N << "_count\": " << H.second.Count << ", \"obs_"
         << N << "_sum\": " << H.second.Sum << ", \"obs_" << N
         << "_max\": " << H.second.Max;
    }
  }
  if (WithTiming) {
    OS << ", ";
    writeTimingFields(OS, S.Time);
  }
}

/// One cell of a scenario matrix: a stable "<kind>/<workload>@<scale>"
/// key and the measured counters.
struct MatrixCell {
  std::string Key;
  RunStats S;
};

/// Serializes a scenario matrix to the BENCH_matrix.json document the
/// perf-regression gate (tools/rdbt_perfgate) diffs: cells in submission
/// order under "matrix", integer counters only. Byte-identical for equal
/// inputs, so a parallel matrix run reproduces the serial document
/// exactly (vm/BatchRunner.h).
inline std::string formatMatrixJson(const std::vector<MatrixCell> &Cells,
                                    uint32_t Scale) {
  std::ostringstream OS;
  OS << "{\n  \"bench\": \"matrix\",\n  \"scale\": " << Scale
     << ",\n  \"matrix\": {";
  for (size_t I = 0; I < Cells.size(); ++I) {
    OS << (I ? ",\n" : "\n") << "    \"" << jsonEscape(Cells[I].Key)
       << "\": {";
    writeRunStatsFields(OS, Cells[I].S);
    OS << "}";
  }
  OS << "\n  }\n}\n";
  return OS.str();
}

/// Writes BENCH_<BenchName>.json when RDBT_BENCH_JSON is set; no-op
/// otherwise. Call once at the end of each bench binary's main().
/// \p Scale is the workload scale the recorded runs used; a bench that
/// runs no scaled workload passes 0 and the document has no "scale".
inline void writeBenchJson(const char *BenchName, uint32_t Scale) {
  const char *Env = std::getenv("RDBT_BENCH_JSON");
  if (!Env)
    return;
  const std::string Dir =
      (*Env == '\0' || std::string(Env) == "1") ? "." : Env;
  const std::string Path = Dir + "/BENCH_" + BenchName + ".json";
  std::ofstream OS(Path);
  if (!OS) {
    std::fprintf(stderr, "RDBT_BENCH_JSON: cannot write %s\n", Path.c_str());
    return;
  }
  const JsonRecorder &R = JsonRecorder::get();
  OS << "{\n  \"bench\": \"" << jsonEscape(BenchName) << "\",\n";
  if (Scale)
    OS << "  \"scale\": " << Scale << ",\n";
  OS << "  \"runs\": [";
  for (size_t I = 0; I < R.Runs.size(); ++I) {
    const JsonRecorder::Run &Run = R.Runs[I];
    OS << (I ? ",\n" : "\n") << "    {\"workload\": \""
       << jsonEscape(Run.Workload) << "\", \"config\": \""
       << jsonEscape(Run.Config) << "\", ";
    writeRunStatsFields(OS, Run.S);
    OS << "}";
  }
  OS << "\n  ],\n  \"metrics\": [";
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    const JsonRecorder::Metric &M = R.Metrics[I];
    OS << (I ? ",\n" : "\n") << "    {\"series\": \"" << jsonEscape(M.Series)
       << "\", \"point\": \"" << jsonEscape(M.Point)
       << "\", \"value\": " << M.Value << "}";
  }
  OS << "\n  ]\n}\n";
  std::printf("\nwrote %s\n", Path.c_str());
}

inline double geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double LogSum = 0;
  for (const double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

//===----------------------------------------------------------------------===//
// The paper's Table I and Figs. 14-19 as a view over the scenario matrix.
// Every quantity they plot is a ratio of exact counters the matrix already
// holds, so each figure is data: a workload set, the registry kinds a row
// reads, and one ratio per column. rdbt_scenarios --jobs N prints them.
//===----------------------------------------------------------------------===//

/// The stable matrix cell key "<kind>/<workload>@<scale>".
inline std::string matrixKey(const std::string &Kind,
                             const std::string &Workload, uint32_t Scale) {
  return Kind + "/" + Workload + "@" + std::to_string(Scale);
}

/// printf into a std::string (one table line at most).
inline std::string sformat(const char *Fmt, ...) {
  char Buf[256];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  return Buf;
}

/// N / D, or 0 for a cell that counted no denominator.
inline double ratio(double N, double D) { return D != 0 ? N / D : 0; }

struct PaperFigure {
  /// A row's cells, one per entry of Kinds, in that order.
  using RowCells = std::vector<const RunStats *>;
  using Counter = uint64_t RunStats::*;
  /// One column: Factor * Cells[NumCell].*Num / Cells[DenCell].*Den,
  /// printed in Width characters ending in Suffix ("x", "%" or "").
  struct Column {
    const char *Header;
    int Width;
    const char *Suffix;
    unsigned NumCell;
    Counter Num;
    unsigned DenCell;
    Counter Den;
    double Factor = 1;
  };
  const char *Id;    ///< "table1", "fig14" ... "fig19"
  const char *Title; ///< printf format taking the scale (%u)
  bool RealWorld;    ///< rows: IsRealWorld workloads, else IsSpecProxy
  std::vector<const char *> Kinds;
  std::vector<Column> Columns;
  const char *Paper; ///< the paper's published values
  /// Optional annotations after each workload row (under NoteHeader) and
  /// after the GEOMEAN row.
  const char *NoteHeader = nullptr;
  std::string (*RowNote)(const RowCells &C) = nullptr;
  std::string (*GeomeanNote)(const std::vector<double> &G) = nullptr;
};

/// Table I and Figs. 14-19, in the paper's order.
inline const std::vector<PaperFigure> &paperFigures() {
  using S = RunStats;
  static const std::vector<PaperFigure> Figures = {
      {"table1",
       "Table I: distribution of guest instructions requiring CPU state "
       "coordination\n(measured under the QEMU-like baseline, scale %u)",
       false, {"qemu"},
       {{"System-level", 16, "%", 0, &S::SysInstrs, 0, &S::GuestInstrs, 100},
        {"Memory", 14, "%", 0, &S::MemInstrs, 0, &S::GuestInstrs, 100},
        {"Interrupt check", 16, "%", 0, &S::IrqChecks, 0, &S::GuestInstrs,
         100}},
       "paper (Table I geomean): system 0.25%, memory 33.46%, interrupt "
       "check 15.12%"},
      {"fig14", "Fig. 14: speedup over the QEMU baseline (scale %u)", false,
       {"qemu", "rule:base", "rule:scheduling"},
       {{"qemu", 10, "x", 0, &S::Wall, 0, &S::Wall},
        {"rule-base", 10, "x", 0, &S::Wall, 1, &S::Wall},
        {"full-opt", 10, "x", 0, &S::Wall, 2, &S::Wall}},
       "paper: rule-base 0.95x (5% slowdown), full-opt 1.36x;\n"
       "       48.83% of instructions need coordination, reduced to 24.61%",
       "(coordination-instr share base->full)",
       // The share of rule-base guest instructions needing coordination,
       // and that share scaled by the sync ops full-opt keeps (§IV-B).
       [](const PaperFigure::RowCells &C) {
         const RunStats &B = *C[1], &F = *C[2];
         const double Share = ratio(
             100.0 * (B.SysInstrs + B.MemInstrs + B.IrqChecks), B.GuestInstrs);
         return sformat("  (%.1f%% -> %.1f%% sync ops)", Share,
                        Share * ratio(F.SyncOps, B.SyncOps));
       }},
      {"fig15", "Fig. 15: host instructions per guest instruction (scale %u)",
       false, {"qemu", "rule:scheduling"},
       {{"qemu", 12, "", 0, &S::Wall, 0, &S::GuestInstrs},
        {"full-opt", 12, "", 1, &S::Wall, 1, &S::GuestInstrs}},
       "paper: qemu 17.39, full-opt 15.40 (-11.44%)", nullptr, nullptr,
       [](const std::vector<double> &G) {
         return sformat("   (-%.1f%%)", 100.0 * (1.0 - G[1] / G[0]));
       }},
      {"fig16", "Fig. 16: cumulative speedup over QEMU (scale %u)", false,
       {"qemu", "rule:base", "rule:reduction", "rule:elimination",
        "rule:scheduling"},
       {{"base", 10, "x", 0, &S::Wall, 1, &S::Wall},
        {"+reduction", 12, "x", 0, &S::Wall, 2, &S::Wall},
        {"+elimination", 13, "x", 0, &S::Wall, 3, &S::Wall},
        {"+scheduling", 12, "x", 0, &S::Wall, 4, &S::Wall}},
       "paper: base 0.95x, +reduction 1.22x, +elimination 1.30x, "
       "+scheduling 1.36x"},
      {"fig17",
       "Fig. 17: sync host-instructions per guest instruction (scale %u)",
       false,
       {"rule:base", "rule:reduction", "rule:elimination", "rule:scheduling"},
       {{"base", 10, "", 0, &S::SyncInstrs, 0, &S::GuestInstrs},
        {"+reduction", 12, "", 1, &S::SyncInstrs, 1, &S::GuestInstrs},
        {"+elimination", 13, "", 2, &S::SyncInstrs, 2, &S::GuestInstrs},
        {"+scheduling", 12, "", 3, &S::SyncInstrs, 3, &S::GuestInstrs}},
       "paper: base 8.36, +reduction 1.79, +elimination 1.33, "
       "+scheduling 0.89"},
      {"fig18",
       "Fig. 18: slowdown vs native execution (lower is better, scale %u)",
       false, {"native", "qemu", "rule:scheduling"},
       {{"qemu", 12, "x", 1, &S::Wall, 0, &S::Wall},
        {"full-opt", 12, "x", 2, &S::Wall, 0, &S::Wall}},
       "paper: qemu 18.73x, full-opt 13.83x"},
      {"fig19", "Fig. 19: real-world application speedup over QEMU (scale %u)",
       true, {"qemu", "rule:scheduling"},
       {{"qemu", 10, "x", 0, &S::Wall, 0, &S::Wall},
        {"full-opt", 10, "x", 0, &S::Wall, 1, &S::Wall}},
       "paper: memcached 1.13x, sqlite ~1.2x, fileio 1.08x, untar 1.09x, "
       "cpu-prime ~1.3x; geomean 1.15x"},
  };
  return Figures;
}

/// One figure computed over matrix cells: a row per workload, then the
/// geomean of each column.
struct FigureView {
  struct Row {
    std::string Workload;
    /// Key of the first cell that is missing or not Ok; such a row has
    /// no values and is left out of every geomean.
    std::string FailedKey;
    std::vector<double> Values;
    std::string Note;
  };
  std::vector<Row> Rows;
  std::vector<double> Geomeans;
};

inline FigureView computeFigure(const PaperFigure &F,
                                const std::vector<MatrixCell> &Cells,
                                uint32_t Scale) {
  std::map<std::string, const RunStats *> ByKey;
  for (const MatrixCell &C : Cells)
    ByKey.emplace(C.Key, &C.S);
  FigureView V;
  std::vector<std::vector<double>> Series(F.Columns.size());
  for (const auto &W : guestsw::workloads()) {
    if (!(F.RealWorld ? W.IsRealWorld : W.IsSpecProxy))
      continue;
    FigureView::Row Row{W.Name, "", {}, ""};
    PaperFigure::RowCells RowCells;
    for (const char *Kind : F.Kinds) {
      const auto It = ByKey.find(matrixKey(Kind, W.Name, Scale));
      if (It == ByKey.end() || !It->second->Ok) {
        Row.FailedKey = matrixKey(Kind, W.Name, Scale);
        break;
      }
      RowCells.push_back(It->second);
    }
    for (size_t I = 0; Row.FailedKey.empty() && I < F.Columns.size(); ++I) {
      const PaperFigure::Column &C = F.Columns[I];
      Row.Values.push_back(ratio(C.Factor * (RowCells[C.NumCell]->*C.Num),
                                 RowCells[C.DenCell]->*C.Den));
      Series[I].push_back(Row.Values.back());
    }
    if (Row.FailedKey.empty() && F.RowNote)
      Row.Note = F.RowNote(RowCells);
    V.Rows.push_back(std::move(Row));
  }
  for (const std::vector<double> &Values : Series)
    V.Geomeans.push_back(geomean(Values));
  return V;
}

/// Prints a computed figure: title, header, one line per workload
/// ("FAILED (<key>)" for a failed row), GEOMEAN, and the paper's values.
inline std::string formatFigure(const PaperFigure &F, const FigureView &V,
                                uint32_t Scale) {
  const auto Line = [&F](const std::string &Label,
                         const std::vector<double> &Values) {
    std::string Out = sformat("%-12s", Label.c_str());
    for (size_t I = 0; I < F.Columns.size(); ++I) {
      const PaperFigure::Column &C = F.Columns[I];
      const int Digits = C.Width - static_cast<int>(std::strlen(C.Suffix));
      Out += sformat(" %*.2f%s", Digits, Values[I], C.Suffix);
    }
    return Out;
  };
  std::string Out = sformat(F.Title, Scale) + "\n\n" +
                    sformat("%-12s", F.RealWorld ? "Application" : "Benchmark");
  for (const PaperFigure::Column &C : F.Columns)
    Out += sformat(" %*s", C.Width, C.Header);
  Out += F.NoteHeader ? std::string("  ") + F.NoteHeader + "\n" : "\n";
  for (const FigureView::Row &R : V.Rows)
    Out += R.FailedKey.empty()
               ? Line(R.Workload, R.Values) + R.Note + "\n"
               : sformat("%-12s  FAILED (%s)\n", R.Workload.c_str(),
                         R.FailedKey.c_str());
  Out += Line("GEOMEAN", V.Geomeans) +
         (F.GeomeanNote ? F.GeomeanNote(V.Geomeans) : std::string()) +
         "\n\n" + F.Paper + "\n";
  return Out;
}

/// Every paper figure over one matrix, separated by blank lines.
inline std::string formatPaperFigures(const std::vector<MatrixCell> &Cells,
                                      uint32_t Scale) {
  std::string Out;
  for (const PaperFigure &F : paperFigures())
    Out += (Out.empty() ? "" : "\n") +
           formatFigure(F, computeFigure(F, Cells, Scale), Scale);
  return Out;
}

} // namespace bench
} // namespace rdbt

#endif // RDBT_BENCH_BENCHCOMMON_H
