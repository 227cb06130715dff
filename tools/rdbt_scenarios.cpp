//===- tools/rdbt_scenarios.cpp - Registry-wide scenario smoke --------------===//
//
// Part of RuleDBT. Runs the translator-kind x workload scenario matrix
// through the vm/ facade and checks the invariant the whole evaluation
// rests on: every executor produces the same guest console output and
// stops with a clean guest shutdown.
//
//   rdbt_scenarios [--jobs N] [--json] [--corpus F] [--cache-dir D]
//                  [--trace-dir D] [--hot N] [workload] [scale]
//
// The cells are every registered kind x the named workload (default:
// every workload) at the given scale (default 1), executed by
// vm/BatchRunner on N worker threads (default 1; 0 = every core). A
// lone numeric positional is the scale. When the run covers every
// workload it then prints the paper's Table I and Figs. 14-19, computed
// from the cells (bench::PaperFigure in bench/BenchCommon.h). --json
// writes BENCH_matrix.json — cells keyed "<kind>/<workload>@<scale>" in
// submission order, byte-identical regardless of N (the full matrix is
// the perf-gate baseline artifact; see tools/rdbt_perfgate and
// bench/README.md).
//
// --cache-dir D runs the cells twice against the persistent
// translation cache in D (dbt/CodeCacheIo.h): a cold pass that
// populates it, then a warm pass that must boot every engine cell from
// the saved files alone — identical console and final state,
// cache_file_hits == 1, translations == 0. --json additionally writes
// the warm pass as BENCH_matrix_warm.json (the rdbt_perfgate --warm
// artifact).
//
// --trace-dir D arms the observability sink on every cell: each
// session writes a Chrome trace-event timeline to
// D/<sanitized-cell-key>.trace.json (warm-pass cells get a -warm
// suffix) and its matrix JSON grows the obs_* field family. Tracing
// reads only host wall time — every counter, console byte, and
// perf-gated field stays bitwise identical to an untraced run
// (rdbt_perfgate --allow-prefix obs_ is the CI check).
//
// --hot N arms the per-TB execution profiler (src/obs/) on every cell
// and, after the table, dumps each engine cell's top-N translation
// blocks — guest and host disassembly, execution share, rule-coverage
// attribution — in cell order.
//
// The parameterized rule:file kind joins the cells when a corpus file
// resolves: --corpus <path>, else $RDBT_RULE_CORPUS, else the checked-in
// bench/baselines/reference.rules relative to the working directory —
// so the learn -> persist -> deploy path is continuously exercised.
// Without a corpus the kind is skipped.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "guestsw/Workloads.h"
#include "vm/BatchRunner.h"
#include "vm/Vm.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

using namespace rdbt;

namespace {

/// The default checked-in corpus, relative to the repo root (where CI
/// and the documented quickstart run from).
const char *DefaultCorpusPath = "bench/baselines/reference.rules";

bool fileExists(const std::string &Path) {
  return std::ifstream(Path).good();
}

/// Resolves the rule:file corpus: explicit flag > environment > the
/// checked-in default when present. Returns "" when unavailable.
std::string resolveCorpus(const char *Flag) {
  if (Flag)
    return Flag;
  if (const char *Env = std::getenv("RDBT_RULE_CORPUS"))
    return Env;
  if (fileExists(DefaultCorpusPath))
    return DefaultCorpusPath;
  return std::string();
}

/// A cell key as a file-name stem: '/', ':' and '=' become '_' so
/// "rule:scheduling/libquantum@1" names exactly one trace file.
std::string sanitizeKey(const std::string &Key) {
  std::string Out = Key;
  for (char &C : Out)
    if (C == '/' || C == ':' || C == '=')
      C = '_';
  return Out;
}

/// Writes a matrix document honoring the RDBT_BENCH_JSON directory
/// convention ("1"/empty = current directory).
bool writeMatrixFile(const std::string &Doc, const char *Name) {
  const char *Env = std::getenv("RDBT_BENCH_JSON");
  const std::string Dir =
      (!Env || *Env == '\0' || std::string(Env) == "1") ? "." : Env;
  const std::string Path = Dir + "/" + Name;
  std::ofstream OS(Path);
  if (!OS) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return false;
  }
  OS << Doc;
  std::printf("\nwrote %s\n", Path.c_str());
  return true;
}

/// The command line, parsed once in main().
struct Options {
  uint32_t Scale = 1;
  uint32_t Jobs = 1;
  uint32_t Hot = 0;  ///< --hot N: blocks per engine cell, 0 = off
  bool Json = false;
  std::string Only;  ///< the one workload to run; empty = every workload
  std::string Corpus;
  std::string CacheDir;
  std::string TraceDir;
};

/// One planned matrix cell: the stable key, the kind string handed to
/// the translator registry (carries the =<param> for rule:file), and the
/// workload.
struct Cell {
  std::string Key;
  std::string Kind;
  std::string Workload;
};

/// One pre-run board snapshot per workload: the guest image is
/// assembled and installed once, then every kind's cell forks it
/// copy-on-write instead of re-running the whole install (the per-cell
/// "double boot"). Pre-run snapshots carry no executor progress, so
/// every translator kind can adopt one and every counter stays exactly
/// what a from-scratch session produces — the perf gate's exact-count
/// baseline holds this. Keyed storage is a std::map so the addresses
/// handed to VmConfig::snapshot() stay stable while the batch runs.
std::map<std::string, vm::Snapshot> captureBoards(const Options &Opts) {
  std::map<std::string, vm::Snapshot> Snaps;
  for (const auto &W : guestsw::workloads()) {
    if (!Opts.Only.empty() && Opts.Only != W.Name)
      continue;
    vm::Vm Booter(vm::VmConfig().translator("native").workload(W.Name).scale(
        Opts.Scale));
    if (Booter.valid())
      Snaps.emplace(W.Name, Booter.capture());
  }
  return Snaps;
}

/// Runs every cell through the batch runner once. --cache-dir arms the
/// persistent translation cache on every cell (a no-op for non-engine
/// kinds); the cache key includes the guest image and the translator
/// configuration, so all cells share one directory without collisions.
/// Consoles are cross-checked per workload.
std::vector<vm::RunReport> runBatch(const std::vector<Cell> &Cells,
                                    const std::map<std::string, vm::Snapshot>
                                        &Boards,
                                    const Options &Opts,
                                    const char *TraceSuffix, int &Failures) {
  std::vector<vm::VmConfig> Configs;
  Configs.reserve(Cells.size());
  for (const Cell &C : Cells) {
    vm::VmConfig Cfg = vm::VmConfig()
                           .translator(C.Kind)
                           .workload(C.Workload)
                           .scale(Opts.Scale)
                           .hotBlocks(Opts.Hot);
    if (!Opts.CacheDir.empty())
      Cfg.persistentCache(Opts.CacheDir);
    // --trace-dir: one timeline per cell. Tracing reads only host wall
    // time, so every matrix counter stays byte-identical to an untraced
    // run — only the obs_* JSON field family appears on top.
    if (!Opts.TraceDir.empty())
      Cfg.trace(Opts.TraceDir + "/" + sanitizeKey(C.Key) + TraceSuffix +
                ".trace.json");
    const auto It = Boards.find(C.Workload);
    if (It != Boards.end())
      Cfg.snapshot(&It->second);
    Configs.push_back(std::move(Cfg));
  }

  const std::vector<vm::RunReport> Reports =
      vm::BatchRunner(Opts.Jobs).run(Configs);

  std::printf("%-28s %-14s %12s %14s %10s\n", "spec", "stop", "guest",
              "host cycles", "host/guest");
  std::map<std::string, std::string> RefConsole; // workload -> console
  for (size_t I = 0; I < Reports.size(); ++I) {
    const vm::RunReport &R = Reports[I];
    std::printf("%-28s %-14s %12llu %14llu %10.2f\n", R.Spec.c_str(),
                R.stopName(), static_cast<unsigned long long>(R.guestInstrs()),
                static_cast<unsigned long long>(R.wall()), R.hostPerGuest());
    if (!R.Ok) {
      std::fprintf(stderr, "FAIL: %s stopped with '%s'%s%s\n",
                   Cells[I].Key.c_str(), R.stopName(),
                   R.Error.empty() ? "" : ": ", R.Error.c_str());
      ++Failures;
      continue;
    }
    const auto It = RefConsole.find(Cells[I].Workload);
    if (It == RefConsole.end()) {
      RefConsole.emplace(Cells[I].Workload, R.Console);
    } else if (R.Console != It->second) {
      std::fprintf(stderr, "FAIL: %s console diverged from the first "
                           "executor of '%s'\n",
                   Cells[I].Key.c_str(), Cells[I].Workload.c_str());
      ++Failures;
    }
  }
  return Reports;
}

/// Converts a batch's reports to matrix cells for JSON emission.
std::vector<bench::MatrixCell>
toMatrixCells(const std::vector<Cell> &Cells,
              const std::vector<vm::RunReport> &Reports) {
  std::vector<bench::MatrixCell> Out;
  Out.reserve(Reports.size());
  for (size_t I = 0; I < Reports.size(); ++I) {
    const auto *Info = vm::TranslatorRegistry::global().find(Cells[I].Kind);
    Out.push_back({Cells[I].Key,
                   bench::fromReport(Reports[I], Info && Info->UsesEngine)});
  }
  return Out;
}

/// Dumps one engine cell's hot-block profile (RunReport::HotBlocks).
void printHotBlocks(const std::string &Key,
                    const std::vector<vm::HotBlock> &Blocks) {
  std::printf("\nhot blocks of %s:\n", Key.c_str());
  for (size_t BI = 0; BI < Blocks.size(); ++BI) {
    const vm::HotBlock &B = Blocks[BI];
    std::printf("\n  #%zu tb %d @ 0x%08x: %llu entries, %.2f%% of "
                "retired guest instrs\n"
                "     %u guest instr(s): %u rule-covered, %u via the "
                "emulate helper\n",
                BI + 1, B.TbId, B.GuestPc,
                static_cast<unsigned long long>(B.Execs),
                B.ExecShare * 100.0, B.NumGuestInstrs, B.CoveredInstrs,
                B.EmulatedInstrs);
    std::printf("    guest:\n%s    host:\n", B.GuestDisasm.c_str());
    // Indent the host disassembly to match.
    std::string Line;
    for (char C : B.HostDisasm) {
      Line += C;
      if (C == '\n') {
        std::printf("      %s", Line.c_str());
        Line.clear();
      }
    }
    if (!Line.empty())
      std::printf("      %s\n", Line.c_str());
  }
}

int runMatrix(const Options &Opts) {
  std::vector<Cell> Cells;
  for (const std::string &Kind : vm::TranslatorRegistry::global().kinds()) {
    const auto *Info = vm::TranslatorRegistry::global().find(Kind);
    std::string Resolved = Kind;
    if (Info && Info->TakesParam) {
      if (Opts.Corpus.empty()) {
        std::fprintf(stderr,
                     "note: skipping %s (no corpus; pass --corpus or check "
                     "in %s)\n", Kind.c_str(), DefaultCorpusPath);
        continue;
      }
      Resolved = Kind + "=" + Opts.Corpus;
    }
    for (const auto &W : guestsw::workloads()) {
      if (!Opts.Only.empty() && Opts.Only != W.Name)
        continue;
      Cell C;
      // The key names the kind, never the corpus path (or cache dir), so
      // baselines stay stable across checkouts.
      C.Key = bench::matrixKey(Kind, W.Name, Opts.Scale);
      C.Kind = Resolved;
      C.Workload = W.Name;
      Cells.push_back(std::move(C));
    }
  }

  const std::map<std::string, vm::Snapshot> Boards = captureBoards(Opts);

  const size_t Workloads =
      Opts.Only.empty() ? guestsw::workloads().size() : 1;
  std::printf("scenario matrix: %zu cells (%zu kinds x %zu workloads) at "
              "scale %u, %u job(s)%s\n\n",
              Cells.size(), Cells.size() / Workloads, Workloads, Opts.Scale,
              Opts.Jobs, Opts.CacheDir.empty() ? "" : " [cold pass]");

  int Failures = 0;
  const std::vector<vm::RunReport> Cold =
      runBatch(Cells, Boards, Opts, "", Failures);
  const std::vector<bench::MatrixCell> ColdCells = toMatrixCells(Cells, Cold);

  for (size_t I = 0; I < Cells.size(); ++I)
    if (!Cold[I].HotBlocks.empty())
      printHotBlocks(Cells[I].Key, Cold[I].HotBlocks);

  // The figures read every workload's cells; a one-workload run would
  // only print FAILED rows for the cells it never planned.
  if (Opts.Only.empty())
    std::printf("\n%s", bench::formatPaperFigures(ColdCells, Opts.Scale)
                            .c_str());

  if (Opts.Json &&
      !writeMatrixFile(bench::formatMatrixJson(ColdCells, Opts.Scale),
                       "BENCH_matrix.json"))
    ++Failures;

  if (!Opts.CacheDir.empty()) {
    // Warm pass: every cold cell has destructed — and saved its cache
    // file — so this second batch boots entirely from the directory. The
    // warm-boot contract is checked per engine cell: identical console,
    // identical final architectural state, and zero translations (every
    // block comes from the file, counted in loaded_tbs).
    std::printf("\nwarm pass against %s:\n\n", Opts.CacheDir.c_str());
    const std::vector<vm::RunReport> Warm =
        runBatch(Cells, Boards, Opts, "-warm", Failures);

    std::printf("\n%-28s %12s %12s %10s %6s\n", "cell", "cold-xlate",
                "warm-xlate", "loaded", "hits");
    for (size_t I = 0; I < Cells.size(); ++I) {
      const auto *Info = vm::TranslatorRegistry::global().find(Cells[I].Kind);
      if (!Info || !Info->UsesEngine)
        continue;
      const vm::RunReport &C = Cold[I], &W = Warm[I];
      std::printf("%-28s %12llu %12llu %10llu %6llu\n", Cells[I].Key.c_str(),
                  static_cast<unsigned long long>(C.Engine.Translations),
                  static_cast<unsigned long long>(W.Engine.Translations),
                  static_cast<unsigned long long>(W.Cache.LoadedTbs),
                  static_cast<unsigned long long>(W.Cache.CacheFileHits));
      if (W.Console != C.Console) {
        std::fprintf(stderr, "FAIL: %s warm console differs from cold\n",
                     Cells[I].Key.c_str());
        ++Failures;
      }
      if (std::memcmp(&W.Final, &C.Final, sizeof(C.Final)) != 0) {
        std::fprintf(stderr, "FAIL: %s warm final architectural state "
                             "differs from cold\n", Cells[I].Key.c_str());
        ++Failures;
      }
      if (W.Cache.CacheFileHits != 1) {
        std::fprintf(stderr, "FAIL: %s warm run did not load its cache "
                             "file (hits=%llu misses=%llu)\n",
                     Cells[I].Key.c_str(),
                     static_cast<unsigned long long>(W.Cache.CacheFileHits),
                     static_cast<unsigned long long>(W.Cache.CacheFileMisses));
        ++Failures;
      }
      if (W.Engine.Translations != 0) {
        std::fprintf(stderr, "FAIL: %s warm run still translated %llu "
                             "block(s)\n", Cells[I].Key.c_str(),
                     static_cast<unsigned long long>(W.Engine.Translations));
        ++Failures;
      }
    }

    if (Opts.Json &&
        !writeMatrixFile(
            bench::formatMatrixJson(toMatrixCells(Cells, Warm), Opts.Scale),
            "BENCH_matrix_warm.json"))
      ++Failures;
  }

  if (Failures) {
    std::fprintf(stderr, "\n%d matrix cell(s) failed\n", Failures);
    return 1;
  }
  std::printf("\nall %zu matrix cells clean; consoles identical per "
              "workload%s\n", Cells.size(),
              Opts.CacheDir.empty() ? "" : "; warm boots translated nothing");
  return 0;
}

/// The value of option \p Name at argv[I], given as "Name V" (advancing
/// \p I past V) or as "Name=V"; null when argv[I] is not that option.
const char *optionValue(int argc, char **argv, int &I, const char *Name) {
  const size_t Len = std::strlen(Name);
  if (std::strncmp(argv[I], Name, Len) != 0)
    return nullptr;
  if (argv[I][Len] == '=')
    return argv[I] + Len + 1;
  if (argv[I][Len] == '\0' && I + 1 < argc)
    return argv[++I];
  return nullptr;
}

/// Parses a --jobs/--hot count: a decimal integer, 0 included, with the
/// same digits-only overflow check as bench::parseScale.
bool parseCount(const char *Text, uint32_t &Out) {
  if (std::strcmp(Text, "0") == 0) {
    Out = 0;
    return true;
  }
  return bench::parseScale(Text, Out);
}

bool isWorkload(const char *Name) {
  for (const auto &W : guestsw::workloads())
    if (std::strcmp(W.Name, Name) == 0)
      return true;
  return false;
}

} // namespace

int main(int argc, char **argv) {
  Options Opts;
  const char *CorpusFlag = nullptr;
  bool HaveScale = false;
  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    if (std::strcmp(Arg, "--list") == 0) {
      std::printf("workloads:\n");
      for (const auto &W : guestsw::workloads())
        std::printf("  %-12s %-10s %s\n", W.Name,
                    W.IsSpecProxy   ? "[spec]"
                    : W.IsRealWorld ? "[realworld]"
                                    : "[system]",
                    W.Sketch);
      std::printf("\ntranslator kinds:\n");
      for (const std::string &K : vm::TranslatorRegistry::global().kinds()) {
        const auto *Info = vm::TranslatorRegistry::global().find(K);
        std::printf("  %s%s\n", K.c_str(),
                    Info && Info->TakesParam ? "=<param>" : "");
      }
      return 0;
    }
    if (std::strcmp(Arg, "--json") == 0) {
      Opts.Json = true;
      continue;
    }
    if (const char *V = optionValue(argc, argv, I, "--jobs")) {
      if (!parseCount(V, Opts.Jobs)) {
        std::fprintf(stderr, "invalid --jobs '%s' (want a worker count; "
                             "0 = every core)\n", V);
        return 2;
      }
      continue;
    }
    if (const char *V = optionValue(argc, argv, I, "--hot")) {
      if (!parseCount(V, Opts.Hot)) {
        std::fprintf(stderr, "invalid --hot '%s' (want a block count; "
                             "0 = off)\n", V);
        return 2;
      }
      continue;
    }
    if (const char *V = optionValue(argc, argv, I, "--corpus")) {
      CorpusFlag = V;
      continue;
    }
    if (const char *V = optionValue(argc, argv, I, "--cache-dir")) {
      Opts.CacheDir = V;
      continue;
    }
    if (const char *V = optionValue(argc, argv, I, "--trace-dir")) {
      Opts.TraceDir = V;
      continue;
    }
    if (Arg[0] != '-' && !HaveScale) {
      // The workload comes first; a leading digit marks the scale, so
      // "rdbt_scenarios 4" runs every workload at scale 4.
      if (Opts.Only.empty() &&
          !std::isdigit(static_cast<unsigned char>(Arg[0]))) {
        if (!isWorkload(Arg)) {
          std::fprintf(stderr, "unknown workload '%s' (see --list)\n", Arg);
          return 2;
        }
        Opts.Only = Arg;
        continue;
      }
      if (!bench::parseScale(Arg, Opts.Scale)) {
        std::fprintf(stderr, "invalid scale '%s'\n", Arg);
        return 2;
      }
      HaveScale = true;
      continue;
    }
    std::fprintf(stderr,
                 "unexpected argument '%s'\n"
                 "usage: rdbt_scenarios [--jobs N] [--json] [--corpus F] "
                 "[--cache-dir D] [--trace-dir D] [--hot N] [workload] "
                 "[scale]\n"
                 "       rdbt_scenarios --list\n", Arg);
    return 2;
  }
  if (Opts.Jobs == 0)
    Opts.Jobs = vm::BatchRunner::hardwareJobs();

  Opts.Corpus = resolveCorpus(CorpusFlag);
  if (!Opts.Corpus.empty() && !fileExists(Opts.Corpus)) {
    std::fprintf(stderr, "corpus file '%s' not found\n", Opts.Corpus.c_str());
    return 2;
  }
  return runMatrix(Opts);
}
