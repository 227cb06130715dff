//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
//
// Part of RuleDBT's benchmark (perfbench/README.md).
//
//   perfbench --workload spec-exec|serve-fork|fuzz-diff --seed N
//             --seconds S --trace 0|1 --root DIR [--trace-file F]
//   perfbench --regen-reference --root DIR
//
// Runs one workload and prints, as its last stdout line, one JSON object
// {correct, attempted, failed, metrics}: the end-to-end metrics when
// untraced, the per-layer metrics (and the tracing overhead) when traced.
// A run with any failed op still prints its result but exits 1.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

double p50(const std::map<std::string, LayerTime> &T, const char *Name,
           double Scale) {
  const auto It = T.find(Name);
  return It == T.end() ? 0 : percentile(It->second.Durations, 50) / Scale;
}

std::vector<Metric> endToEnd(const Outcome &O, const EndToEnd &E) {
  return {
      {"guest_mips", E.GuestMips, "MIPS"},
      {"sim_cycles", static_cast<double>(O.SimCycles), "count"},
      {"sessions_per_s", E.SessionsPerS, "1/s"},
      {"session_p50_ms", E.P50Ms, "ms"},
      {"session_p99_ms", E.TailMs, "ms"},
      {"execs_per_s", E.ExecsPerS, "1/s"},
      {"setup_s", median(O.SetupS), "s"},
  };
}

std::vector<Metric> perLayer(const Outcome &O) {
  const LayerStats &S = O.Layers;
  const std::map<std::string, LayerTime> T = layerTimes(O.Trace.spans());
  std::vector<Metric> M = {
      {"vm.construct_ms", p50(T, "vm.construct", 1e6), "ms"},
      {"vm.boot_ms", p50(T, "vm.boot", 1e6), "ms"},
      {"vm.capture_ms", p50(T, "vm.capture", 1e6), "ms"},
      {"vm.fork_us", p50(T, "vm.fork", 1e3), "us"},
      {"vm.destroy_us", p50(T, "vm.destroy", 1e3), "us"},
      {"sys.platform_new_us", p50(T, "sys.platform_new", 1e3), "us"},
      {"guestsw.image_ms", p50(T, "guestsw.image", 1e6), "ms"},
      {"sys.tlb_hit_ratio",
       S.Engine.GuestMemInstrs > S.MmuMisses
           ? 1 - ratio(S.MmuMisses, S.Engine.GuestMemInstrs)
           : 0,
       "ratio"},
      {"sys.cow_pages_per_session", ratio(S.CowPages, S.ForkedSessions),
       "count"},
      {"sys.interp_ns_per_guest_instr",
       ratio(S.NativeNs, S.NativeGuestInstrs), "ns"},
      {"sys.interp_decode_hit_ratio",
       ratio(S.DecodeHits, static_cast<double>(S.DecodeHits + S.DecodeMisses)),
       "ratio"},
  };
  for (const char *K : {"qemu", "rule"}) {
    const auto It = S.Slices.find(K);
    const ExecSlices E = It == S.Slices.end() ? ExecSlices() : It->second;
    M.push_back({std::string("dbt.exec_ns_per_sim_cycle.") + K,
                 ratio(E.Ns, E.SimCycles), "ns"});
    M.push_back({std::string("dbt.exec_ns_per_guest_instr.") + K,
                 ratio(E.Ns, E.GuestInstrs), "ns"});
  }
  const double KGuest = S.Engine.GuestInstrs / 1e3;
  M.insert(
      M.end(),
      {
          {"dbt.cache_entries_per_kguest", ratio(S.CacheEntries, KGuest),
           "count"},
          {"dbt.irqs_delivered", static_cast<double>(S.IrqsDelivered),
           "count"},
          {"dbt.translations", static_cast<double>(S.Translations), "count"},
          {"dbt.translated_guest_instrs",
           static_cast<double>(S.TranslatedGuestInstrs), "count"},
          {"dbt.fetch_ns_per_guest_instr",
           ratio(S.FetchNs, S.FetchGuestInstrs), "ns"},
          {"dbt.new_translations_per_session",
           ratio(S.NewTranslations, S.ForkedSessions), "count"},
          {"dbt.cow_block_copies_per_session",
           ratio(S.CowBlockCopies, S.ForkedSessions), "count"},
          {"host.chain_follow_ratio",
           ratio(S.Engine.ChainFollows, S.Engine.TbEntries), "ratio"},
          {"host.helper_calls_per_kguest", ratio(S.Engine.HelperCalls, KGuest),
           "count"},
      });
  const char *const Classes[] = {"user", "sync", "mmu",
                                 "irq",  "glue", "helper"};
  for (const char *K : {"qemu", "rule"}) {
    const auto It = S.Unit.find(K);
    for (unsigned C = 0; C < rdbt::host::NumCostClasses; ++C)
      M.push_back({std::string("host.cls.") + Classes[C] + "." + K,
                   It == S.Unit.end()
                       ? 0
                       : static_cast<double>(It->second.ByClass[C]),
                   "count"});
  }
  double LogSum = 0;
  for (const double R : S.SpeedupVsQemu)
    LogSum += std::log(R);
  M.insert(
      M.end(),
      {
          {"core.xlate_ns_per_guest_instr",
           ratio(S.CoreXlateNs, S.CoreXlateGuestInstrs), "ns"},
          {"ir.xlate_ns_per_guest_instr",
           ratio(S.IrXlateNs, S.IrXlateGuestInstrs), "ns"},
          {"rules.match_hit_ratio",
           ratio(S.MatchHits, static_cast<double>(S.MatchAttempts)), "ratio"},
          {"core.rule_coverage",
           ratio(S.RuleCovered,
                 static_cast<double>(S.RuleCovered + S.RuleFallback)),
           "ratio"},
          {"fuzz.gen_us", p50(T, "fuzz.gen", 1e3), "us"},
          {"core.sim_speedup_vs_qemu",
           S.SpeedupVsQemu.empty()
               ? 0
               : std::exp(LogSum / S.SpeedupVsQemu.size()),
           "ratio"},
          {"bench.trace_overhead_pct",
           S.UntracedNs > 0 ? (S.TracedNs / S.UntracedNs - 1) * 100 : 0, "%"},
      });
  return M;
}

double peakRssMb() {
  std::ifstream IS("/proc/self/status");
  std::string Line;
  while (std::getline(IS, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  return 0;
}

std::string cpuModel() {
  std::ifstream IS("/proc/cpuinfo");
  std::string Line;
  while (std::getline(IS, Line))
    if (Line.rfind("model name", 0) == 0) {
      const size_t Colon = Line.find(':');
      return Colon == std::string::npos ? "" : Line.substr(Colon + 2);
    }
  return "unknown";
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (const char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

bool sanitizedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr;
#endif
}

bool optimizedBuild() {
#ifdef NDEBUG
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

void printLayerTable(const std::vector<Span> &Spans) {
  std::printf("%-20s %9s %12s %12s %12s\n", "layer span", "count",
              "total ms", "self ms", "p50 us");
  for (const auto &KV : layerTimes(Spans))
    std::printf("%-20s %9llu %12.3f %12.3f %12.3f\n", KV.first.c_str(),
                static_cast<unsigned long long>(KV.second.Count),
                KV.second.TotalNs / 1e6, KV.second.SelfNs / 1e6,
                percentile(KV.second.Durations, 50) / 1e3);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload spec-exec|serve-fork|fuzz-diff "
               "--seed N --seconds S --trace 0|1 --root DIR "
               "[--trace-file F]\n       perfbench --regen-reference "
               "--root DIR\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  RunContext Ctx;
  std::string TraceFile;
  bool Regen = false;
  for (int I = 1; I < argc; ++I) {
    const std::string A = argv[I];
    if (A == "--regen-reference") {
      Regen = true;
      continue;
    }
    if (I + 1 >= argc)
      return usage();
    const std::string V = argv[++I];
    try {
      if (A == "--workload")
        Ctx.Workload = V;
      else if (A == "--seed")
        Ctx.Seed = std::stoull(V);
      else if (A == "--seconds")
        Ctx.Seconds = std::stod(V);
      else if (A == "--trace")
        Ctx.Trace = V == "1";
      else if (A == "--root")
        Ctx.Root = V;
      else if (A == "--trace-file")
        TraceFile = V;
      else
        return usage();
    } catch (const std::exception &) {
      return usage();
    }
  }
  if (Ctx.Root.empty())
    return usage();
  if (Regen)
    return regenerateSpecReference(Ctx.Root);
  if (!(Ctx.Seconds > 0 && Ctx.Seconds <= 120))
    return usage();

  Outcome Out;
  Out.Trace = Tracer(Ctx.Trace, 0);
  int Rc;
  if (Ctx.Workload == "spec-exec") {
    Rc = runSpecExec(Ctx, Out);
  } else if (Ctx.Workload == "serve-fork") {
    Rc = runServeFork(Ctx, Out);
  } else if (Ctx.Workload == "fuzz-diff") {
    Rc = runFuzzDiff(Ctx, Out);
  } else {
    return usage();
  }
  if (Rc != 0)
    return Rc;

  for (const std::string &E : Out.Errors)
    std::fprintf(stderr, "FAIL: %s\n", E.c_str());
  const EndToEnd E = summarize(Out.Sessions);
  std::vector<Metric> Metrics;
  if (Ctx.Trace) {
    Metrics = perLayer(Out);
    printLayerTable(Out.Trace.spans());
    if (!TraceFile.empty() &&
        !writeChromeTrace(TraceFile, "perfbench " + Ctx.Workload,
                          Out.Trace.spans(), 100000))
      Out.fail("cannot write trace file " + TraceFile);
  } else {
    Metrics = endToEnd(Out, E);
    Metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
  }

  const bool LikeForLike = optimizedBuild() && !sanitizedBuild();
  if (!LikeForLike)
    std::fprintf(stderr, "warning: not an optimized Release build without "
                         "sanitizers; figures are not comparable\n");
  std::printf(
      "run_record {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"workers\": 1, \"nproc\": %u, \"cpu_model\": %s, "
      "\"compiler\": %s, \"cxx_flags\": %s, \"build_type\": %s, "
      "\"like_for_like\": %s, \"ops\": %llu, \"ops_failed\": %llu, "
      "\"sessions\": %zu, \"windows\": %zu, \"sessions_per_window\": %zu, "
      "\"session_tail_pct\": %u, \"trace_file\": %s}\n",
      jsonString(Ctx.Workload).c_str(),
      static_cast<unsigned long long>(Ctx.Seed), Ctx.Seconds, Ctx.Trace ? 1 : 0,
      std::thread::hardware_concurrency(),
      jsonString(cpuModel()).c_str(), jsonString(PERFBENCH_COMPILER).c_str(),
      jsonString(PERFBENCH_CXX_FLAGS).c_str(),
      jsonString(PERFBENCH_BUILD_TYPE).c_str(),
      LikeForLike ? "true" : "false",
      static_cast<unsigned long long>(Out.Attempted),
      static_cast<unsigned long long>(Out.Failed),
      Out.Sessions.size(), E.Windows, E.WindowSize, E.TailPct,
      jsonString(Ctx.Trace ? TraceFile : "").c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Out.Failed ? "false" : "true",
              static_cast<unsigned long long>(Out.Attempted),
              static_cast<unsigned long long>(Out.Failed));
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const double V = std::isfinite(Metrics[I].Value) ? Metrics[I].Value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), V, Metrics[I].Unit);
  }
  std::printf("}}\n");
  return Out.Failed ? 1 : 0;
}
