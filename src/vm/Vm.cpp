//===- vm/Vm.cpp - One DBT session behind one object ------------------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "arm/Decoder.h"
#include "arm/Disasm.h"
#include "core/RuleTranslator.h"
#include "dbt/Helpers.h"
#include "guestsw/MiniKernel.h"
#include "guestsw/Workloads.h"
#include "host/HostDisasm.h"
#include "obs/Trace.h"
#include "profile/GapMiner.h"
#include "rules/RuleIo.h"
#include "sys/Interpreter.h"

#include <algorithm>
#include <chrono>
#include <sstream>

using namespace rdbt;
using namespace rdbt::vm;

static uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Vm::Vm(VmConfig C) : Cfg(std::move(C)) {
  const uint64_t T0 = nowNs();
  init();
  Time_.BootNs += nowNs() - T0;
}

void Vm::init() {
  Kind_ = TranslatorRegistry::global().find(Cfg.translator());
  if (!Kind_) {
    Error_ = "unknown translator kind '" + Cfg.translator() + "'";
    Board_ = std::make_unique<sys::Platform>(guestsw::KernelLayout::MinRam);
    return;
  }

  // Arm observability before anything that records: the sink and the
  // metrics registry exist iff a trace path was configured, and every
  // instrumented module below gets plain pointers (null = disabled).
  if (!Cfg.trace().empty()) {
    Sink_ = std::make_unique<obs::TraceSink>();
    Metrics_ = std::make_unique<obs::Metrics>();
  }

  const Snapshot *Snap = Cfg.snapshot();
  if (Snap) {
    Error_ = Snap->forkError(Cfg);
    if (!Error_.empty()) {
      Board_ = std::make_unique<sys::Platform>(guestsw::KernelLayout::MinRam);
      return;
    }
    Forked_ = true;
    // Fork fast path: RAM comes up copy-on-write over the snapshot's
    // shared image (no allocation, no zero-fill, no guest install), then
    // the captured device and CPU state are applied verbatim. Env last —
    // it carries IrqPending/ExitRequest, which nothing below may
    // recompute (Platform::restoreState never touches Env).
    Board_ = std::make_unique<sys::Platform>(Snap->ramImage());
    Board_->restoreState(Snap->Board_);
    Board_->Env = Snap->Env_;
    // A pre-run snapshot has executed nothing, so the fork may choose
    // its own invalidation policy; a warm one already validated equality.
    if (!Snap->HasRun_)
      Board_->Env.BlanketInvalidation =
          Cfg.blanketCacheInvalidation() ? 1u : 0u;
    RDBT_TRACE(Sink_.get(), obs::EventKind::SnapshotFork,
               Snap->Cache_ ? Snap->Cache_->LiveBlocks : 0);
  } else {
    const uint32_t Ram = Cfg.ramBytes()
                             ? Cfg.ramBytes()
                             : guestsw::requiredWorkloadRam(Cfg.workload());
    Board_ = std::make_unique<sys::Platform>(Ram);

    if (Cfg.isFlatImage()) {
      Board_->Ram.loadWords(Cfg.flatImageBase(), Cfg.flatImage());
      sys::resetEnv(Board_->Env);
      Board_->Env.Regs[15] = Cfg.flatImageBase();
    } else if (Cfg.workload().empty()) {
      Error_ = "no workload configured";
      return;
    } else if (!guestsw::setupGuest(*Board_, Cfg.workload(), Cfg.scale())) {
      Error_ = "unknown workload '" + Cfg.workload() + "'";
      return;
    }
    // After guest install (installers reset the env, which clears the
    // policy word). The interpreter honors it on every executor path.
    Board_->Env.BlanketInvalidation =
        Cfg.blanketCacheInvalidation() ? 1u : 0u;
  }

  if (!Kind_->UsesEngine) {
    // Interpreter-executed: no translator, no engine. A warm native
    // snapshot resumes its instruction accumulator.
    if (Snap)
      NativeInstrs_ = Snap->NativeInstrs_;
    return;
  }

  TranslatorRegistry::Context Ctx;
  const core::OptConfig Opts = Cfg.hasOpts() ? Cfg.opts() : core::OptConfig();
  if (Cfg.hasOpts())
    Ctx.Opts = &Opts;
  if (Kind_->NeedsRules) {
    if (!Cfg.rules()) {
      const std::string Param = TranslatorRegistry::paramOf(Cfg.translator());
      if (Snap && Snap->Rules_ &&
          Param == TranslatorRegistry::paramOf(Snap->translator())) {
        // Same corpus provenance (both reference, or the same rule
        // file): share the snapshot's immutable set instead of
        // rebuilding or re-reading it per fork.
        OwnedRules_ = Snap->Rules_;
      } else if (Kind_->TakesParam) {
        // "rule:file=<path>": deploy a persisted corpus.
        if (Param.empty()) {
          Error_ = "translator kind '" + Kind_->Name +
                   "' needs a parameter: " + Kind_->Name + "=<rule-file>";
          return;
        }
        auto Loaded = std::make_shared<rules::RuleSet>();
        std::string IoErr;
        if (!rules::readRuleFile(Param, *Loaded, &IoErr)) {
          Error_ = "cannot load rule file: " + IoErr;
          return;
        }
        OwnedRules_ = std::move(Loaded);
      } else {
        OwnedRules_ = std::make_shared<const rules::RuleSet>(
            rules::buildReferenceRuleSet());
      }
    }
    Ctx.Rules = Cfg.rules() ? Cfg.rules() : OwnedRules_.get();
  }
  Xlat_ = TranslatorRegistry::global().create(Kind_->Name, Ctx);
  if (!Xlat_) {
    Error_ = "translator factory for '" + Kind_->Name + "' failed";
    return;
  }
  if (Cfg.gapMiner())
    if (auto *Rule = dynamic_cast<core::RuleTranslator *>(Xlat_.get()))
      Rule->setGapMiner(Cfg.gapMiner());
  Engine_ = std::make_unique<dbt::DbtEngine>(*Board_, *Xlat_);
  Engine_->setRunawayGuard(Cfg.runawayGuard());
  Engine_->setInterpFastpath(Cfg.interpFastpath());
  if (Sink_)
    Engine_->setObs(Sink_.get(), Metrics_.get());
  if (Cfg.profileHotBlocks())
    Engine_->enableTbExecProfile();

  AdoptedWarm_ = Snap && Snap->HasRun_;
  if (AdoptedWarm_) {
    // Adopt the warm snapshot's executor progress: the warmed code cache
    // (blocks shared read-only; chain patches privatize per block), the
    // exact host counters, engine/MMU statistics, and the rule
    // translator's session counters — so this fork's cumulative report
    // is bitwise what an unforked session's would be.
    if (Snap->Cache_)
      Engine_->codeCache().adopt(*Snap->Cache_);
    Engine_->restoreCounters(Snap->Counters_);
    Engine_->Stats = Snap->Engine_;
    Engine_->mmu().Hits = Snap->MmuHits_;
    Engine_->mmu().Misses = Snap->MmuMisses_;
    if (auto *Rule = dynamic_cast<core::RuleTranslator *>(Xlat_.get())) {
      Rule->RuleCoveredInstrs = Snap->RuleCoveredInstrs_;
      Rule->FallbackInstrs = Snap->FallbackInstrs_;
      Rule->ScheduledDefUseMoves = Snap->ScheduledDefUseMoves_;
      Rule->ScheduledIrqChecks = Snap->ScheduledIrqChecks_;
      Rule->Matches = Snap->Matches_;
    }
    // Inherit the captured session's persistent-cache store as-is (the
    // adopted CacheStats already include its CacheFileHits/LoadedTbs, so
    // re-loading here would double-count). Warm forks also never save —
    // see ~Vm — because N forks racing to rewrite one file adds nothing
    // the captured session's own save does not.
    Engine_->setTranslationStore(Snap->Store_);
  } else if (!Cfg.persistentCache().empty()) {
    initPersistentCache(Snap);
  }
}

void Vm::initPersistentCache(const Snapshot *Snap) {
  // Key the cache file by everything a stored translation depends on:
  // the guest image bytes, and every configuration input that changes
  // what the translator emits (DESIGN.md §12).
  dbt::CacheKey K;
  if (Snap && Snap->ramImage()) {
    const std::vector<uint8_t> &Img = *Snap->ramImage();
    K.ImageCrc = dbt::crc32c(Img.data(), Img.size());
  } else {
    // Page-wise so COW-mode RAM never needs flattening.
    uint8_t Page[sys::PhysMem::PageBytes];
    const uint32_t Size = Board_->Ram.size();
    uint32_t Crc = 0;
    for (uint32_t Pa = 0; Pa < Size; Pa += sys::PhysMem::PageBytes) {
      const uint32_t Len =
          std::min<uint32_t>(sys::PhysMem::PageBytes, Size - Pa);
      Board_->Ram.readBlock(Pa, Page, Len);
      Crc = dbt::crc32c(Page, Len, Crc);
    }
    K.ImageCrc = Crc;
  }

  // Translator identity: canonical kind name, explicit opt overrides
  // (the kind name itself pins the preset), invalidation policy, and —
  // for rule kinds — the full canonical corpus text, so "rule:file="
  // deployments key by content, not by path.
  uint32_t C = dbt::crc32c(Kind_->Name.data(), Kind_->Name.size());
  C = dbt::crc32cWord(Cfg.hasOpts() ? 1u : 0u, C);
  if (Cfg.hasOpts()) {
    const core::OptConfig &O = Cfg.opts();
    C = dbt::crc32cWord(static_cast<uint32_t>(O.PackedCcr) |
                            (static_cast<uint32_t>(O.TrackFlagState) << 1) |
                            (static_cast<uint32_t>(O.InterTb) << 2) |
                            (static_cast<uint32_t>(O.ScheduleDefUse) << 3) |
                            (static_cast<uint32_t>(O.ScheduleIrq) << 4),
                        C);
  }
  C = dbt::crc32cWord(Cfg.blanketCacheInvalidation() ? 1u : 0u, C);
  if (Kind_->NeedsRules) {
    const rules::RuleSet *RS = Cfg.rules() ? Cfg.rules() : OwnedRules_.get();
    const std::string Text = rules::writeRuleSet(*RS);
    C = dbt::crc32c(Text.data(), Text.size(), C);
  }
  // Layout/geometry fingerprint: a rebuild that moves env slots or the
  // host ISA must never reuse old code.
  C = dbt::crc32cWord(sys::envWordCount(), C);
  C = dbt::crc32cWord(sys::envSlotMmuIdx(), C);
  C = dbt::crc32cWord(sys::envSlotTlbBase(), C);
  C = dbt::crc32cWord(sys::tlbEntryWords(), C);
  C = dbt::crc32cWord(sys::TlbSize, C);
  C = dbt::crc32cWord(host::NumHostRegs, C);
  C = dbt::crc32cWord(static_cast<uint32_t>(host::HOp::ExitTb), C);
  C = dbt::crc32cWord(host::NumCostClasses, C);
  K.ConfigCrc = C;
  K.Valid = true;

  CacheKey_ = K;
  CachePath_ = K.pathIn(Cfg.persistentCache());

  dbt::CodeCache::Image Img;
  switch (dbt::CodeCacheIo::load(CachePath_, K, Img)) {
  case dbt::CacheLoad::Hit:
    ++Engine_->codeCache().Stats.CacheFileHits;
    RDBT_TRACE(Sink_.get(), obs::EventKind::CacheFileLoad, /*outcome=*/0);
    Engine_->setTranslationStore(std::make_shared<const dbt::TranslationStore>(
        std::make_shared<const dbt::CodeCache::Image>(std::move(Img))));
    break;
  case dbt::CacheLoad::Rejected:
    // Corrupt, truncated, or stale-keyed file: a clean cold start.
    ++Engine_->codeCache().Stats.CacheFileMisses;
    RDBT_TRACE(Sink_.get(), obs::EventKind::CacheFileLoad, /*outcome=*/1);
    break;
  case dbt::CacheLoad::Absent:
    // No file is simply a first run — counted nowhere, so a cold run
    // with a cache dir reports exactly like a run without one.
    RDBT_TRACE(Sink_.get(), obs::EventKind::CacheFileLoad, /*outcome=*/2);
    break;
  }

  // Arm the engine's retain-for-save set: the exit save serializes every
  // block the session ever inserted, not just the ones still live, so
  // blocks the boot-time flush discarded still reach the file and the
  // next boot translates nothing at all.
  if (Cfg.persistentCacheSaveOnExit())
    Engine_->setRetainForSave(true);
}

Vm::~Vm() {
  // Auto-save policy: persist this session's translations if persistence
  // is on, this session translated anything beyond what the store seeded
  // (a pure-warm run would rewrite identical content), and it is not a
  // warm fork (the captured session owns the file).
  if (CacheKey_.Valid && Engine_ && !AdoptedWarm_ &&
      Cfg.persistentCacheSaveOnExit() && Engine_->Stats.Translations > 0 &&
      !Engine_->retainedForSave().empty()) {
    // Serialize the retained set (every block inserted this session,
    // whether still live or flushed since) as a synthetic Image of
    // (block, key) entries, all the writer reads; the std::map ordering
    // makes the file bytes deterministic.
    dbt::CodeCache::Image Img;
    for (const auto &[Key, Block] : Engine_->retainedForSave()) {
      dbt::CodeCache::Entry &E = Img.Entries.emplace_back();
      E.Block = Block;
      E.Key = Key;
    }
    RDBT_TRACE(Sink_.get(), obs::EventKind::CacheFileSave,
               Img.Entries.size());
    dbt::CodeCacheIo::save(CachePath_, Img, CacheKey_);
  }
  // The timeline outlives the session only as its JSON file; written
  // last, so it covers the cache-file save above.
  if (Sink_)
    Sink_->write(Cfg.trace(), Cfg.toSpec());
}

RunReport Vm::run() { return run(Cfg.wallBudget()); }

RunReport Vm::run(uint64_t WallBudget) {
  RunReport R;
  R.Spec = Cfg.toSpec();
  if (Kind_) {
    R.Label = Kind_->Label;
    R.MetricKey = Kind_->MetricKey;
  }
  R.Forked = Forked_;
  if (!valid()) {
    R.Error = Error_;
    R.Time = Time_;
    return R;
  }

  const uint64_t T0 = nowNs();
  if (!Kind_->UsesEngine) {
    const sys::SystemRunResult Res = sys::runSystemInterpreter(
        *Board_, WallBudget, Cfg.interpFastpath(),
        Metrics_ ? &Metrics_->histogram(obs::metric::DecodeNs) : nullptr);
    R.Stop = Res.Shutdown ? dbt::StopReason::GuestShutdown
             : Res.Deadlocked ? dbt::StopReason::Deadlock
                              : dbt::StopReason::WallLimit;
    // Native execution: one cycle per guest instruction. Accumulate
    // across resumed runs to match the engine path's counter semantics.
    // (The decode cache itself is per-call — each run() slice rebuilds it
    // — but the hit/miss totals accumulate like the instruction count.)
    NativeInstrs_ += Res.InstrsRetired;
    NativeDecodeHits_ += Res.DecodeHits;
    NativeDecodeMisses_ += Res.DecodeMisses;
    R.Counters.Wall = NativeInstrs_;
    R.Counters.GuestInstrs = NativeInstrs_;
    R.InterpDecodeHits = NativeDecodeHits_;
    R.InterpDecodeMisses = NativeDecodeMisses_;
  } else {
    R.Stop = Engine_->run(WallBudget);
    R.Counters = Engine_->counters();
    R.InterpDecodeHits = Engine_->interp().DecodeHits;
    R.InterpDecodeMisses = Engine_->interp().DecodeMisses;
    R.Engine = Engine_->Stats;
    R.Cache = Engine_->codeCache().Stats;
    R.Cache.LiveTbs = Engine_->codeCache().size();
    if (const auto *Rule = dynamic_cast<core::RuleTranslator *>(Xlat_.get())) {
      R.RuleCoveredInstrs = Rule->RuleCoveredInstrs;
      R.FallbackInstrs = Rule->FallbackInstrs;
      // Matcher counters come from the session's own translator, so a
      // RuleSet shared across sessions (even concurrently) reports exact
      // per-session counts; resumed runs stay cumulative for free.
      R.RuleMatchAttempts = Rule->Matches.Attempts;
      R.RuleMatchHits = Rule->Matches.Hits;
      if (const profile::GapMiner *Miner = Rule->gapMiner()) {
        R.Profile.GapSeqs = Miner->distinctGaps();
        R.Profile.GapTranslations = Miner->missObservations();
        R.Profile.GapExecs = Miner->gapExecutions();
      }
    }
  }
  Time_.RunNs += nowNs() - T0;
  R.Ok = R.Stop == dbt::StopReason::GuestShutdown;
  R.Console = Board_->uart().output();
  R.Time = Time_;
  if (Sink_) {
    R.Obs.Enabled = true;
    R.Obs.Events = Sink_->size();
    R.Obs.Dropped = Sink_->dropped();
    R.Obs.Metrics = *Metrics_;
  }
  R.CowPrivatePages = Board_->Ram.cowPrivatePages();
  sys::materializeFlags(Board_->Env);
  for (int I = 0; I < 16; ++I)
    R.Final.Regs[I] = Board_->Env.Regs[I];
  R.Final.Nzcv = sys::packFlags(Board_->Env);
  R.Final.ShutdownRequested = Board_->ShutdownRequested;
  return R;
}

RunReport Vm::runToBootMark(uint64_t SliceCycles) {
  if (!SliceCycles)
    SliceCycles = 20000;
  const uint64_t RunNsBefore = Time_.RunNs;
  uint64_t Spent = 0;
  RunReport R;
  do {
    R = run(SliceCycles);
    Spent += SliceCycles;
  } while (valid() && R.Stop == dbt::StopReason::WallLimit &&
           Board_->Env.Mode != sys::ModeUsr && Spent < Cfg.wallBudget());
  // Boot time is setup cost, not serving cost: move this call's wall
  // time from the run accumulator to the boot accumulator.
  Time_.BootNs += Time_.RunNs - RunNsBefore;
  Time_.RunNs = RunNsBefore;
  R.Time = Time_;
  return R;
}

Snapshot Vm::capture() {
  Snapshot S;
  if (!valid())
    return S;
  RDBT_TRACE(Sink_.get(), obs::EventKind::SnapshotCapture,
             Engine_ ? Engine_->codeCache().size() : 0);
  S.Cfg_ = Cfg;
  // Scrub per-session attachments: a fork stamped from S.config() must
  // not inherit another session's gap miner, external rule pointer, or
  // snapshot chain (the corpus travels in S.Rules_ instead). The trace
  // path is scrubbed too — a sink belongs to exactly one session, so a
  // fork must opt into its own timeline at its own path.
  S.Cfg_.snapshot(nullptr).gapMiner(nullptr).rules(nullptr).trace("");

  S.Env_ = Board_->Env;
  Board_->captureState(S.Board_);
  S.Ram_ = Board_->Ram.snapshotBytes();

  if (Kind_->UsesEngine) {
    S.HasRun_ = Engine_->counters().Wall != 0;
    S.Counters_ = Engine_->counters();
    S.Engine_ = Engine_->Stats;
    S.MmuHits_ = Engine_->mmu().Hits;
    S.MmuMisses_ = Engine_->mmu().Misses;
    S.Cache_ = Engine_->codeCache().capture();
    S.Store_ = Engine_->translationStore();
    if (const auto *Rule =
            dynamic_cast<const core::RuleTranslator *>(Xlat_.get())) {
      S.RuleCoveredInstrs_ = Rule->RuleCoveredInstrs;
      S.FallbackInstrs_ = Rule->FallbackInstrs;
      S.ScheduledDefUseMoves_ = Rule->ScheduledDefUseMoves;
      S.ScheduledIrqChecks_ = Rule->ScheduledIrqChecks;
      S.Matches_ = Rule->Matches;
    }
  } else {
    S.HasRun_ = NativeInstrs_ != 0;
    S.NativeInstrs_ = NativeInstrs_;
  }

  if (Kind_->NeedsRules) {
    if (Cfg.rules())
      // External caller-owned set: copy it so the snapshot stays
      // self-contained (sets are small relative to RAM images).
      S.Rules_ = std::make_shared<const rules::RuleSet>(*Cfg.rules());
    else
      S.Rules_ = OwnedRules_;
  }
  return S;
}

std::unique_ptr<Vm> Vm::forkFrom(const Snapshot &S) {
  VmConfig C = S.config();
  C.snapshot(&S);
  return std::make_unique<Vm>(std::move(C));
}

std::vector<Vm::HotBlock> Vm::hotBlocks(size_t N) {
  std::vector<HotBlock> Out;
  if (!valid() || !Engine_ || N == 0)
    return Out;
  const std::vector<uint64_t> &Execs = Engine_->tbExecCounts();
  dbt::CodeCache &Cache = Engine_->codeCache();
  const uint64_t TotalGuest = Engine_->counters().GuestInstrs;

  for (size_t Id = 0; Id < Execs.size(); ++Id) {
    if (!Execs[Id])
      continue;
    // Blocks invalidated since they last ran have no code left to
    // attribute; skip them rather than report half a profile line.
    const host::HostBlock *B = Cache.block(static_cast<int>(Id));
    if (!B)
      continue;
    HotBlock H;
    H.TbId = static_cast<int>(Id);
    H.GuestPc = B->GuestPc;
    H.Execs = Execs[Id];
    H.NumGuestInstrs = B->NumGuestInstrs;
    if (TotalGuest)
      H.ExecShare = static_cast<double>(H.Execs) * H.NumGuestInstrs /
                    static_cast<double>(TotalGuest);
    // Rule-coverage attribution straight from the host code: every
    // emulate-helper call is one guest instruction the translator left
    // to the interpreter; the rest were translated inline.
    uint32_t Emulated = 0;
    for (const host::HInst &HI : B->Code)
      if (HI.Op == host::HOp::CallHelper && HI.Helper == dbt::HelperEmulate)
        ++Emulated;
    H.EmulatedInstrs = std::min(Emulated, H.NumGuestInstrs);
    H.CoveredInstrs = H.NumGuestInstrs - H.EmulatedInstrs;
    std::ostringstream GD;
    for (size_t I = 0; I < B->GuestWords.size(); ++I) {
      const uint32_t Pc = B->GuestPc + static_cast<uint32_t>(I) * 4;
      GD << "  " << std::hex << Pc << std::dec << ": "
         << arm::disassemble(arm::decode(B->GuestWords[I]), Pc) << "\n";
    }
    H.GuestDisasm = GD.str();
    H.HostDisasm = host::disassembleBlock(*B, &Cache.links(H.TbId));
    Out.push_back(std::move(H));
  }

  std::sort(Out.begin(), Out.end(), [](const HotBlock &A, const HotBlock &B) {
    return A.Execs != B.Execs ? A.Execs > B.Execs : A.TbId < B.TbId;
  });
  if (Out.size() > N)
    Out.resize(N);
  return Out;
}
