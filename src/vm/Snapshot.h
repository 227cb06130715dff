//===- vm/Snapshot.h - Frozen Vm session state for COW forking --*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Snapshot freezes one Vm session at a chosen point — after
/// construction (pre-run, kind-independent) or after executing guest
/// code (warm: post-boot, post-warmup) — into a set of immutable,
/// reference-counted images that any number of forked sessions can adopt
/// concurrently:
///
///  * **Guest RAM** as a shared byte image. Forks run behind the
///    PhysMem copy-on-write page table: reads hit the shared image, the
///    first write to a 4 KiB page privatizes just that page, and the
///    base image is never mutated (sys/Platform.h).
///
///  * **CPU env + device state** (CpuEnv, sys::PlatformState) by value —
///    registers, TLB, interrupt lines, timer/disk deadlines, the wall
///    clock. The disk media rides the same clone-if-shared protocol as
///    RAM pages.
///
///  * **The warmed code cache** as a dbt::CodeCache::Image: translated
///    blocks are immutable and shared; each fork gets its own copy of
///    the link table, so its chaining and invalidation never touch a
///    block. SeenKeys comes along, so CacheStats::Retranslations keeps
///    proving forks re-pay no translation work (see AdoptedTbs).
///
///  * **The rule corpus** as a shared_ptr<const RuleSet>: matching is
///    const and per-session counters live in the translator, so one
///    corpus serves every fork without copies or locks.
///
/// Because every shared piece is held by refcount, a Snapshot is
/// self-contained: it stays valid after the captured Vm dies, and a
/// forked Vm stays valid after the Snapshot dies.
///
/// The correctness contract is bitwise transparency: a forked session's
/// RunReport::Final and execution counters are identical to a fresh
/// session that ran straight through, because Vm::run() is
/// resume-transparent (budgets are relative, deadlines are recomputed on
/// entry) and every piece of mutable state is either restored exactly or
/// isolated behind COW. SnapshotTest holds this for every translator
/// kind.
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_VM_SNAPSHOT_H
#define RDBT_VM_SNAPSHOT_H

#include "dbt/CodeCache.h"
#include "dbt/Engine.h"
#include "host/HostMachine.h"
#include "rules/RuleSet.h"
#include "sys/Env.h"
#include "sys/Platform.h"
#include "vm/VmConfig.h"

#include <memory>
#include <string>
#include <vector>

namespace rdbt {
namespace dbt {
class TranslationStore;
}
namespace vm {

class Snapshot {
public:
  /// Default-constructed snapshots are empty; forkError() rejects them.
  Snapshot() = default;

  /// The captured session's configuration, scrubbed of per-session
  /// attachments (gap miner, external rule pointer, snapshot chain).
  /// Vm::forkFrom() stamps forks straight from this.
  const VmConfig &config() const { return Cfg_; }

  /// The captured session's translator kind string.
  const std::string &translator() const { return Cfg_.translator(); }

  /// True when guest instructions were executed before capture() — a
  /// *warm* snapshot. Warm snapshots carry executor progress (counters,
  /// warmed code cache), so they can only seed forks of the same
  /// translator kind and optimization switches. Pre-run snapshots carry
  /// none and are kind-independent: any translator may fork from one
  /// (the scenario matrix shares one board image across all kinds).
  bool hasRun() const { return HasRun_; }

  bool empty() const { return Ram_ == nullptr; }
  uint32_t ramBytes() const {
    return Ram_ ? static_cast<uint32_t>(Ram_->size()) : 0;
  }
  const std::shared_ptr<const std::vector<uint8_t>> &ramImage() const {
    return Ram_;
  }
  /// Translated blocks the snapshot carries (0 for pre-run captures and
  /// non-engine kinds).
  size_t warmTbs() const { return Cache_ ? Cache_->LiveBlocks : 0; }

  /// Empty string when a fork configured by \p Cfg can adopt this
  /// snapshot, else the reason it cannot. The guest-software identity
  /// (workload, scale, RAM size, flat image) must always match — it is
  /// baked into the RAM image; executor identity (translator kind,
  /// optimization switches, invalidation policy) must additionally match
  /// for warm snapshots.
  std::string forkError(const VmConfig &Cfg) const;

private:
  friend class Vm;

  VmConfig Cfg_;
  bool HasRun_ = false;

  // Board state: CPU env by value, device/clock state by value with the
  // disk media shared, RAM as the COW base image.
  sys::CpuEnv Env_ = {};
  sys::PlatformState Board_;
  std::shared_ptr<const std::vector<uint8_t>> Ram_;

  // Executor progress (warm snapshots only). Engine kinds restore the
  // exact host counters, engine stats, MMU stats, and the warmed cache;
  // the native kind restores its instruction accumulator.
  host::ExecCounters Counters_ = {};
  dbt::EngineStats Engine_;
  uint64_t MmuHits_ = 0, MmuMisses_ = 0;
  uint64_t NativeInstrs_ = 0;
  std::shared_ptr<const dbt::CodeCache::Image> Cache_;
  /// The captured session's persistent-cache store (dbt/CodeCacheIo.h),
  /// null when persistence was off. Warm forks inherit it instead of
  /// re-loading the cache file, so a fork's provenance counters
  /// (CacheFileHits/Misses) stay bitwise equal to an unforked session's.
  std::shared_ptr<const dbt::TranslationStore> Store_;

  // Rule corpus (shared read-only across forks) and the captured
  // rule-translator session counters, restored so a fork's cumulative
  // report equals an unforked session's.
  std::shared_ptr<const rules::RuleSet> Rules_;
  uint64_t RuleCoveredInstrs_ = 0, FallbackInstrs_ = 0;
  uint64_t ScheduledDefUseMoves_ = 0, ScheduledIrqChecks_ = 0;
  rules::MatchStats Matches_;
};

} // namespace vm
} // namespace rdbt

#endif // RDBT_VM_SNAPSHOT_H
