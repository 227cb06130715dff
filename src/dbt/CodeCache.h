//===- dbt/CodeCache.h - Translated code cache ------------------*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The translated-code cache: immutable host blocks keyed by (guest PC,
/// MMU index, ASID), plus a per-cache link table that records block
/// chaining and the chain-time inter-TB flag-save elision of §III-C.
///
/// Three structural properties carry the ASID-aware invalidation design
/// (see DESIGN.md §7):
///
///  * **Selective invalidation.** Besides the full flush, blocks can be
///    dropped per ASID (invalidateAsid) or per guest page
///    (invalidatePage), driven by the structured requests the interpreter
///    raises for SCTLR toggles and TLB-maintenance ops. A per-page and a
///    per-ASID index make both operations proportional to the number of
///    affected blocks, not the cache size.
///
///  * **Chain unlinking.** Every chain edge is recorded in the target's
///    reverse-edge list. Invalidating a block resets each incoming chain
///    slot to the unresolved state and clears its elided bit, so
///    surviving predecessors save their flags again and fall back to the
///    translate-and-chain path instead of jumping into freed code.
///
///  * **Stable, never-reused TB ids.** Ids are monotonically increasing
///    across the cache's whole lifetime (a full flush retires the id range
///    instead of restarting it), so a stale id held by the engine across
///    an invalidation can never alias a newer block: block() simply
///    returns nullptr and chain() refuses to link.
///
/// Translated code is never rewritten: chain() and invalidation only flip
/// fields of the link table, so a block is shared as-is by a snapshot
/// image, every fork of it, the persistent-cache save set and store.
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_DBT_CODECACHE_H
#define RDBT_DBT_CODECACHE_H

#include "host/HostMachine.h"
#include "obs/TraceSink.h"

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace rdbt {
namespace dbt {

/// Counter snapshot of the cache's lifetime behavior (surfaced through
/// vm::RunReport and the bench JSON).
struct CacheStats {
  uint64_t Flushes = 0;            ///< full flushes
  uint64_t AsidInvalidations = 0;  ///< invalidateAsid() calls
  uint64_t PageInvalidations = 0;  ///< invalidatePage() calls
  uint64_t TbsInvalidated = 0;     ///< blocks dropped (all scopes)
  uint64_t TbsRetained = 0;        ///< blocks surviving selective drops
  uint64_t Retranslations = 0;     ///< inserts whose key was cached before
  uint64_t RetranslatedGuestInstrs = 0; ///< guest instrs behind those
  uint64_t ChainsMade = 0;
  uint64_t ChainsWithElision = 0;
  uint64_t ChainsUnlinked = 0;      ///< chain slots reset by invalidation
  uint64_t ElisionsReverted = 0;    ///< elisions undone by unlinking
  uint64_t StaleChainRequests = 0;  ///< chain() calls refused (stale ids)
  uint64_t ElidedSyncInstrs = 0;    ///< §III-C: sync instrs elided
  /// Snapshot/fork accounting (vm/Snapshot.h). AdoptedTbs counts blocks
  /// inherited ready-translated from a snapshot image via adopt().
  /// CowBlockCopies is always 0: blocks are immutable, so a fork never
  /// copies one. Kept only because benchmark reports still read it.
  uint64_t AdoptedTbs = 0;
  uint64_t CowBlockCopies = 0;
  /// Persistent-cache accounting (dbt/CodeCacheIo.h). CacheFileHits
  /// counts cache files loaded and validated at boot; CacheFileMisses
  /// counts files that were *present* but rejected (corrupt, truncated,
  /// wrong version, stale key) — an absent file counts neither, so a
  /// cold run with a cache dir reports exactly like a run without one.
  /// LoadedTbs counts blocks seeded from the loaded store instead of
  /// being translated (the warm-boot savings, mirror of
  /// EngineStats::Translations).
  uint64_t CacheFileHits = 0;
  uint64_t CacheFileMisses = 0;
  uint64_t LoadedTbs = 0;
  /// Live blocks at report time — a snapshot, not a counter; filled by
  /// the report producer (vm::Vm) from CodeCache::size(). The direct
  /// retention signal: under the blanket policy it collapses to the last
  /// timeslice's working set, under selective invalidation it holds the
  /// union of every ASID's code.
  uint64_t LiveTbs = 0;
};

/// One slot in a code cache's id space: an immutable block plus the
/// cache's link state for it. Block is null once invalidated; the
/// metadata stays so reverse edges can be validated lazily.
struct CacheEntry {
  std::shared_ptr<const host::HostBlock> Block;
  host::ChainLinks Links; ///< chain targets and elided flag-saves
  uint64_t Key = 0;
  uint32_t Asid = 0;
  /// Reverse chain edges: (fromTbId, slot) pairs that chained a direct
  /// jump to this block. Entries may be stale (the predecessor died or
  /// re-chained); unlinking validates each one against the live link.
  std::vector<std::pair<int, int>> Incoming;
};

/// The whole state of a code cache — entries (blocks shared, link state
/// copied), id space, lookup indices, retranslation memory, and stats.
/// CodeCache::capture() freezes one and adopt() re-installs it into a
/// forked cache; holders only ever pass it around as shared_ptr<const
/// CacheImage>. Public so dbt/CodeCacheIo.h can serialize and rebuild
/// images without friending every IO class.
struct CacheImage {
  std::vector<CacheEntry> Entries; ///< index = id - BaseId
  int BaseId = 0;                  ///< ids retired by full flushes
  size_t LiveBlocks = 0;
  std::unordered_map<uint64_t, int> Index;
  /// Page number -> ids of live blocks overlapping that page (pruned
  /// lazily on the next invalidation touching the page).
  std::unordered_map<uint32_t, std::vector<int>> PageIndex;
  /// ASID -> ids of live blocks translated under it.
  std::unordered_map<uint32_t, std::vector<int>> AsidIndex;
  /// Every key ever inserted, for retranslation accounting. Survives
  /// flushes deliberately: translating a key again after any flavor of
  /// invalidation is the retranslation cost the ASID design removes.
  std::unordered_set<uint64_t> SeenKeys;
  CacheStats Stats;
};

/// The cache keeps its state as a private CacheImage, so capture() and
/// adopt() copy that state whole.
class CodeCache : public host::CodeSource, private CacheImage {
public:
  using Entry = CacheEntry;
  using Image = CacheImage;
  using CacheImage::Stats;

  /// Returns the TB id for (Pc, MmuIdx, Asid) or -1.
  int find(uint32_t Pc, uint32_t MmuIdx, uint32_t Asid) const;

  /// Inserts a translated block, unchained, and returns its TB id. Ids
  /// are never reused, even across flushes.
  int insert(std::shared_ptr<const host::HostBlock> Block, uint32_t MmuIdx,
             uint32_t Asid);

  /// Drops every translation (MMU regime changes, TLBIALL).
  void flush();

  /// Drops every translation belonging to \p Asid (TLBIASID), unlinking
  /// incoming chains from surviving blocks.
  void invalidateAsid(uint32_t Asid);

  /// Drops every translation overlapping the page of \p PageVa, across
  /// all ASIDs (TLBIMVA).
  void invalidatePage(uint32_t PageVa);

  /// Chains \p FromTb's \p Slot to \p ToTb. If \p ElideFlagSave, the
  /// flag-save range belonging to that exit is marked elided in the link
  /// table (inter-TB optimization); its instructions are tallied in
  /// Stats.ElidedSyncInstrs. Returns false — counting a stale-chain
  /// request — when either id no longer names a live block, the slot is
  /// out of range, or the slot is already chained, so callers holding
  /// ids across a partial invalidation can never corrupt an unrelated
  /// block.
  bool chain(int FromTb, int Slot, int ToTb, bool ElideFlagSave);

  const host::HostBlock *block(int TbId) const override;
  const host::ChainLinks &links(int TbId) const override {
    return entry(TbId)->Links;
  }

  /// Freezes the cache into an immutable Image. Blocks are shared and
  /// only the link table is copied, so a capture is O(metadata) and stays
  /// pristine however the captured session keeps running.
  std::shared_ptr<const Image> capture() const;

  /// Replaces this cache's contents with \p Img (fork construction). The
  /// shared blocks arrive ready to execute and chained exactly as at
  /// capture time; SeenKeys comes along, so Stats.Retranslations keeps
  /// proving forks do not re-pay translation. Call only on a fresh cache.
  void adopt(const Image &Img);

  /// Number of live (translated, not invalidated) blocks.
  size_t size() const { return LiveBlocks; }

  /// Attaches the session's trace sink (null detaches). The cache only
  /// records events through it — chain patches/unlinks, invalidations —
  /// and never reads it, so an unattached cache behaves identically.
  void setTraceSink(obs::TraceSink *S) { Sink_ = S; }

  /// The canonical lookup key: one u64 per (PC, MMU index, ASID) triple.
  /// Public so the persistent-cache store (dbt/CodeCacheIo.h) keys its
  /// lookups identically instead of maintaining a parallel encoding.
  static uint64_t key(uint32_t Pc, uint32_t MmuIdx, uint32_t Asid) {
    return static_cast<uint64_t>(Pc) |
           (static_cast<uint64_t>(MmuIdx & 1u) << 32) |
           (static_cast<uint64_t>(Asid & 0xFFu) << 33);
  }

private:
  Entry *entry(int TbId) {
    if (TbId < BaseId)
      return nullptr;
    const size_t Idx = static_cast<size_t>(TbId - BaseId);
    return Idx < Entries.size() ? &Entries[Idx] : nullptr;
  }
  const Entry *entry(int TbId) const {
    return const_cast<CodeCache *>(this)->entry(TbId);
  }

  /// Unlinks incoming chains and drops the block. The caller maintains
  /// the secondary indices.
  void invalidateOne(int TbId);

  obs::TraceSink *Sink_ = nullptr; ///< owned by vm::Vm; null when untraced
};

} // namespace dbt
} // namespace rdbt

#endif // RDBT_DBT_CODECACHE_H
