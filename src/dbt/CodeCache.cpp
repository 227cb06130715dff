//===- dbt/CodeCache.cpp - Translated code cache ---------------------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//

#include "dbt/CodeCache.h"

#include "obs/Trace.h"

#include <algorithm>
#include <cassert>

using namespace rdbt;
using namespace rdbt::dbt;

int CodeCache::find(uint32_t Pc, uint32_t MmuIdx, uint32_t Asid) const {
  const auto It = Index.find(key(Pc, MmuIdx, Asid));
  return It == Index.end() ? -1 : It->second;
}

int CodeCache::insert(std::shared_ptr<const host::HostBlock> Block,
                      uint32_t MmuIdx, uint32_t Asid) {
  const host::HostBlock &B = *Block;
  const int Id = BaseId + static_cast<int>(Entries.size());
  const uint64_t K = key(B.GuestPc, MmuIdx, Asid & 0xFFu);
  assert(Index.find(K) == Index.end() && "key already translated");

  if (!SeenKeys.insert(K).second) {
    ++Stats.Retranslations;
    Stats.RetranslatedGuestInstrs += B.NumGuestInstrs;
  }

  // A block's code may straddle into the next page; index every page it
  // covers so invalidatePage() finds it from either side.
  const uint32_t FirstPage = B.GuestPc >> 12;
  const uint32_t LastPage =
      (B.GuestPc + (B.NumGuestInstrs ? B.NumGuestInstrs * 4 - 1 : 0)) >> 12;
  for (uint32_t P = FirstPage; P <= LastPage; ++P)
    PageIndex[P].push_back(Id);
  AsidIndex[Asid & 0xFFu].push_back(Id);
  Index[K] = Id;
  Entry E;
  E.Block = std::move(Block);
  E.Key = K;
  E.Asid = Asid & 0xFFu;
  Entries.push_back(std::move(E));
  ++LiveBlocks;
  return Id;
}

void CodeCache::invalidateOne(int TbId) {
  Entry *E = entry(TbId);
  assert(E && E->Block && "invalidating a dead id");

  // Unlink every incoming chain that still targets this block, reverting
  // its flag-save elision: the predecessor's exit now re-enters the
  // emulator, which needs the flags in env.
  uint64_t Unlinked = 0;
  for (const auto &[FromId, Slot] : E->Incoming) {
    Entry *F = entry(FromId);
    if (!F || !F->Block)
      continue; // predecessor died first; edge is stale
    host::ChainLinks &L = F->Links;
    if (L.Target[Slot] != TbId)
      continue; // slot was re-pointed after a previous unlink
    L.Target[Slot] = -1;
    ++Stats.ChainsUnlinked;
    ++Unlinked;
    if (L.Elided[Slot]) {
      L.Elided[Slot] = false;
      ++Stats.ElisionsReverted;
    }
  }
  E->Incoming.clear();
  if (Unlinked)
    RDBT_TRACE(Sink_, obs::EventKind::ChainUnlink, TbId, Unlinked);

  Index.erase(E->Key);
  E->Block.reset();
  --LiveBlocks;
  ++Stats.TbsInvalidated;
}

void CodeCache::flush() {
  RDBT_TRACE(Sink_, obs::EventKind::CacheInvalidate, /*scope=*/0, 0,
             LiveBlocks);
  Stats.TbsInvalidated += LiveBlocks;
  BaseId += static_cast<int>(Entries.size());
  Entries.clear();
  Index.clear();
  PageIndex.clear();
  AsidIndex.clear();
  LiveBlocks = 0;
  ++Stats.Flushes;
}

void CodeCache::invalidateAsid(uint32_t Asid) {
  ++Stats.AsidInvalidations;
  const size_t Before = LiveBlocks;
  const auto It = AsidIndex.find(Asid & 0xFFu);
  if (It != AsidIndex.end()) {
    for (const int Id : It->second) {
      const Entry *E = entry(Id);
      if (E && E->Block)
        invalidateOne(Id);
    }
    AsidIndex.erase(It);
  }
  RDBT_TRACE(Sink_, obs::EventKind::CacheInvalidate, /*scope=*/1,
             Asid & 0xFFu, Before - LiveBlocks);
  Stats.TbsRetained += LiveBlocks;
}

void CodeCache::invalidatePage(uint32_t PageVa) {
  ++Stats.PageInvalidations;
  const size_t Before = LiveBlocks;
  const uint32_t Page = PageVa >> 12;
  const auto It = PageIndex.find(Page);
  if (It != PageIndex.end()) {
    for (const int Id : It->second) {
      const Entry *E = entry(Id);
      if (E && E->Block)
        invalidateOne(Id);
    }
    PageIndex.erase(It);
    // Blocks straddling out of this page keep stale ids in the
    // neighbouring pages' lists; prune them lazily when those lists are
    // next walked (the dead-entry check above).
  }
  RDBT_TRACE(Sink_, obs::EventKind::CacheInvalidate, /*scope=*/2, Page,
             Before - LiveBlocks);
  Stats.TbsRetained += LiveBlocks;
}

bool CodeCache::chain(int FromTb, int Slot, int ToTb, bool ElideFlagSave) {
  Entry *From = entry(FromTb);
  Entry *To = entry(ToTb);
  // Either id may have gone stale between the exit that requested the
  // chain and this link (a translation-triggered or partial
  // invalidation); refuse rather than link through a dead id. The slot
  // comes from the exiting block's code, so it is range-checked too.
  if (Slot < 0 || Slot > 1 || !From || !From->Block || !To || !To->Block ||
      From->Links.Target[Slot] >= 0) {
    ++Stats.StaleChainRequests;
    return false;
  }

  From->Links.Target[Slot] = ToTb;
  To->Incoming.emplace_back(FromTb, Slot);
  ++Stats.ChainsMade;
  const host::HostBlock::Chain &Ch = From->Block->Chains[Slot];
  const bool Elided = ElideFlagSave && Ch.FlagSaveBegin >= 0;
  RDBT_TRACE(Sink_, obs::EventKind::ChainPatch, FromTb, ToTb, Elided);
  if (!Elided)
    return true;
  From->Links.Elided[Slot] = true;
  ++Stats.ChainsWithElision;
  Stats.ElidedSyncInstrs += Ch.FlagSaveEnd - Ch.FlagSaveBegin;
  return true;
}

const host::HostBlock *CodeCache::block(int TbId) const {
  const Entry *E = entry(TbId);
  return E ? E->Block.get() : nullptr;
}

std::shared_ptr<const CodeCache::Image> CodeCache::capture() const {
  // Blocks shared, link table copied.
  return std::make_shared<Image>(static_cast<const Image &>(*this));
}

void CodeCache::adopt(const Image &Img) {
  assert(Entries.empty() && BaseId == 0 && LiveBlocks == 0 &&
         "adopt() targets a freshly constructed cache");
  static_cast<Image &>(*this) = Img; // shares blocks, copies links
  Stats.AdoptedTbs += LiveBlocks;
}
