//===- dbt/CodeCacheIo.h - Persistent translation cache ---------*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Disk persistence for translated code (DESIGN.md §12): a warm boot
/// loads the previous session's host blocks instead of retranslating
/// them. Three pieces:
///
///  * **CacheKey** — the identity a cache file is valid for: a crc32c of
///    the guest image bytes plus a crc32c over everything that changes
///    what the translator would emit (translator kind, optimization
///    switches, rule corpus, env layout, host-ISA geometry). The key is
///    both the file name (libriscv's `/tmp/rvbintr-%08X` scheme) and an
///    echoed header field, so a stale file can never be mistaken for a
///    fresh one.
///
///  * **CodeCacheIo** — save/load of a `CodeCache::Image` (the same
///    frozen form `capture()`/`adopt()` exchange). Only the immutable
///    blocks are written — live ones, ids renumbered from 0; the link
///    table (chain targets, elided flag-saves, reverse edges) and stats
///    are per-cache state and never stored, so the on-disk form is
///    position-independent by construction. Loading validates strictly —
///    magic, version, key echo, payload checksum, per-field bounds on
///    every instruction, and the block structure the host machine relies
///    on — and any mismatch is a clean cache-miss, never UB.
///
///  * **TranslationStore** — the read-only lookup the engine consults on
///    a translation miss. Deliberately lazy (not an eager `adopt()`):
///    the kernel's boot-time SCTLR toggle full-flushes the cache, which
///    would wipe an eagerly adopted image before the workload runs. A
///    store survives any number of flushes and re-seeds blocks on the
///    next miss. Each hit is validated against the *current* guest words
///    at that address, so self-modifying or remapped code falls through
///    to a fresh translation instead of executing a stale block. A hit
///    hands out the stored block itself; nothing is copied.
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_DBT_CODECACHEIO_H
#define RDBT_DBT_CODECACHEIO_H

#include "dbt/CodeCache.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace rdbt {
namespace dbt {

/// CRC-32C (Castagnoli, the checksum libriscv keys its translation cache
/// with). Chainable: pass the previous result as \p Seed.
uint32_t crc32c(const void *Data, size_t Len, uint32_t Seed = 0);

/// Convenience: fold a little-endian u32 into a running crc32c.
uint32_t crc32cWord(uint32_t Word, uint32_t Seed);

/// The identity a persistent cache file is valid for.
struct CacheKey {
  uint32_t ImageCrc = 0;  ///< crc32c of the guest RAM image at boot
  uint32_t ConfigCrc = 0; ///< translator kind + opts + rules + layout
  bool Valid = false;     ///< false: keying failed, never save/load

  /// "rdbt-tc-<imagecrc>-<configcrc>.bin"
  std::string fileName() const;
  /// Dir + "/" + fileName().
  std::string pathIn(const std::string &Dir) const;
};

/// Outcome of CodeCacheIo::load.
enum class CacheLoad {
  Hit,      ///< file present, validated, image populated
  Absent,   ///< no file at that path (a cold start, not a failure)
  Rejected, ///< file present but invalid/stale — treat as cold start
};

class CodeCacheIo {
public:
  /// Bump on any change to the record layout; a version mismatch is a
  /// clean miss.
  static constexpr uint32_t FormatVersion = 1;

  /// Serializes \p Img to \p Path (atomically: temp file + rename, so a
  /// concurrent reader sees either the old file or the complete new
  /// one). Only each entry's Block and Key are read. Blocks without
  /// recorded guest words are skipped — they could never be validated at
  /// load time. Returns false with \p Err set on I/O failure.
  static bool save(const std::string &Path, const CodeCache::Image &Img,
                   const CacheKey &Key, std::string *Err = nullptr);

  /// Loads and validates \p Path against \p Key. On Hit, \p Out is a
  /// normalized image (BaseId 0, ids dense, nothing chained, stats
  /// zeroed) suitable for adopt() or a TranslationStore. On Rejected,
  /// \p Err (if given) describes the first failed check.
  static CacheLoad load(const std::string &Path, const CacheKey &Key,
                        CodeCache::Image &Out, std::string *Err = nullptr);
};

/// Read-only block store the engine probes on translation misses (see
/// DbtEngine::setTranslationStore). Immutable and self-contained, so one
/// store is safely shared by a snapshot and every fork of it.
class TranslationStore {
public:
  explicit TranslationStore(std::shared_ptr<const CodeCache::Image> Img)
      : Img_(std::move(Img)) {}

  /// The stored block for (Pc, MmuIdx, Asid) if its recorded guest words
  /// equal \p Words, else null.
  std::shared_ptr<const host::HostBlock>
  lookup(uint32_t Pc, uint32_t MmuIdx, uint32_t Asid,
         const std::vector<uint32_t> &Words) const;

  /// Value form of lookup(): copies a hit into \p Out.
  bool lookup(uint32_t Pc, uint32_t MmuIdx, uint32_t Asid,
              const std::vector<uint32_t> &Words,
              host::HostBlock &Out) const {
    const auto Block = lookup(Pc, MmuIdx, Asid, Words);
    if (Block)
      Out = *Block;
    return Block != nullptr;
  }

  /// Number of blocks available for seeding.
  size_t blocks() const { return Img_ ? Img_->LiveBlocks : 0; }

private:
  std::shared_ptr<const CodeCache::Image> Img_;
};

} // namespace dbt
} // namespace rdbt

#endif // RDBT_DBT_CODECACHEIO_H
