//===- tests/CodeCacheIoTest.cpp - Persistent translation cache tests -------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// The contracts the persistent translation cache (dbt/CodeCacheIo.h,
/// DESIGN.md §12) rests on:
///
///  * **Warm-boot transparency**: a session booted against the cache
///    file a cold session saved translates *nothing* (every block seeds
///    from the file) yet finishes with identical console output, final
///    architectural state, and guest-visible execution counters — across
///    translator kinds.
///
///  * **Absent file counts nothing**: a cold run with a cache directory
///    reports exactly like a run without one; provenance appears only
///    when a file was actually loaded (CacheFileHits) or rejected
///    (CacheFileMisses).
///
///  * **Every bad file is a clean miss**: truncation, random bit flips,
///    a wrong format version, a wrong magic, or a stale key (file keyed
///    for different guest bytes or translator config) must make load()
///    return Rejected — never a Hit, never undefined behavior. The
///    corruption loop mirrors tools/rdbt_fuzz's seeded-LCG style and is
///    the surface the sanitizer CI job leans on.
///
///  * **Word validation**: a stored block only seeds when its recorded
///    guest words still equal guest memory, so self-modified or remapped
///    code can never execute stale host code.
///
///  * **Structure validation**: a file whose checksum is intact (the
///    writer recomputed it) but whose block breaks what the engine and
///    host machine rely on — a chain slot out of range, code that can
///    fall off its end, a flag-save range the elision skip cannot jump
///    over whole — is rejected too.
///
//===----------------------------------------------------------------------===//

#include "dbt/CodeCacheIo.h"
#include "host/HostEmitter.h"
#include "sys/Env.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <string>
#include <vector>

using namespace rdbt;

namespace {

/// The engine kinds the round-trip contract is proven for: the QEMU-like
/// baseline and two rule-translator presets (different emitted code, so
/// different serialized blocks).
std::vector<std::string> engineKinds() {
  return {"qemu", "rule:base", "rule:scheduling"};
}

/// A self-cleaning temp directory for cache files.
struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/rdbt-io-XXXXXX";
    Path = mkdtemp(Buf);
  }
  ~TempDir() {
    if (Path.empty())
      return;
    if (DIR *D = opendir(Path.c_str())) {
      while (dirent *E = readdir(D)) {
        const std::string Name = E->d_name;
        if (Name != "." && Name != "..")
          std::remove((Path + "/" + Name).c_str());
      }
      closedir(D);
    }
    std::remove(Path.c_str());
  }
};

vm::VmConfig cfgFor(const std::string &Kind) {
  return vm::VmConfig().translator(Kind).workload("libquantum").scale(1);
}

std::string readBytes(const std::string &Path) {
  std::ifstream IS(Path, std::ios::binary);
  std::string Out((std::istreambuf_iterator<char>(IS)),
                  std::istreambuf_iterator<char>());
  return Out;
}

void writeBytes(const std::string &Path, const std::string &Bytes) {
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  OS.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

/// Runs one session to completion; \p PathOut receives the session's
/// cache-file path (empty when persistence is off).
vm::RunReport runOnce(vm::VmConfig Cfg, std::string *PathOut = nullptr) {
  vm::Vm V(std::move(Cfg));
  EXPECT_TRUE(V.valid()) << V.error();
  const vm::RunReport R = V.run();
  if (PathOut)
    *PathOut = V.cacheFilePath();
  return R;
}

void expectSameGuestRun(const vm::RunReport &A, const vm::RunReport &B) {
  EXPECT_EQ(A.Console, B.Console);
  EXPECT_EQ(0, std::memcmp(&A.Counters, &B.Counters, sizeof(A.Counters)));
  for (int I = 0; I < 16; ++I)
    EXPECT_EQ(A.Final.Regs[I], B.Final.Regs[I]);
  EXPECT_EQ(A.Final.Nzcv, B.Final.Nzcv);
  EXPECT_EQ(A.Ok, B.Ok);
}

} // namespace

TEST(CodeCacheIo, WarmBootTranslatesNothingAcrossKinds) {
  for (const std::string &Kind : engineKinds()) {
    TempDir Dir;
    // Reference: no cache directory at all.
    const vm::RunReport Plain = runOnce(cfgFor(Kind));
    ASSERT_TRUE(Plain.Ok) << Kind;

    // Cold: directory set, file absent. Must report exactly like Plain —
    // including zero provenance counters.
    std::string Path;
    const vm::RunReport Cold =
        runOnce(cfgFor(Kind).persistentCache(Dir.Path), &Path);
    ASSERT_TRUE(Cold.Ok) << Kind;
    ASSERT_FALSE(Path.empty());
    expectSameGuestRun(Plain, Cold);
    EXPECT_EQ(0u, Cold.Cache.CacheFileHits);
    EXPECT_EQ(0u, Cold.Cache.CacheFileMisses);
    EXPECT_EQ(0u, Cold.Cache.LoadedTbs);
    EXPECT_GT(Cold.Engine.Translations, 0u);
    EXPECT_FALSE(readBytes(Path).empty()) << "cold exit must save " << Path;

    // Warm: every block seeds from the file; zero translation work, but
    // bitwise the same guest execution.
    const vm::RunReport Warm =
        runOnce(cfgFor(Kind).persistentCache(Dir.Path));
    ASSERT_TRUE(Warm.Ok) << Kind;
    expectSameGuestRun(Cold, Warm);
    EXPECT_EQ(1u, Warm.Cache.CacheFileHits) << Kind;
    EXPECT_EQ(0u, Warm.Cache.CacheFileMisses) << Kind;
    EXPECT_EQ(0u, Warm.Engine.Translations) << Kind;
    EXPECT_EQ(0u, Warm.Engine.TranslatedGuestInstrs) << Kind;
    EXPECT_EQ(Cold.Engine.Translations, Warm.Cache.LoadedTbs) << Kind;
  }
}

TEST(CodeCacheIo, PureWarmRunDoesNotRewriteTheFile) {
  TempDir Dir;
  std::string Path;
  ASSERT_TRUE(runOnce(cfgFor("qemu").persistentCache(Dir.Path), &Path).Ok);
  const std::string Before = readBytes(Path);
  ASSERT_FALSE(Before.empty());
  ASSERT_TRUE(runOnce(cfgFor("qemu").persistentCache(Dir.Path)).Ok);
  EXPECT_EQ(Before, readBytes(Path));
}

TEST(CodeCacheIo, SaveOnExitOffLeavesNoFile) {
  TempDir Dir;
  std::string Path;
  ASSERT_TRUE(runOnce(cfgFor("qemu")
                          .persistentCache(Dir.Path)
                          .persistentCacheSaveOnExit(false),
                      &Path)
                  .Ok);
  EXPECT_TRUE(readBytes(Path).empty());
}

TEST(CodeCacheIo, TruncatedFilesLoadAsMiss) {
  TempDir Dir;
  std::string Path;
  ASSERT_TRUE(runOnce(cfgFor("qemu").persistentCache(Dir.Path), &Path).Ok);
  const std::string Good = readBytes(Path);
  ASSERT_GT(Good.size(), 32u);

  vm::Vm Probe(cfgFor("qemu").persistentCache(Dir.Path));
  ASSERT_TRUE(Probe.valid());
  const dbt::CacheKey Key = Probe.cacheKey();
  ASSERT_TRUE(Key.Valid);

  const std::string Trunc = Dir.Path + "/trunc.bin";
  for (size_t Len = 0; Len < Good.size(); Len += 7) {
    writeBytes(Trunc, Good.substr(0, Len));
    dbt::CodeCache::Image Img;
    EXPECT_NE(dbt::CacheLoad::Hit, dbt::CodeCacheIo::load(Trunc, Key, Img))
        << "prefix of " << Len << " bytes must not load";
  }
  // One extra trailing byte is corruption too.
  writeBytes(Trunc, Good + '\0');
  dbt::CodeCache::Image Img;
  EXPECT_EQ(dbt::CacheLoad::Rejected,
            dbt::CodeCacheIo::load(Trunc, Key, Img));
}

TEST(CodeCacheIo, RandomBitFlipsLoadAsMiss) {
  TempDir Dir;
  std::string Path;
  ASSERT_TRUE(runOnce(cfgFor("rule:base").persistentCache(Dir.Path), &Path)
                  .Ok);
  const std::string Good = readBytes(Path);
  ASSERT_FALSE(Good.empty());

  vm::Vm Probe(cfgFor("rule:base").persistentCache(Dir.Path));
  ASSERT_TRUE(Probe.valid());
  const dbt::CacheKey Key = Probe.cacheKey();

  // Seeded LCG, same style as tools/rdbt_fuzz: deterministic corruption
  // corpus, one flipped bit per attempt. CRC32C catches every single-bit
  // error, so each must reject.
  uint64_t Rng = 0x9E3779B97F4A7C15ull;
  const auto Next = [&Rng] {
    Rng = Rng * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>(Rng >> 33);
  };
  const std::string Flipped = Dir.Path + "/flip.bin";
  for (int Attempt = 0; Attempt < 300; ++Attempt) {
    std::string Bad = Good;
    const size_t Byte = Next() % Bad.size();
    Bad[Byte] = static_cast<char>(Bad[Byte] ^ (1u << (Next() % 8)));
    writeBytes(Flipped, Bad);
    dbt::CodeCache::Image Img;
    EXPECT_EQ(dbt::CacheLoad::Rejected,
              dbt::CodeCacheIo::load(Flipped, Key, Img))
        << "bit flip in byte " << Byte << " must reject";
  }
}

TEST(CodeCacheIo, WrongVersionAndMagicReject) {
  TempDir Dir;
  std::string Path;
  ASSERT_TRUE(runOnce(cfgFor("qemu").persistentCache(Dir.Path), &Path).Ok);
  const std::string Good = readBytes(Path);
  vm::Vm Probe(cfgFor("qemu").persistentCache(Dir.Path));
  ASSERT_TRUE(Probe.valid());
  const dbt::CacheKey Key = Probe.cacheKey();

  // Header layout: magic, version, ImageCrc, ConfigCrc, PayloadCrc.
  const std::string Forged = Dir.Path + "/forged.bin";
  std::string Bad = Good;
  const uint32_t WrongVersion = dbt::CodeCacheIo::FormatVersion + 1;
  std::memcpy(&Bad[4], &WrongVersion, 4);
  writeBytes(Forged, Bad);
  dbt::CodeCache::Image Img;
  EXPECT_EQ(dbt::CacheLoad::Rejected,
            dbt::CodeCacheIo::load(Forged, Key, Img));

  Bad = Good;
  Bad[0] = 'X';
  writeBytes(Forged, Bad);
  EXPECT_EQ(dbt::CacheLoad::Rejected,
            dbt::CodeCacheIo::load(Forged, Key, Img));
}

TEST(CodeCacheIo, StaleKeyRejects) {
  TempDir Dir;
  std::string Path;
  ASSERT_TRUE(runOnce(cfgFor("qemu").persistentCache(Dir.Path), &Path).Ok);
  vm::Vm Probe(cfgFor("qemu").persistentCache(Dir.Path));
  ASSERT_TRUE(Probe.valid());

  // The same bytes under a key for different guest bytes / different
  // translator config: the file's key echo must reject both.
  dbt::CacheKey Stale = Probe.cacheKey();
  Stale.ImageCrc ^= 1;
  dbt::CodeCache::Image Img;
  EXPECT_EQ(dbt::CacheLoad::Rejected,
            dbt::CodeCacheIo::load(Path, Stale, Img));
  Stale = Probe.cacheKey();
  Stale.ConfigCrc ^= 1;
  EXPECT_EQ(dbt::CacheLoad::Rejected,
            dbt::CodeCacheIo::load(Path, Stale, Img));

  // Missing file: Absent, not Rejected — the caller counts nothing.
  EXPECT_EQ(dbt::CacheLoad::Absent,
            dbt::CodeCacheIo::load(Dir.Path + "/nope.bin", Probe.cacheKey(),
                                   Img));
}

TEST(CodeCacheIo, CorruptFileDegradesToColdStartInAFullSession) {
  TempDir Dir;
  std::string Path;
  const vm::RunReport Cold =
      runOnce(cfgFor("rule:scheduling").persistentCache(Dir.Path), &Path);
  ASSERT_TRUE(Cold.Ok);

  // Corrupt the file in place; the next session must run exactly like a
  // cold one (counted as one CacheFileMiss) and repair the file on exit.
  std::string Bad = readBytes(Path);
  Bad[Bad.size() / 2] = static_cast<char>(Bad[Bad.size() / 2] ^ 0x40);
  writeBytes(Path, Bad);

  const vm::RunReport Recover =
      runOnce(cfgFor("rule:scheduling").persistentCache(Dir.Path));
  ASSERT_TRUE(Recover.Ok);
  expectSameGuestRun(Cold, Recover);
  EXPECT_EQ(0u, Recover.Cache.CacheFileHits);
  EXPECT_EQ(1u, Recover.Cache.CacheFileMisses);
  EXPECT_EQ(0u, Recover.Cache.LoadedTbs);
  EXPECT_EQ(Cold.Engine.Translations, Recover.Engine.Translations);

  // The rewrite is a valid file again: the third boot is warm.
  const vm::RunReport Warm =
      runOnce(cfgFor("rule:scheduling").persistentCache(Dir.Path));
  ASSERT_TRUE(Warm.Ok);
  expectSameGuestRun(Cold, Warm);
  EXPECT_EQ(1u, Warm.Cache.CacheFileHits);
  EXPECT_EQ(0u, Warm.Engine.Translations);
}

TEST(CodeCacheIo, WrongKindsFileAtTheRightPathRejects) {
  TempDir Dir;
  std::string QemuPath, RulePath;
  ASSERT_TRUE(runOnce(cfgFor("qemu").persistentCache(Dir.Path), &QemuPath)
                  .Ok);
  // A rule:base probe names a different file (ConfigCrc differs), so a
  // stale deployment would have to copy bytes across — simulate that.
  vm::Vm Probe(cfgFor("rule:base").persistentCache(Dir.Path));
  ASSERT_TRUE(Probe.valid());
  RulePath = Probe.cacheFilePath();
  ASSERT_NE(QemuPath, RulePath);
  writeBytes(RulePath, readBytes(QemuPath));

  const vm::RunReport R =
      runOnce(cfgFor("rule:base").persistentCache(Dir.Path));
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(0u, R.Cache.CacheFileHits);
  EXPECT_EQ(1u, R.Cache.CacheFileMisses);
}

TEST(CodeCacheIo, TranslationStoreValidatesGuestWords) {
  TempDir Dir;
  std::string Path;
  ASSERT_TRUE(runOnce(cfgFor("qemu").persistentCache(Dir.Path), &Path).Ok);
  vm::Vm Probe(cfgFor("qemu").persistentCache(Dir.Path));
  ASSERT_TRUE(Probe.valid());

  dbt::CodeCache::Image Img;
  ASSERT_EQ(dbt::CacheLoad::Hit,
            dbt::CodeCacheIo::load(Path, Probe.cacheKey(), Img));
  ASSERT_FALSE(Img.Entries.empty());
  const dbt::CodeCache::Entry &E = Img.Entries.front();
  ASSERT_TRUE(E.Block);
  const uint32_t Pc = E.Block->GuestPc;
  const unsigned MmuIdx = static_cast<unsigned>((E.Key >> 32) & 1);
  const uint32_t Asid = E.Asid;
  std::vector<uint32_t> Words = E.Block->GuestWords;
  ASSERT_FALSE(Words.empty());

  const dbt::TranslationStore Store(
      std::make_shared<const dbt::CodeCache::Image>(std::move(Img)));
  EXPECT_GT(Store.blocks(), 0u);
  host::HostBlock Out;
  EXPECT_TRUE(Store.lookup(Pc, MmuIdx, Asid, Words, Out));
  EXPECT_EQ(Pc, Out.GuestPc);
  EXPECT_EQ(Words.size(), static_cast<size_t>(Out.NumGuestInstrs));

  // Same key, different guest words (self-modified code): must miss.
  Words[0] ^= 1;
  EXPECT_FALSE(Store.lookup(Pc, MmuIdx, Asid, Words, Out));
  Words[0] ^= 1;
  // Different ASID: must miss (distinct cache key).
  EXPECT_FALSE(Store.lookup(Pc, MmuIdx, Asid ^ 0x5, Words, Out));
}

TEST(CodeCacheIo, SpecStringCarriesTheCacheDir) {
  std::string Err;
  const vm::VmConfig C =
      vm::VmConfig::fromSpec("qemu/libquantum,cache=/tmp/tc", &Err);
  EXPECT_TRUE(Err.empty()) << Err;
  EXPECT_EQ("/tmp/tc", C.persistentCache());
  EXPECT_EQ("qemu/libquantum,cache=/tmp/tc", C.toSpec());

  vm::VmConfig::fromSpec("qemu/libquantum,cache=", &Err);
  EXPECT_FALSE(Err.empty());
}

namespace {

/// A minimal well-formed chain-exit block in the rule translator's shape:
///   0: jcc -> 1
///   1: SyncOp marker     (slot 0 flag-save range [1, 4))
///   2: packf t0
///   3: stenv packed_ccr, t0
///   4: chain slot 0
///   5: stenvi pc
///   6: exit_tb NeedTranslate, slot 0
host::HostBlock wellFormedBlock() {
  host::HostBlock B;
  B.GuestPc = 0x8000;
  B.NumGuestInstrs = 1;
  B.GuestWords = {0xE1A00000u};
  host::HostEmitter E(B);
  E.patchTarget(E.jcc(host::HCond::Eq), 1);
  B.Chains[0].FlagSaveBegin = E.marker(host::MarkerKind::SyncOp);
  E.packF(host::ScratchReg0);
  E.stEnv(sys::envSlotPackedCcr(), host::ScratchReg0);
  B.Chains[0].FlagSaveEnd = E.chainSlot(0, 0x8004);
  E.stEnvI(sys::envSlotReg(15), 0x8004);
  E.exitTbNeedTranslate(0);
  return B;
}

/// Saves a one-block image (the writer computes a valid payload checksum)
/// and loads it back.
dbt::CacheLoad roundTrip(const host::HostBlock &B) {
  TempDir Dir;
  dbt::CacheKey Key;
  Key.ImageCrc = 0x1234;
  Key.ConfigCrc = 0x5678;
  Key.Valid = true;
  dbt::CodeCache::Image Img;
  dbt::CodeCache::Entry E;
  E.Block = std::make_shared<const host::HostBlock>(B);
  E.Key = dbt::CodeCache::key(B.GuestPc, 0, 0);
  Img.Entries.push_back(E);
  Img.LiveBlocks = 1;
  const std::string Path = Key.pathIn(Dir.Path);
  EXPECT_TRUE(dbt::CodeCacheIo::save(Path, Img, Key));
  dbt::CodeCache::Image Out;
  return dbt::CodeCacheIo::load(Path, Key, Out);
}

} // namespace

TEST(CodeCacheIo, WellFormedHandBuiltBlockLoads) {
  EXPECT_EQ(dbt::CacheLoad::Hit, roundTrip(wellFormedBlock()));
}

TEST(CodeCacheIo, ExitChainSlotOutOfRangeRejects) {
  // The engine hands a NeedTranslate exit's slot to CodeCache::chain().
  host::HostBlock B = wellFormedBlock();
  B.Code.back().Src = 5;
  EXPECT_EQ(dbt::CacheLoad::Rejected, roundTrip(B));
}

TEST(CodeCacheIo, BlockThatCanFallOffItsEndRejects) {
  host::HostBlock B = wellFormedBlock();
  B.Code.pop_back(); // now ends in the stenvi, which falls through
  EXPECT_EQ(dbt::CacheLoad::Rejected, roundTrip(B));
}

TEST(CodeCacheIo, FlagSaveRangeTheElisionCannotSkipRejects) {
  host::HostBlock B = wellFormedBlock();
  B.Chains[0].FlagSaveBegin = 2; // head is not a SyncOp marker
  EXPECT_EQ(dbt::CacheLoad::Rejected, roundTrip(B));

  B = wellFormedBlock();
  B.Chains[0].FlagSaveEnd = 3; // does not end at its ChainSlot
  EXPECT_EQ(dbt::CacheLoad::Rejected, roundTrip(B));

  B = wellFormedBlock();
  B.Chains[1] = B.Chains[0]; // ends at slot 0's ChainSlot, not slot 1's
  EXPECT_EQ(dbt::CacheLoad::Rejected, roundTrip(B));
}
