//===- vm/TranslatorRegistry.h - Named translator factories -----*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A registry of translator *kinds* addressable by name, so benches,
/// examples, tests, and future CLIs select a translator with a string
/// ("qemu", "rule:scheduling", ...) instead of an #include plus hand
/// construction. Each kind carries the presentation metadata the bench
/// harness needs — a human table label and an identifier-safe metric key
/// (the BENCH_*.json series suffix) — and a factory that builds the
/// translator behind the dbt::Translator interface.
///
/// The built-in kinds cover the paper's scenario matrix:
///
///   native            the reference interpreter (no translator; Fig. 18
///                     baseline — Vm runs it without a DBT engine)
///   qemu              the QEMU-6.1-like baseline translator
///   rule:base         rule-based, §III-A basic coordination only
///   rule:reduction    + §III-B packed CCR
///   rule:elimination  + §III-C redundant-sync elimination
///   rule:scheduling   + §III-D scheduling (alias: "rule")
///   rule:file         full-opt rules from a persisted rule file; a
///                     *parameterized* kind addressed as
///                     "rule:file=<path>" (Vm loads the file via
///                     rules/RuleIo.h — the deploy end of the offline
///                     learning loop)
///
/// A third translator variant becomes one registerKind() call, not an
/// edit to every driver main().
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_VM_TRANSLATORREGISTRY_H
#define RDBT_VM_TRANSLATORREGISTRY_H

#include "core/RuleTranslator.h"
#include "dbt/Translator.h"
#include "rules/RuleSet.h"

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace rdbt {
namespace vm {

class TranslatorRegistry {
public:
  /// Everything a factory may need. Rules points at a caller-owned rule
  /// set (Vm supplies the reference set unless configured otherwise);
  /// Opts, when set, overrides the kind's preset optimization switches
  /// (the ablation bench's per-switch variants).
  struct Context {
    const rules::RuleSet *Rules = nullptr;
    const core::OptConfig *Opts = nullptr;
  };

  using Factory =
      std::function<std::unique_ptr<dbt::Translator>(const Context &)>;

  struct KindInfo {
    std::string Name;      ///< registry key, e.g. "rule:scheduling"
    std::string Label;     ///< human table label, e.g. "+scheduling"
    std::string MetricKey; ///< identifier-safe JSON key, e.g. "full_opt"
    std::vector<std::string> Aliases;
    bool UsesEngine = true; ///< false: interpreter-executed (native)
    bool NeedsRules = false; ///< factory requires Context::Rules
    /// Parameterized kind: addressed as "<Name>=<param>" (find() matches
    /// the prefix) and unusable without the parameter — enumeration-style
    /// drivers (rdbt_scenarios) skip these unless they can supply one.
    bool TakesParam = false;
    Factory Make;           ///< null for interpreter-executed kinds
  };

  /// The process-wide registry, pre-populated with the built-in kinds.
  static TranslatorRegistry &global();

  /// Registers a kind; returns false (and changes nothing) if the name
  /// or an alias collides with an existing entry.
  bool registerKind(KindInfo Info);

  /// Looks a kind up by name or alias; nullptr if unknown. Parameterized
  /// kinds also resolve from "<name>=<param>" queries.
  const KindInfo *find(const std::string &Name) const;

  /// The "<param>" part of a "<name>=<param>" query ("" when absent).
  static std::string paramOf(const std::string &Name);

  /// Primary kind names in registration order (aliases not repeated).
  std::vector<std::string> kinds() const;

  /// Factory-constructs the translator for \p Name. Returns nullptr for
  /// unknown kinds, for interpreter-executed kinds (no translator
  /// exists), and for rule kinds called without Context::Rules.
  std::unique_ptr<dbt::Translator> create(const std::string &Name,
                                          const Context &Ctx) const;

  TranslatorRegistry(const TranslatorRegistry &) = delete;
  TranslatorRegistry &operator=(const TranslatorRegistry &) = delete;

private:
  TranslatorRegistry();

  /// Deque, not vector: find() hands out KindInfo pointers that a Vm
  /// caches for its lifetime, so registration must never relocate
  /// existing entries.
  std::deque<KindInfo> Kinds;
};

} // namespace vm
} // namespace rdbt

#endif // RDBT_VM_TRANSLATORREGISTRY_H
