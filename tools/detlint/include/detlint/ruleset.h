// The detlint determinism-contract ruleset, as pure data.
//
// This header is the single source of truth for what detlint enforces: the
// rule ids, their waiver tokens, their file scopes, and the banned-token
// tables. The analyzer consumes these tables directly, and `ruleset_hash()`
// folds every byte of them (plus the tool version) into one FNV-1a value —
// so the hash stamped into `sdsched-bench-v1` JSON headers identifies the
// exact contract a bench artifact was produced under. Change a rule and the
// hash changes; byte-compare two artifacts only if their hashes match.
//
// Header-only and dependency-free on purpose: the bench programs include it
// without linking the analyzer.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace detlint {

/// Tool version. Bump on any behaviour change (rules, waiver syntax, lexing).
inline constexpr const char* kVersion = "1.1.0";

/// Directories (relative to src/) that constitute decision-path code: every
/// scheduling decision flows through them, so iteration order and RTTI there
/// are part of the byte-identical-parity contract.
inline constexpr const char* kDecisionPathDirs[] = {
    "sched/",
    "cluster/",
    "core/",
    "sim/",
};

struct RuleInfo {
  const char* id;      ///< "D1".."D4"
  const char* name;    ///< short kebab-case name
  const char* waiver;  ///< token accepted in `// detlint: <waiver>(<reason>)`
  const char* scope;   ///< comma-separated path prefixes relative to src/;
                       ///< "" means every analyzed file
};

inline constexpr RuleInfo kRules[] = {
    {"D1", "unordered-iteration", "ordered-ok", "sched/,cluster/,core/,sim/"},
    {"D2", "nondeterminism-source", "nondet-ok", ""},
    {"D3", "rtti-in-decision-path", "rtti-ok", "sched/,cluster/,core/,sim/"},
    {"D4", "unobserved-occupancy-mutation", "mutator-ok",
     "cluster/machine.cpp,cluster/machine.h"},
};

/// D1: container-type tokens whose iteration order is implementation-defined.
inline constexpr const char* kUnorderedTypeTokens[] = {
    "unordered_map",
    "unordered_set",
    "unordered_multimap",
    "unordered_multiset",
};

/// D2: banned only in call position (`token(`) — common enough words that a
/// bare-identifier match would false-positive.
inline constexpr const char* kBannedCallTokens[] = {
    "rand",      "srand",       "rand_r",     "drand48",  "lrand48",
    "localtime", "localtime_r", "gmtime",     "strftime", "asctime",
    "ctime",     "mktime",      "setlocale",  "localeconv", "imbue",
};

/// D2: banned on any identifier occurrence (type-like names; no legitimate
/// non-banned spelling exists in this codebase). `steady_clock` is
/// deliberately absent: it is monotonic and only ever feeds wall-clock
/// *measurement* (never decisions), which the parity contract permits.
inline constexpr const char* kBannedTypeTokens[] = {
    "random_device",
    "system_clock",
    "high_resolution_clock",  // commonly an alias of system_clock
};

/// D3: RTTI tokens banned in decision-path code (the PR 2 `annotate()`
/// virtual replaced the last `dynamic_cast`; this pins that fix).
inline constexpr const char* kRttiTokens[] = {
    "dynamic_cast",
    "typeid",
};

/// D4: occupancy-mutation markers — the Machine's occupancy counters. A
/// function body in the D4 scope that writes one of these (assignment,
/// compound assignment, increment or decrement) must also reference the
/// notify path below.
inline constexpr const char* kOccupancyMutationMembers[] = {
    "busy_cores_",
    "occupied_nodes_",
};
inline constexpr const char* kNotifyTokens[] = {
    "notify",
    "on_node_occupancy_changed",
};

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

constexpr std::uint64_t fnv1a(std::string_view text,
                              std::uint64_t hash = kFnvOffset) noexcept {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

/// FNV-1a over the version and every rule-table entry, in declaration order.
/// Stable across platforms; stamped into bench JSON as `detlint_ruleset_hash`.
constexpr std::uint64_t ruleset_hash_value() noexcept {
  std::uint64_t hash = fnv1a(kVersion);
  for (const auto* dir : kDecisionPathDirs) hash = fnv1a(dir, fnv1a("|", hash));
  for (const auto& rule : kRules) {
    hash = fnv1a(rule.id, fnv1a("|", hash));
    hash = fnv1a(rule.name, fnv1a("|", hash));
    hash = fnv1a(rule.waiver, fnv1a("|", hash));
    hash = fnv1a(rule.scope, fnv1a("|", hash));
  }
  for (const auto* t : kUnorderedTypeTokens) hash = fnv1a(t, fnv1a("|", hash));
  for (const auto* t : kBannedCallTokens) hash = fnv1a(t, fnv1a("|", hash));
  for (const auto* t : kBannedTypeTokens) hash = fnv1a(t, fnv1a("|", hash));
  for (const auto* t : kRttiTokens) hash = fnv1a(t, fnv1a("|", hash));
  for (const auto* t : kOccupancyMutationMembers) hash = fnv1a(t, fnv1a("|", hash));
  for (const auto* t : kNotifyTokens) hash = fnv1a(t, fnv1a("|", hash));
  return hash;
}

/// Lower-case hex spelling of ruleset_hash_value(), e.g. "a1b2c3d4e5f60718".
inline std::string ruleset_hash() {
  constexpr char digits[] = "0123456789abcdef";
  std::uint64_t value = ruleset_hash_value();
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[value & 0xf];
    value >>= 4;
  }
  return out;
}

}  // namespace detlint
