#include "analyzer.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>

#include "lexer.h"

namespace detlint {

namespace {

// ---------------------------------------------------------------------------
// Small token-stream helpers. All scanning skips comment tokens; literals and
// directive tokens are excluded where the rule calls for it.
// ---------------------------------------------------------------------------

struct Stream {
  const std::vector<Token>& toks;

  /// Index of the next non-comment token at or after `i`, or npos.
  [[nodiscard]] std::size_t next(std::size_t i) const {
    while (i < toks.size() && toks[i].kind == TokKind::Comment) ++i;
    return i < toks.size() ? i : npos;
  }
  /// Index of the next non-comment token strictly after `i`.
  [[nodiscard]] std::size_t after(std::size_t i) const { return next(i + 1); }
  /// Index of the previous non-comment token strictly before `i`, or npos.
  [[nodiscard]] std::size_t before(std::size_t i) const {
    while (i > 0) {
      --i;
      if (toks[i].kind != TokKind::Comment) return i;
    }
    return npos;
  }
  [[nodiscard]] const Token* at(std::size_t i) const {
    return i == npos ? nullptr : &toks[i];
  }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

template <typename Table>
[[nodiscard]] bool in_table(const Table& table, std::string_view text) {
  for (const auto* entry : table) {
    if (text == entry) return true;
  }
  return false;
}

[[nodiscard]] const RuleInfo& rule_info(std::string_view id) {
  for (const auto& rule : kRules) {
    if (id == rule.id) return rule;
  }
  throw std::logic_error("detlint: unknown rule id");
}

/// Skip a balanced `<...>` template-argument list. `i` indexes the `<`.
/// Returns the index just past the matching `>`, or npos if unbalanced.
[[nodiscard]] std::size_t skip_template_args(const Stream& s, std::size_t i) {
  int depth = 0;
  while (i != Stream::npos && i < s.toks.size()) {
    const Token& tok = s.toks[i];
    if (is_punct(tok, "<")) ++depth;
    if (is_punct(tok, ">")) {
      --depth;
      if (depth == 0) return s.after(i);
    }
    // A `;` or `{` inside an unbalanced scan means this `<` was a comparison.
    if (is_punct(tok, ";") || is_punct(tok, "{")) return Stream::npos;
    i = s.after(i);
  }
  return Stream::npos;
}

// ---------------------------------------------------------------------------
// Waivers: `// detlint: <token>(<reason>)`. The waiver must sit on a line of
// the flagged statement (any line of a multi-line statement) or on the line
// directly above it. Parsed from comment tokens; malformed or stale waivers
// are findings themselves so the annotations cannot rot.
// ---------------------------------------------------------------------------

struct Waiver {
  std::string token;
  std::string reason;
  int line = 0;
  bool used = false;
};

struct WaiverScan {
  std::vector<Waiver> waivers;
  std::vector<Finding> problems;  ///< malformed waivers (rule "WAIVER")
};

[[nodiscard]] WaiverScan scan_waivers(const std::string& display_path,
                                      const std::vector<Token>& toks) {
  WaiverScan out;
  for (const auto& tok : toks) {
    if (tok.kind != TokKind::Comment) continue;
    const std::size_t at = tok.text.find("detlint:");
    if (at == std::string::npos) continue;
    std::string_view rest = std::string_view(tok.text).substr(at + 8);
    // token(reason)
    std::size_t p = 0;
    while (p < rest.size() && std::isspace(static_cast<unsigned char>(rest[p]))) ++p;
    std::size_t q = p;
    while (q < rest.size() &&
           (std::isalnum(static_cast<unsigned char>(rest[q])) || rest[q] == '-' ||
            rest[q] == '_')) {
      ++q;
    }
    const std::string token(rest.substr(p, q - p));
    while (q < rest.size() && std::isspace(static_cast<unsigned char>(rest[q]))) ++q;
    std::string reason;
    bool well_formed = false;
    if (q < rest.size() && rest[q] == '(') {
      const std::size_t close = rest.find(')', q);
      if (close != std::string_view::npos) {
        reason = std::string(rest.substr(q + 1, close - q - 1));
        well_formed = true;
      }
    }
    bool known = false;
    for (const auto& rule : kRules) {
      if (token == rule.waiver) known = true;
    }
    // Trim the reason.
    while (!reason.empty() && std::isspace(static_cast<unsigned char>(reason.front()))) {
      reason.erase(reason.begin());
    }
    while (!reason.empty() && std::isspace(static_cast<unsigned char>(reason.back()))) {
      reason.pop_back();
    }
    if (!well_formed || !known || reason.empty()) {
      std::string why = !well_formed ? "expected `detlint: <token>(<reason>)`"
                        : !known    ? "unknown waiver token '" + token + "'"
                                    : "empty reason";
      out.problems.push_back(Finding{display_path, tok.line, "WAIVER",
                                     "malformed waiver: " + why, false, ""});
      continue;
    }
    out.waivers.push_back(Waiver{token, reason, tok.line, false});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Phase 1: index unordered-container declarations across the whole file set.
// ---------------------------------------------------------------------------

struct UnorderedIndex {
  std::set<std::string> type_tokens;  ///< base names + `using` aliases
  std::set<std::string> names;        ///< declared variables / members
};

void index_file(const std::vector<Token>& toks, UnorderedIndex& index) {
  const Stream s{toks};
  // `using Alias = [std::]unordered_map<...>` — record the alias as a type.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& tok = toks[i];
    if (tok.kind != TokKind::Identifier || tok.in_directive) continue;
    if (!in_table(kUnorderedTypeTokens, tok.text)) continue;
    std::size_t back = s.before(i);
    if (s.at(back) != nullptr && is_punct(*s.at(back), "::")) {
      const std::size_t std_tok = s.before(back);
      if (s.at(std_tok) != nullptr && is_ident(*s.at(std_tok), "std")) {
        back = s.before(std_tok);
      }
    }
    const std::size_t eq = back;
    if (s.at(eq) == nullptr || !is_punct(*s.at(eq), "=")) continue;
    const std::size_t alias = s.before(eq);
    const std::size_t kw = alias == Stream::npos ? Stream::npos : s.before(alias);
    if (s.at(alias) != nullptr && s.at(alias)->kind == TokKind::Identifier &&
        s.at(kw) != nullptr && is_ident(*s.at(kw), "using")) {
      index.type_tokens.insert(s.at(alias)->text);
    }
  }
  // Declarations: `<type-token> [<...>] [&*const]* name`.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& tok = toks[i];
    if (tok.kind != TokKind::Identifier || tok.in_directive) continue;
    if (!in_table(kUnorderedTypeTokens, tok.text) &&
        index.type_tokens.find(tok.text) == index.type_tokens.end()) {
      continue;
    }
    std::size_t j = s.after(i);
    if (s.at(j) != nullptr && is_punct(*s.at(j), "<")) {
      j = skip_template_args(s, j);
    }
    while (s.at(j) != nullptr &&
           (is_punct(*s.at(j), "&") || is_punct(*s.at(j), "*") ||
            is_ident(*s.at(j), "const"))) {
      j = s.after(j);
    }
    const Token* name = s.at(j);
    if (name == nullptr || name->kind != TokKind::Identifier) continue;
    // `>::iterator` handled above would have bailed via `::` not matching;
    // also skip keywords that can follow a type in expressions.
    if (name->text == "const" || name->text == "typename") continue;
    index.names.insert(name->text);
  }
}

// ---------------------------------------------------------------------------
// Per-finding span + waiver application.
// ---------------------------------------------------------------------------

struct PendingFinding {
  Finding finding;
  int span_first = 0;  ///< first line of the flagged statement
  int span_last = 0;   ///< last line of the flagged statement
  const char* waiver_token = nullptr;
};

void apply_waivers(std::vector<PendingFinding>& pending,
                   std::vector<Waiver>& waivers, std::vector<Finding>& out) {
  for (auto& p : pending) {
    for (auto& w : waivers) {
      if (w.token != p.waiver_token) continue;
      if (w.line < p.span_first - 1 || w.line > p.span_last) continue;
      p.finding.waived = true;
      p.finding.waiver_reason = w.reason;
      w.used = true;
      break;
    }
    out.push_back(p.finding);
  }
}

// ---------------------------------------------------------------------------
// Rule D1 — unordered iteration in decision-path code.
// ---------------------------------------------------------------------------

void check_d1(const SourceFile& file, const std::vector<Token>& toks,
              const UnorderedIndex& index, std::vector<PendingFinding>& pending) {
  const RuleInfo& rule = rule_info("D1");
  if (!rule_applies(rule, file.rel_path)) return;
  const Stream s{toks};

  auto is_unordered_name = [&](const Token& tok) {
    return tok.kind == TokKind::Identifier &&
           index.names.find(tok.text) != index.names.end();
  };
  auto is_unordered_type = [&](const Token& tok) {
    return tok.kind == TokKind::Identifier &&
           (in_table(kUnorderedTypeTokens, tok.text) ||
            index.type_tokens.find(tok.text) != index.type_tokens.end());
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& tok = toks[i];
    if (tok.in_directive || tok.kind == TokKind::Comment ||
        tok.kind == TokKind::String) {
      continue;
    }

    // Range-for over an unordered container (or a call returning one).
    if (is_ident(tok, "for")) {
      std::size_t j = s.after(i);
      if (s.at(j) == nullptr || !is_punct(*s.at(j), "(")) continue;
      int depth = 0;
      std::size_t colon = Stream::npos;
      std::size_t close = Stream::npos;
      for (; j < toks.size(); j = s.after(j)) {
        const Token& t = toks[j];
        if (is_punct(t, "(")) ++depth;
        if (is_punct(t, ")")) {
          --depth;
          if (depth == 0) {
            close = j;
            break;
          }
        }
        if (depth == 1 && is_punct(t, ";")) break;  // classic for
        if (depth == 1 && is_punct(t, ":") && colon == Stream::npos) colon = j;
      }
      if (colon == Stream::npos || close == Stream::npos) continue;
      std::string hit;
      for (std::size_t k = s.after(colon); k != Stream::npos && k < close;
           k = s.after(k)) {
        if (is_unordered_name(toks[k]) || is_unordered_type(toks[k])) {
          hit = toks[k].text;
          break;
        }
      }
      if (hit.empty()) continue;
      PendingFinding p;
      p.finding = Finding{file.display_path, tok.line, "D1",
                          "range-for over unordered container '" + hit +
                              "' in decision-path code (iteration order is "
                              "implementation-defined)",
                          false, ""};
      p.span_first = tok.line;
      p.span_last = toks[close].line;
      p.waiver_token = rule.waiver;
      pending.push_back(std::move(p));
      continue;
    }

    // name.begin() / name->begin() and friends.
    if (is_unordered_name(tok)) {
      const std::size_t dot = s.after(i);
      if (s.at(dot) == nullptr ||
          !(is_punct(*s.at(dot), ".") || is_punct(*s.at(dot), "->"))) {
        continue;
      }
      const std::size_t fn = s.after(dot);
      const Token* fn_tok = s.at(fn);
      if (fn_tok == nullptr || fn_tok->kind != TokKind::Identifier) continue;
      if (fn_tok->text != "begin" && fn_tok->text != "cbegin" &&
          fn_tok->text != "rbegin" && fn_tok->text != "crbegin") {
        continue;
      }
      const std::size_t paren = s.after(fn);
      if (s.at(paren) == nullptr || !is_punct(*s.at(paren), "(")) continue;
      PendingFinding p;
      p.finding = Finding{file.display_path, tok.line, "D1",
                          "iterator over unordered container '" + tok.text +
                              "' (." + fn_tok->text +
                              "()) in decision-path code",
                          false, ""};
      p.span_first = tok.line;
      p.span_last = toks[paren].line;
      p.waiver_token = rule.waiver;
      pending.push_back(std::move(p));
      continue;
    }

    // std::begin(name) / begin(name).
    if (tok.kind == TokKind::Identifier &&
        (tok.text == "begin" || tok.text == "cbegin" || tok.text == "rbegin" ||
         tok.text == "crbegin")) {
      const std::size_t paren = s.after(i);
      if (s.at(paren) == nullptr || !is_punct(*s.at(paren), "(")) continue;
      const std::size_t arg = s.after(paren);
      if (s.at(arg) == nullptr || !is_unordered_name(*s.at(arg))) continue;
      PendingFinding p;
      p.finding = Finding{file.display_path, tok.line, "D1",
                          "free " + tok.text + "() over unordered container '" +
                              s.at(arg)->text + "' in decision-path code",
                          false, ""};
      p.span_first = tok.line;
      p.span_last = s.at(arg)->line;
      p.waiver_token = rule.waiver;
      pending.push_back(std::move(p));
    }
  }
}

// ---------------------------------------------------------------------------
// Rule D2 — nondeterminism sources anywhere in src/.
// ---------------------------------------------------------------------------

void check_d2(const SourceFile& file, const std::vector<Token>& toks,
              std::vector<PendingFinding>& pending) {
  const RuleInfo& rule = rule_info("D2");
  if (!rule_applies(rule, file.rel_path)) return;
  const Stream s{toks};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& tok = toks[i];
    if (tok.kind != TokKind::Identifier || tok.in_directive) continue;

    std::string what;
    if (in_table(kBannedTypeTokens, tok.text)) {
      what = "'" + tok.text + "' (nondeterministic / wall-clock source)";
    } else if (in_table(kBannedCallTokens, tok.text)) {
      const std::size_t paren = s.after(i);
      if (s.at(paren) != nullptr && is_punct(*s.at(paren), "(")) {
        what = "call to '" + tok.text +
               "' (nondeterministic, wall-clock, or locale-dependent)";
      }
    } else if (is_ident(tok, "locale")) {
      // std::locale — only the qualified spelling, to spare identifiers that
      // merely contain the word.
      const std::size_t colons = s.before(i);
      const std::size_t std_tok =
          colons == Stream::npos ? Stream::npos : s.before(colons);
      if (s.at(colons) != nullptr && is_punct(*s.at(colons), "::") &&
          s.at(std_tok) != nullptr && is_ident(*s.at(std_tok), "std")) {
        what = "'std::locale' (locale-dependent formatting)";
      }
    }
    if (what.empty()) continue;
    PendingFinding p;
    p.finding = Finding{file.display_path, tok.line, "D2",
                        what + " — sdsched uses seeded engines and sim-time "
                               "only",
                        false, ""};
    p.span_first = tok.line;
    p.span_last = tok.line;
    p.waiver_token = rule.waiver;
    pending.push_back(std::move(p));
  }
}

// ---------------------------------------------------------------------------
// Rule D3 — RTTI in decision-path code.
// ---------------------------------------------------------------------------

void check_d3(const SourceFile& file, const std::vector<Token>& toks,
              std::vector<PendingFinding>& pending) {
  const RuleInfo& rule = rule_info("D3");
  if (!rule_applies(rule, file.rel_path)) return;
  for (const auto& tok : toks) {
    if (tok.kind != TokKind::Identifier || tok.in_directive) continue;
    if (!in_table(kRttiTokens, tok.text)) continue;
    PendingFinding p;
    p.finding = Finding{file.display_path, tok.line, "D3",
                        "'" + tok.text +
                            "' in decision-path code — use the annotate()/"
                            "virtual-dispatch seam instead of RTTI",
                        false, ""};
    p.span_first = tok.line;
    p.span_last = tok.line;
    p.waiver_token = rule.waiver;
    pending.push_back(std::move(p));
  }
}

// ---------------------------------------------------------------------------
// Rule D4 — occupancy mutators must reference the MachineObserver notify
// path. Function extents come from a brace-classification walk: a `{` is a
// function body when the tokens since the previous `;`/`{`/`}` contain a
// `(` and end plausibly (`)`, `}`, or a trailing qualifier) — this covers
// out-of-class definitions, constructors with paren init-lists, and inline
// class-body methods. Known limitation (documented in docs/determinism.md):
// a constructor whose *last* member initializer uses brace syntax hides the
// body from the classifier.
// ---------------------------------------------------------------------------

enum class BraceKind { Namespace, Class, Function, Other };

struct FunctionExtent {
  std::string name;
  int header_line = 0;
  int open_line = 0;
  std::size_t open_index = 0;
  std::size_t close_index = 0;  ///< index of matching '}'
};

[[nodiscard]] BraceKind classify_brace(const Stream& s, std::size_t brace,
                                       std::string* name_out, int* header_line) {
  // Window: tokens since the previous `;`, `{`, `}` (exclusive).
  std::vector<std::size_t> window;
  std::size_t k = s.before(brace);
  while (k != Stream::npos) {
    const Token& t = s.toks[k];
    if (is_punct(t, ";") || is_punct(t, "{") || is_punct(t, "}")) break;
    window.push_back(k);
    k = s.before(k);
  }
  std::reverse(window.begin(), window.end());
  if (window.empty()) return BraceKind::Other;
  *header_line = s.toks[window.front()].line;

  bool has_paren = false;
  bool has_class_kw = false;
  std::size_t first_paren = Stream::npos;
  for (const std::size_t idx : window) {
    const Token& t = s.toks[idx];
    if (is_punct(t, "(") && first_paren == Stream::npos) first_paren = idx;
    if (is_punct(t, "(")) has_paren = true;
    if (t.kind == TokKind::Identifier &&
        (t.text == "class" || t.text == "struct" || t.text == "union" ||
         t.text == "enum")) {
      has_class_kw = true;
    }
    if (is_ident(t, "namespace")) return BraceKind::Namespace;
  }
  const Token& last = s.toks[window.back()];
  if (has_class_kw && !is_punct(last, ")")) return BraceKind::Class;
  const bool plausible_tail =
      is_punct(last, ")") || is_punct(last, "}") || is_ident(last, "const") ||
      is_ident(last, "noexcept") || is_ident(last, "override") ||
      is_ident(last, "final") || is_ident(last, "mutable") ||
      is_ident(last, "try");
  if (has_paren && plausible_tail) {
    if (name_out != nullptr && first_paren != Stream::npos) {
      const std::size_t name_idx = s.before(first_paren);
      if (s.at(name_idx) != nullptr &&
          s.at(name_idx)->kind == TokKind::Identifier) {
        *name_out = s.at(name_idx)->text;
      }
    }
    return BraceKind::Function;
  }
  return BraceKind::Other;
}

/// Index of the `}` matching the `{` at `open` (comment tokens ignored).
[[nodiscard]] std::size_t matching_close(const Stream& s, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < s.toks.size(); i = s.after(i)) {
    if (is_punct(s.toks[i], "{")) ++depth;
    if (is_punct(s.toks[i], "}")) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return Stream::npos;
}

void collect_functions(const Stream& s, std::vector<FunctionExtent>& out) {
  for (std::size_t i = 0; i < s.toks.size(); i = s.after(i)) {
    if (!is_punct(s.toks[i], "{")) continue;
    std::string name = "(anonymous)";
    int header_line = s.toks[i].line;
    const BraceKind kind = classify_brace(s, i, &name, &header_line);
    if (kind == BraceKind::Function) {
      const std::size_t close = matching_close(s, i);
      if (close == Stream::npos) return;  // unbalanced: give up quietly
      out.push_back(FunctionExtent{name, header_line, s.toks[i].line, i, close});
      i = close;  // function bodies are opaque: no nested classification
    }
    // Namespace / class / other: keep walking inside.
  }
}

void check_d4(const SourceFile& file, const std::vector<Token>& toks,
              std::vector<PendingFinding>& pending) {
  const RuleInfo& rule = rule_info("D4");
  if (!rule_applies(rule, file.rel_path)) return;
  const Stream s{toks};
  std::vector<FunctionExtent> functions;
  collect_functions(s, functions);

  for (const auto& fn : functions) {
    std::string mutation;
    bool has_notify = false;
    for (std::size_t i = s.after(fn.open_index);
         i != Stream::npos && i < fn.close_index; i = s.after(i)) {
      const Token& tok = toks[i];
      if (tok.kind != TokKind::Identifier) continue;
      if (in_table(kNotifyTokens, tok.text)) {
        if (tok.text == "on_node_occupancy_changed") {
          has_notify = true;
        } else {
          const std::size_t paren = s.after(i);
          if (s.at(paren) != nullptr && is_punct(*s.at(paren), "(")) {
            has_notify = true;
          }
        }
        continue;
      }
      if (!mutation.empty() || !in_table(kOccupancyMutationMembers, tok.text)) {
        continue;
      }
      const Token* n = s.at(s.after(i));
      if (n == nullptr) continue;
      const Token* prev = s.at(s.before(i));
      const bool mutating =
          is_punct(*n, "=") || is_punct(*n, "+=") || is_punct(*n, "-=") ||
          is_punct(*n, "++") || is_punct(*n, "--") ||
          (prev != nullptr && (is_punct(*prev, "++") || is_punct(*prev, "--")));
      if (mutating) mutation = tok.text + " write";
    }
    if (mutation.empty() || has_notify) continue;
    PendingFinding p;
    p.finding = Finding{file.display_path, fn.header_line, "D4",
                        "function '" + fn.name + "' mutates occupancy (" +
                            mutation +
                            ") without referencing the MachineObserver "
                            "notify path — subscribed indexes would go stale",
                        false, ""};
    p.span_first = fn.header_line;
    p.span_last = fn.open_line;
    p.waiver_token = rule.waiver;
    pending.push_back(std::move(p));
  }
}

}  // namespace

bool rule_applies(const RuleInfo& rule, std::string_view rel_path) {
  const std::string_view scope = rule.scope;
  if (scope.empty()) return true;
  std::size_t start = 0;
  while (start <= scope.size()) {
    std::size_t comma = scope.find(',', start);
    if (comma == std::string_view::npos) comma = scope.size();
    const std::string_view prefix = scope.substr(start, comma - start);
    if (!prefix.empty() &&
        (rel_path == prefix || rel_path.substr(0, prefix.size()) == prefix)) {
      return true;
    }
    start = comma + 1;
  }
  return false;
}

std::vector<Finding> analyze(const std::vector<SourceFile>& files) {
  // Phase 1: global unordered-container declaration index.
  std::vector<std::vector<Token>> token_streams;
  token_streams.reserve(files.size());
  UnorderedIndex index;
  for (const auto& file : files) {
    token_streams.push_back(lex(file.content));
    index_file(token_streams.back(), index);
  }

  // Phase 2: per-file rule checks + waiver application.
  std::vector<Finding> out;
  for (std::size_t f = 0; f < files.size(); ++f) {
    const auto& file = files[f];
    const auto& toks = token_streams[f];
    WaiverScan waiver_scan = scan_waivers(file.display_path, toks);

    std::vector<PendingFinding> pending;
    check_d1(file, toks, index, pending);
    check_d2(file, toks, pending);
    check_d3(file, toks, pending);
    check_d4(file, toks, pending);
    std::stable_sort(pending.begin(), pending.end(),
                     [](const PendingFinding& a, const PendingFinding& b) {
                       return a.finding.line < b.finding.line;
                     });

    std::vector<Finding> file_findings;
    apply_waivers(pending, waiver_scan.waivers, file_findings);
    for (const auto& w : waiver_scan.waivers) {
      if (!w.used) {
        file_findings.push_back(
            Finding{file.display_path, w.line, "WAIVER",
                    "stale waiver '" + w.token +
                        "': no matching finding on this statement — delete it",
                    false, ""});
      }
    }
    for (auto& problem : waiver_scan.problems) {
      file_findings.push_back(std::move(problem));
    }
    std::stable_sort(file_findings.begin(), file_findings.end(),
                     [](const Finding& a, const Finding& b) {
                       return a.line < b.line;
                     });
    out.insert(out.end(), file_findings.begin(), file_findings.end());
  }
  return out;
}

std::vector<Finding> analyze_tree(const std::filesystem::path& src_root,
                                  std::string_view display_prefix) {
  namespace fs = std::filesystem;
  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(src_root)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc") {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());

  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("detlint: cannot read " + path.string());
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string rel = fs::relative(path, src_root).generic_string();
    files.push_back(
        SourceFile{std::string(display_prefix) + rel, rel, buf.str()});
  }
  return analyze(files);
}

}  // namespace detlint
