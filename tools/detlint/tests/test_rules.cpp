// Rule coverage over the seeded-violation fixture corpus: one positive and
// one negative fixture per rule (D1–D4), waiver parsing (well-formed,
// malformed, stale), multi-line statement handling, scope handling, and the
// cross-file declaration index.
#include "analyzer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "detlint/ruleset.h"

namespace detlint {
namespace {

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(DETLINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<Finding> analyze_fixture(const std::string& name,
                                     const std::string& rel_path) {
  return analyze({SourceFile{name, rel_path, read_fixture(name)}});
}

std::size_t count_rule(const std::vector<Finding>& findings,
                       std::string_view rule) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

bool any_message_contains(const std::vector<Finding>& findings,
                          std::string_view needle) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.message.find(needle) != std::string::npos;
  });
}

// --------------------------------------------------------------------- D1 --

TEST(DetlintD1, FlagsEveryIterationShapeInDecisionPath) {
  const auto findings =
      analyze_fixture("d1_positive.cpp", "core/d1_positive.cpp");
  EXPECT_EQ(findings.size(), 4u);
  EXPECT_EQ(count_rule(findings, "D1"), 4u);
  EXPECT_TRUE(has_unwaived(findings));
  EXPECT_TRUE(any_message_contains(findings, "'weights'"));  // range-for
  EXPECT_TRUE(any_message_contains(findings, "'ids'"));      // .begin()
  EXPECT_TRUE(any_message_contains(findings, "'table'"));    // std::begin
  EXPECT_TRUE(any_message_contains(findings, "'scores'"));   // alias type
}

TEST(DetlintD1, LookupMembershipAndOrderedIterationAreClean) {
  const auto findings =
      analyze_fixture("d1_negative.cpp", "core/d1_negative.cpp");
  EXPECT_TRUE(findings.empty()) << findings.front().message;
}

TEST(DetlintD1, WaiversCoverSameLineLineAboveAndMultiLineStatements) {
  const auto findings = analyze_fixture("d1_waived.cpp", "core/d1_waived.cpp");
  EXPECT_EQ(findings.size(), 3u);
  EXPECT_FALSE(has_unwaived(findings));
  for (const auto& f : findings) {
    EXPECT_TRUE(f.waived);
    EXPECT_FALSE(f.waiver_reason.empty());
  }
}

TEST(DetlintD1, OutOfScopeDirectoriesAreNotChecked) {
  // The identical violations under a non-decision-path prefix: clean.
  const auto findings =
      analyze_fixture("d1_positive.cpp", "workload/d1_positive.cpp");
  EXPECT_TRUE(findings.empty());
}

TEST(DetlintD1, MemberDeclaredInHeaderIsFlaggedWhenCppIterates) {
  // The two-phase index: the declaration lives in a header, the iteration in
  // the .cpp of the same class — per-file analysis would miss it.
  const SourceFile header{
      "cluster/thing.h", "cluster/thing.h",
      "#include <unordered_set>\n"
      "class Thing {\n"
      "  std::unordered_set<int> members_;\n"
      "};\n"};
  const SourceFile impl{
      "cluster/thing.cpp", "cluster/thing.cpp",
      "#include \"thing.h\"\n"
      "int Thing_total(Thing& t, int* members_sink) {\n"
      "  int sum = 0;\n"
      "  for (const int id : members_) sum += id;\n"
      "  (void)t; (void)members_sink;\n"
      "  return sum;\n"
      "}\n"};
  const auto findings = analyze({header, impl});
  EXPECT_EQ(count_rule(findings, "D1"), 1u);
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings.front().file, "cluster/thing.cpp");
}

// --------------------------------------------------------------------- D2 --

TEST(DetlintD2, FlagsEveryNondeterminismSourceEverywhere) {
  // Scope is all of src/ — "util/" is deliberately not a decision-path dir.
  const auto findings =
      analyze_fixture("d2_positive.cpp", "util/d2_positive.cpp");
  EXPECT_EQ(count_rule(findings, "D2"), 7u);
  EXPECT_TRUE(any_message_contains(findings, "'srand'"));
  EXPECT_TRUE(any_message_contains(findings, "'rand'"));
  EXPECT_TRUE(any_message_contains(findings, "'random_device'"));
  EXPECT_TRUE(any_message_contains(findings, "'system_clock'"));
  EXPECT_TRUE(any_message_contains(findings, "'high_resolution_clock'"));
  EXPECT_TRUE(any_message_contains(findings, "'setlocale'"));
  EXPECT_TRUE(any_message_contains(findings, "'ctime'"));
}

TEST(DetlintD2, SeededEnginesSteadyClockAndLookalikesAreClean) {
  const auto findings =
      analyze_fixture("d2_negative.cpp", "util/d2_negative.cpp");
  EXPECT_TRUE(findings.empty()) << findings.front().message;
}

// --------------------------------------------------------------------- D3 --

TEST(DetlintD3, FlagsRttiInDecisionPath) {
  const auto findings =
      analyze_fixture("d3_positive.cpp", "sched/d3_positive.cpp");
  EXPECT_EQ(count_rule(findings, "D3"), 3u);  // dynamic_cast + typeid x2
  EXPECT_TRUE(any_message_contains(findings, "'dynamic_cast'"));
  EXPECT_TRUE(any_message_contains(findings, "'typeid'"));
}

TEST(DetlintD3, VirtualDispatchAndStaticCastAreClean) {
  const auto findings =
      analyze_fixture("d3_negative.cpp", "sched/d3_negative.cpp");
  EXPECT_TRUE(findings.empty()) << findings.front().message;
}

TEST(DetlintD3, RttiOutsideDecisionPathIsNotChecked) {
  const auto findings =
      analyze_fixture("d3_positive.cpp", "api/d3_positive.cpp");
  EXPECT_TRUE(findings.empty());
}

// --------------------------------------------------------------------- D4 --

TEST(DetlintD4, FlagsMutatorsThatNeverNotify) {
  const auto findings =
      analyze_fixture("d4_positive.cpp", "cluster/machine.cpp");
  EXPECT_EQ(count_rule(findings, "D4"), 3u);
  EXPECT_TRUE(any_message_contains(findings, "'grow'"));
  EXPECT_TRUE(any_message_contains(findings, "'mark_busy'"));
  EXPECT_TRUE(any_message_contains(findings, "'reset'"));
  EXPECT_TRUE(any_message_contains(findings, "occupied_nodes_ write"));
}

TEST(DetlintD4, NotifyingMutatorsAndReadsAreClean) {
  const auto findings =
      analyze_fixture("d4_negative.cpp", "cluster/machine.cpp");
  EXPECT_TRUE(findings.empty()) << findings.front().message;
}

TEST(DetlintD4, HeaderWaiversCoverUnnotifiableMutators) {
  const auto findings = analyze_fixture("d4_waived.cpp", "cluster/machine.cpp");
  EXPECT_EQ(count_rule(findings, "D4"), 1u);
  EXPECT_FALSE(has_unwaived(findings));
}

TEST(DetlintD4, ScopeIsMachineTranslationUnitsOnly) {
  // The same mutators in another cluster file (e.g. the index itself, whose
  // members legitimately change without re-notifying) are out of scope.
  const auto findings =
      analyze_fixture("d4_positive.cpp", "cluster/cluster_state_index.cpp");
  EXPECT_TRUE(findings.empty());
}

// ----------------------------------------------------------------- waivers --

TEST(DetlintWaivers, MalformedWaiversAreFindingsThemselves) {
  const SourceFile file{
      "core/w.cpp", "core/w.cpp",
      "// detlint: ordered-ok missing parens\n"
      "// detlint: not-a-rule(some reason)\n"
      "// detlint: ordered-ok()\n"
      "int f() { return 0; }\n"};
  const auto findings = analyze({file});
  EXPECT_EQ(count_rule(findings, "WAIVER"), 3u);
  EXPECT_TRUE(has_unwaived(findings));
  EXPECT_TRUE(any_message_contains(findings, "expected"));
  EXPECT_TRUE(any_message_contains(findings, "unknown waiver token"));
  EXPECT_TRUE(any_message_contains(findings, "empty reason"));
}

TEST(DetlintWaivers, StaleWaiversAreFindings) {
  // A well-formed waiver with no matching finding anywhere near it must not
  // silently rot in the tree.
  const SourceFile file{"core/w.cpp", "core/w.cpp",
                        "#include <vector>\n"
                        "int f(const std::vector<int>& v) {\n"
                        "  int sum = 0;\n"
                        "  // detlint: ordered-ok(vector iteration is ordered)\n"
                        "  for (const int x : v) sum += x;\n"
                        "  return sum;\n"
                        "}\n"};
  const auto findings = analyze({file});
  EXPECT_EQ(count_rule(findings, "WAIVER"), 1u);
  EXPECT_TRUE(any_message_contains(findings, "stale waiver"));
}

TEST(DetlintWaivers, WaiverTokenMustMatchTheRule) {
  // An rtti-ok waiver cannot excuse a D1 finding.
  const SourceFile file{
      "core/w.cpp", "core/w.cpp",
      "#include <unordered_map>\n"
      "int f() {\n"
      "  std::unordered_map<int, int> m;\n"
      "  int sum = 0;\n"
      "  for (const auto& [k, v] : m) sum += k + v;  // detlint: rtti-ok(wrong token)\n"
      "  return sum;\n"
      "}\n"};
  const auto findings = analyze({file});
  EXPECT_EQ(count_rule(findings, "D1"), 1u);
  EXPECT_TRUE(has_unwaived(findings));
  // The wrong-token waiver is also stale (it matched nothing).
  EXPECT_EQ(count_rule(findings, "WAIVER"), 1u);
}

// ------------------------------------------------------------------- misc --

TEST(DetlintScoping, RuleAppliesParsesCommaSeparatedPrefixes) {
  const RuleInfo rule{"DX", "test", "x-ok", "sched/,cluster/machine.cpp"};
  EXPECT_TRUE(rule_applies(rule, "sched/backfill.cpp"));
  EXPECT_TRUE(rule_applies(rule, "cluster/machine.cpp"));
  EXPECT_FALSE(rule_applies(rule, "cluster/energy.cpp"));
  EXPECT_FALSE(rule_applies(rule, "workload/swf.cpp"));
  const RuleInfo everywhere{"DY", "test", "y-ok", ""};
  EXPECT_TRUE(rule_applies(everywhere, "anything/at/all.cpp"));
}

TEST(DetlintRuleset, HashIsStableAndWellFormed) {
  const std::string hash = ruleset_hash();
  EXPECT_EQ(hash.size(), 16u);
  EXPECT_EQ(hash, ruleset_hash());
  EXPECT_NE(hash, "0000000000000000");
  EXPECT_EQ(hash.find_first_not_of("0123456789abcdef"), std::string::npos);
  // The hash is a compile-time constant of the rule tables.
  static_assert(ruleset_hash_value() != 0);
}

TEST(DetlintRuleset, CommentsStringsAndDirectivesNeverTrigger) {
  const SourceFile file{
      "core/w.cpp", "core/w.cpp",
      "#include <unordered_map>\n"
      "// mentioning rand() or dynamic_cast in prose is fine\n"
      "/* std::random_device in a block comment too */\n"
      "const char* kDoc = \"system_clock and typeid\";\n"};
  const auto findings = analyze({file});
  EXPECT_TRUE(findings.empty()) << findings.front().message;
}

}  // namespace
}  // namespace detlint
