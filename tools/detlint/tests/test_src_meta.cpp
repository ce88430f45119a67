// The meta-test: detlint's contract actually holds on the real tree. Runs
// the analyzer over `src/` and fails on any unwaived finding — this is what
// `ctest -L lint` carries into tier-1, so a PR that introduces an unordered
// iteration, a wall-clock read, RTTI in a scheduler, or an unnotified
// occupancy mutation fails the suite before any golden can drift.
#include "analyzer.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

namespace detlint {
namespace {

std::vector<Finding> analyze_src() {
  return analyze_tree(std::filesystem::path(SDSCHED_SOURCE_DIR) / "src",
                      "src/");
}

std::string pretty(const std::vector<Finding>& findings, bool waived) {
  std::ostringstream out;
  for (const auto& f : findings) {
    if (f.waived != waived) continue;
    out << "  " << f.file << ":" << f.line << ": [" << f.rule << "] "
        << f.message << "\n";
  }
  return out.str();
}

TEST(DetlintSrcMeta, NoUnwaivedFindingsInSrc) {
  const auto findings = analyze_src();
  EXPECT_FALSE(has_unwaived(findings))
      << "unwaived determinism-contract findings:\n" << pretty(findings, false)
      << "either fix the site or add a `// detlint: <waiver>(<reason>)` "
         "with justification (see docs/determinism.md)";
}

TEST(DetlintSrcMeta, KnownWaiversAreStillPresentAndUsed) {
  // machine.cpp needs no D4 waiver: the constructor writes no occupancy
  // counter, and every busy_cores_/occupied_nodes_ write sits in a mutator
  // that notifies. A new waiver there means a mutator stopped notifying —
  // fix the mutator, or update this inventory and docs/determinism.md.
  const auto findings = analyze_src();
  std::size_t machine_waived = 0;
  for (const auto& f : findings) {
    if (f.waived && f.rule == "D4" && f.file == "src/cluster/machine.cpp") {
      ++machine_waived;
    }
  }
  EXPECT_EQ(machine_waived, 0u)
      << "expected no waivers in src/cluster/machine.cpp; found:\n"
      << pretty(findings, true);
}

TEST(DetlintSrcMeta, AnalyzerSeesTheWholeTree) {
  // The tree is clean, so an empty finding list cannot tell a clean scan
  // from one that analyzed nothing (a rename, a walk bug, D4 markers that
  // no longer match the real member names). Lint a copy of src/ in which
  // one notify call is cut from machine.cpp: the scan must flag it.
  namespace fs = std::filesystem;
  const fs::path src = fs::path(SDSCHED_SOURCE_DIR) / "src";
  std::size_t sources = 0;
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file()) continue;
    const auto ext = entry.path().extension();
    if (ext == ".h" || ext == ".cpp") ++sources;
  }
  EXPECT_GT(sources, 90u);  // 113 files at the time of writing

  const fs::path copy = fs::path(DETLINT_SCRATCH_DIR) / "src";
  fs::remove_all(copy);
  fs::create_directories(copy);
  fs::copy(src, copy, fs::copy_options::recursive);
  const fs::path machine = copy / "cluster" / "machine.cpp";
  std::string text;
  {
    std::ifstream in(machine, std::ios::binary);
    ASSERT_TRUE(in.good()) << machine;
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  const std::string call = "notify(id);";
  const std::size_t at = text.find(call);
  ASSERT_NE(at, std::string::npos) << "no notify call left to cut in " << machine;
  text.erase(at, call.size());
  std::ofstream(machine, std::ios::binary | std::ios::trunc) << text;

  const auto findings = analyze_tree(copy, "src/");
  fs::remove_all(copy);
  std::size_t d4 = 0;
  for (const auto& f : findings) {
    if (!f.waived && f.rule == "D4" && f.file == "src/cluster/machine.cpp") ++d4;
  }
  EXPECT_EQ(d4, 1u) << "expected one D4 finding for the cut notify call; got:\n"
                    << pretty(findings, false);
}

}  // namespace
}  // namespace detlint
