// Class-partitioned bitmap free-node index: the free side of the
// ClusterStateIndex.
//
// Machine::find_free_nodes scans the node table (and, for constrained
// requests, filters every free node) on every call — and SD-Policy picks
// from inside the mate-combination DFS, so a scan would cost machine-size-
// proportional work per *evaluated combination*. A run-based index made
// picks O(runs touched), but every free/busy flip still paid O(log runs)
// tree maintenance on pointer-chasing map nodes. This index is the word-
// level endgame: per attribute class, a flat vector of 64-bit words (bit i
// set <=> node i is free AND belongs to the class) plus one summary level
// (summary bit w set <=> words[w] != 0) and a cached free-node popcount.
//
//  * a free/busy flip sets or clears one bit and maintains the summary
//    bit and the counts — O(1), no allocation, no tree rebalance;
//  * lowest-id picks OR the eligible classes' words on the fly (summary
//    words first, so empty regions cost one bit test per 64 words) and
//    peel set bits with ctz — ascending ids by construction;
//  * contiguous picks walk the same merged words carrying the length of
//    the run that ends at each word's top bit, so a span crossing word
//    boundaries is found without ever materializing runs.
//
// Node-id layout: node id n lives in word n/64, bit n%64, in every class's
// word vector (a node's bit is permanently zero in the classes it does not
// belong to). Machines whose node count is not a multiple of 64 leave the
// tail bits of the last word permanently zero ("dead bits"): ids >= the
// node count are never inserted, so popcounts and scans need no masking.
//
// The index answers with exactly the node ids Machine::find_free_nodes
// would return (lowest-first, earliest adequate span for contiguous
// requests). check_consistent checks every bit, the summary invariant and
// the cached counts against a brute-force node scan; runs are a pure
// function of the bits, so no run view is kept or checked. The
// ClusterStateIndex additionally compares every indexed pick against the
// machine scan under its crosscheck() switch.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace sdsched {

class FreeNodeIndex {
 public:
  FreeNodeIndex() = default;

  /// `node_class[i]` is node i's attribute class (< `classes`). Every node
  /// starts free; the owner erases the occupied ones while indexing.
  FreeNodeIndex(std::vector<int> node_class, int classes);

  /// Node `id` became free (must currently be occupied). O(1).
  void insert(int id);

  /// Node `id` became occupied (must currently be free). O(1).
  void erase(int id);

  [[nodiscard]] int free_count() const noexcept { return free_; }

  /// Free nodes of one class (cached popcount).
  [[nodiscard]] int free_count_of_class(int cls) const {
    return classes_[static_cast<std::size_t>(cls)].free;
  }

  /// The `count` lowest free ids among nodes whose class is listed in
  /// `classes` (ascending class indices); with `contiguous`, the first
  /// `count` ids of the earliest maximal run of consecutive ids instead.
  /// nullopt when not enough eligible free nodes (or no adequate run).
  /// `count` must be >= 1.
  [[nodiscard]] std::optional<std::vector<int>> pick(int count,
                                                     const std::vector<int>& classes,
                                                     bool contiguous) const;

  /// One class's bitmap words / summary words (tests: the summary-level
  /// invariant `summary bit w == (words[w] != 0)` is asserted after every
  /// mutation by the property suite).
  [[nodiscard]] const std::vector<std::uint64_t>& words_of_class(int cls) const {
    return classes_[static_cast<std::size_t>(cls)].words;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& summary_of_class(int cls) const {
    return classes_[static_cast<std::size_t>(cls)].summary;
  }

  /// Merged bitmap and summary words pick() has read, over every call.
  [[nodiscard]] std::uint64_t words_read() const noexcept { return words_read_; }

  /// Verify against `is_free` (a brute-force free predicate over node ids):
  /// every bit, the summary level and the cached counts. On mismatch
  /// returns false and, if given, fills `diagnosis`.
  [[nodiscard]] bool check_consistent(const std::vector<bool>& is_free,
                                      std::string* diagnosis = nullptr) const;

 private:
  /// One attribute class's slice of the bitmap.
  struct ClassBits {
    std::vector<std::uint64_t> words;    ///< bit i of word i/64: node free & in class
    std::vector<std::uint64_t> summary;  ///< bit w of word w/64: words[w] != 0
    int free = 0;                        ///< cached popcount over `words`
  };

  std::vector<ClassBits> classes_;
  std::vector<int> node_class_;
  std::size_t word_count_ = 0;  ///< ceil(node count / 64), shared by all classes
  int free_ = 0;
  mutable std::uint64_t words_read_ = 0;
};

}  // namespace sdsched
