#include "cluster/free_node_index.h"

#include <bit>
#include <cassert>
#include <sstream>

namespace sdsched {

FreeNodeIndex::FreeNodeIndex(std::vector<int> node_class, int classes)
    : node_class_(std::move(node_class)) {
  word_count_ = (node_class_.size() + 63) / 64;
  const std::size_t summary_count = (word_count_ + 63) / 64;
  classes_.resize(static_cast<std::size_t>(classes));
  for (ClassBits& cb : classes_) {
    cb.words.assign(word_count_, 0);
    cb.summary.assign(summary_count, 0);
  }
  // Every node starts free: set its bit in its class's slice. Tail bits of
  // the last word (ids >= node count) stay permanently zero.
  for (std::size_t id = 0; id < node_class_.size(); ++id) {
    ClassBits& cb = classes_[static_cast<std::size_t>(node_class_[id])];
    cb.words[id >> 6] |= std::uint64_t{1} << (id & 63);
    ++cb.free;
  }
  for (ClassBits& cb : classes_) {
    for (std::size_t w = 0; w < word_count_; ++w) {
      if (cb.words[w] != 0) cb.summary[w >> 6] |= std::uint64_t{1} << (w & 63);
    }
  }
  free_ = static_cast<int>(node_class_.size());
}

void FreeNodeIndex::insert(int id) {
  const auto uid = static_cast<std::size_t>(id);
  ClassBits& cb = classes_[static_cast<std::size_t>(node_class_[uid])];
  const std::size_t w = uid >> 6;
  const std::uint64_t bit = std::uint64_t{1} << (uid & 63);
  assert((cb.words[w] & bit) == 0 && "node inserted into the free index twice");
  cb.words[w] |= bit;
  cb.summary[w >> 6] |= std::uint64_t{1} << (w & 63);
  ++cb.free;
  ++free_;
}

void FreeNodeIndex::erase(int id) {
  const auto uid = static_cast<std::size_t>(id);
  ClassBits& cb = classes_[static_cast<std::size_t>(node_class_[uid])];
  const std::size_t w = uid >> 6;
  const std::uint64_t bit = std::uint64_t{1} << (uid & 63);
  assert((cb.words[w] & bit) != 0 && "node erased from the free index while not free");
  cb.words[w] &= ~bit;
  if (cb.words[w] == 0) cb.summary[w >> 6] &= ~(std::uint64_t{1} << (w & 63));
  --cb.free;
  --free_;
}

std::optional<std::vector<int>> FreeNodeIndex::pick(int count,
                                                    const std::vector<int>& classes,
                                                    bool contiguous) const {
  assert(count >= 1);
  // The merged view over the eligible classes: per word, OR of the classes'
  // words (a node belongs to exactly one class, so the OR is a disjoint
  // union). The common homogeneous case (one class) reads the slice
  // directly; the k-class OR costs k loads per visited word, and the merged
  // summary skips 64 empty words per summary bit either way.
  const ClassBits* single = nullptr;
  if (classes.size() == 1) {
    single = &classes_[static_cast<std::size_t>(classes.front())];
  }
  const auto word_at = [&](std::size_t w) -> std::uint64_t {
    ++words_read_;
    if (single != nullptr) return single->words[w];
    std::uint64_t bits = 0;
    for (const int cls : classes) bits |= classes_[static_cast<std::size_t>(cls)].words[w];
    return bits;
  };
  const auto summary_at = [&](std::size_t s) -> std::uint64_t {
    ++words_read_;
    if (single != nullptr) return single->summary[s];
    std::uint64_t bits = 0;
    for (const int cls : classes) bits |= classes_[static_cast<std::size_t>(cls)].summary[s];
    return bits;
  };
  /// First word index >= `from` whose merged word is non-empty, or
  /// word_count_ when none — one summary bit test per 64 skipped words.
  const auto next_word = [&](std::size_t from) -> std::size_t {
    if (from >= word_count_) return word_count_;
    std::size_t s = from >> 6;
    std::uint64_t sw = summary_at(s) >> (from & 63) << (from & 63);  // clear bits < from
    const std::size_t summary_count = (word_count_ + 63) / 64;
    while (sw == 0) {
      if (++s >= summary_count) return word_count_;
      sw = summary_at(s);
    }
    return (s << 6) + static_cast<std::size_t>(std::countr_zero(sw));
  };

  if (!contiguous) {
    std::vector<int> picked;
    picked.reserve(static_cast<std::size_t>(count));
    for (std::size_t w = next_word(0); w < word_count_; w = next_word(w + 1)) {
      std::uint64_t bits = word_at(w);
      while (bits != 0) {
        picked.push_back(static_cast<int>((w << 6) +
                                          static_cast<std::size_t>(std::countr_zero(bits))));
        if (static_cast<int>(picked.size()) == count) return picked;
        bits &= bits - 1;  // clear the lowest set bit
      }
    }
    return std::nullopt;  // not enough eligible free nodes
  }

  // Contiguous: walk merged words in order, carrying the length of the run
  // that ends at the previous word's top bit. Inside a word, runs are
  // peeled lowest-first with ctz on the word and on its complement, so the
  // first time the carried length reaches `count` names the earliest
  // adequate span. An empty word breaks any run, and the summary level
  // fast-forwards the walk to the next populated word.
  int span_start = -1;
  int span_length = 0;
  std::size_t w = next_word(0);
  while (w < word_count_) {
    const std::uint64_t bits = word_at(w);
    int pos = 0;
    while (pos < 64) {
      const std::uint64_t rest = bits >> pos;
      if (rest == 0) break;
      const int gap = std::countr_zero(rest);
      pos += gap;
      const std::uint64_t run_bits = bits >> pos;  // pos < 64, bit pos set
      const int len = run_bits == ~std::uint64_t{0} ? 64 - pos
                                                    : std::countr_zero(~run_bits);
      if (pos == 0 && span_length > 0) {
        span_length += len;  // run continues across the word boundary
      } else {
        span_start = static_cast<int>(w << 6) + pos;
        span_length = len;
      }
      if (span_length >= count) {
        std::vector<int> picked(static_cast<std::size_t>(count));
        for (int i = 0; i < count; ++i) {
          picked[static_cast<std::size_t>(i)] = span_start + i;
        }
        return picked;
      }
      pos += len;
    }
    // Carry only a run that reaches the word's top bit into the next word;
    // and only a directly adjacent word can extend it.
    const bool carries = (bits >> 63) != 0;
    if (!carries) span_length = 0;
    const std::size_t next = next_word(w + 1);
    if (carries && next != w + 1) span_length = 0;
    w = next;
  }
  return std::nullopt;
}

bool FreeNodeIndex::check_consistent(const std::vector<bool>& is_free,
                                     std::string* diagnosis) const {
  assert(is_free.size() == node_class_.size());
  const auto fail = [diagnosis](const std::string& what) {
    if (diagnosis != nullptr) *diagnosis = what;
    return false;
  };

  // Every bit against the brute-force predicate, plus the summary invariant
  // and the cached popcounts.
  int expect_free = 0;
  std::vector<int> expect_class_free(classes_.size(), 0);
  for (std::size_t id = 0; id < node_class_.size(); ++id) {
    if (is_free[id]) {
      ++expect_free;
      ++expect_class_free[static_cast<std::size_t>(node_class_[id])];
    }
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      const bool bit =
          ((classes_[c].words[id >> 6] >> (id & 63)) & 1u) != 0;
      const bool expect =
          is_free[id] && static_cast<std::size_t>(node_class_[id]) == c;
      if (bit != expect) {
        std::ostringstream oss;
        oss << "bitmap index node " << id << " class " << c << ": bit " << bit
            << " != scanned " << expect;
        return fail(oss.str());
      }
    }
  }
  if (free_ != expect_free) {
    std::ostringstream oss;
    oss << "bitmap index free count " << free_ << " != scanned " << expect_free;
    return fail(oss.str());
  }
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    const ClassBits& cb = classes_[c];
    if (cb.free != expect_class_free[c]) {
      std::ostringstream oss;
      oss << "bitmap index class " << c << " free count " << cb.free
          << " != scanned " << expect_class_free[c];
      return fail(oss.str());
    }
    for (std::size_t w = 0; w < word_count_; ++w) {
      const bool summary_bit = ((cb.summary[w >> 6] >> (w & 63)) & 1u) != 0;
      if (summary_bit != (cb.words[w] != 0)) {
        std::ostringstream oss;
        oss << "bitmap index class " << c << " summary bit for word " << w
            << " violates the summary invariant";
        return fail(oss.str());
      }
    }
  }
  return true;
}

}  // namespace sdsched
