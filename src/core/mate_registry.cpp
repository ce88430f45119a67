#include "core/mate_registry.h"

#include <algorithm>
#include <string>

namespace sdsched {

namespace {

void insert_sorted(std::vector<JobId>& ids, JobId id) {
  // Ids arrive mostly in ascending order (the registry assigns them
  // densely), so the push_back fast path dominates.
  if (ids.empty() || ids.back() < id) {
    ids.push_back(id);
    return;
  }
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it != ids.end() && *it == id) return;
  ids.insert(it, id);
}

void erase_sorted(std::vector<JobId>& ids, JobId id) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it != ids.end() && *it == id) ids.erase(it);
}

}  // namespace

bool MateRegistry::is_mate(const Job& job) noexcept {
  return job.running() && job.can_be_mate() && !job.started_as_guest && job.guests.empty();
}

void MateRegistry::sync_mate(const Job& job) {
  if (is_mate(job)) {
    list_mate(job);
  } else {
    unlist_mate(job.spec.id);
  }
}

void MateRegistry::list_mate(const Job& job) {
  const JobId id = job.spec.id;
  const auto it = std::lower_bound(mates_.begin(), mates_.end(), id);
  if (it != mates_.end() && *it == id) return;
  const int weight = static_cast<int>(job.shares.size());
  mate_weights_.insert(mate_weights_.begin() + (it - mates_.begin()), weight);
  mates_.insert(it, id);
  count_weight(weight, +1);
}

void MateRegistry::unlist_mate(JobId id) {
  const auto it = std::lower_bound(mates_.begin(), mates_.end(), id);
  if (it == mates_.end() || *it != id) return;
  const auto w = mate_weights_.begin() + (it - mates_.begin());
  count_weight(*w, -1);
  mate_weights_.erase(w);
  mates_.erase(it);
}

void MateRegistry::count_weight(int weight, int delta) {
  const auto slot = static_cast<std::size_t>(weight);
  if (slot >= weight_count_.size()) weight_count_.resize(slot + 1, 0);
  int& count = weight_count_[slot];
  const auto pos = std::lower_bound(weights_.begin(), weights_.end(), weight);
  if (count == 0) weights_.insert(pos, weight);
  count += delta;
  if (count == 0) weights_.erase(pos);
}

bool MateRegistry::can_sum_to(int weight, int max_mates) const {
  return reachable(weight, max_mates, weights_.size());
}

bool MateRegistry::reachable(int weight, int max_mates, std::size_t end) const {
  if (weight == 0) return true;
  if (weight < 0 || max_mates <= 0) return false;
  if (max_mates == 1) {
    // One lookup: `weight` itself, if it lies below the weights already used.
    const auto slot = static_cast<std::size_t>(weight);
    return slot < weight_count_.size() && weight_count_[slot] > 0 &&
           (end == weights_.size() || weight < weights_[end]);
  }
  // Largest weight first, each taken k = count..1 times, then only smaller
  // ones: every multiset of listed weights is tried at most once.
  auto i = static_cast<std::size_t>(
      std::upper_bound(weights_.begin(), weights_.begin() + static_cast<std::ptrdiff_t>(end),
                       weight) -
      weights_.begin());
  while (i-- > 0) {
    const int w = weights_[i];
    // Only smaller weights remain: even max_mates of this one fall short.
    if (static_cast<long long>(w) * max_mates < weight) return false;
    const int uses =
        std::min({weight_count_[static_cast<std::size_t>(w)], max_mates, weight / w});
    for (int k = uses; k >= 1; --k) {
      if (reachable(weight - k * w, max_mates - k, i)) return true;
    }
  }
  return false;
}

void MateRegistry::seed(const JobRegistry& jobs) {
  running_.clear();
  mates_.clear();
  mate_weights_.clear();
  weight_count_.clear();
  weights_.clear();
  for (const Job& job : jobs) {
    if (!job.running()) continue;
    running_.push_back(job.spec.id);
    if (is_mate(job)) list_mate(job);
  }
}

void MateRegistry::on_start(const Job& job, const JobRegistry& jobs) {
  insert_sorted(running_, job.spec.id);
  sync_mate(job);
  // Only a guest has mates; each one it joined now hosts it.
  for (const JobId mate : job.mates) sync_mate(jobs.at(mate));
}

void MateRegistry::on_finish(const Job& job, const JobRegistry& jobs) {
  erase_sorted(running_, job.spec.id);
  unlist_mate(job.spec.id);
  // A finished guest's `mates` still names the survivors (a mate that
  // finished first was erased from it), each hosting no guest again.
  for (const JobId mate : job.mates) sync_mate(jobs.at(mate));
}

bool MateRegistry::check_consistent(const JobRegistry& jobs,
                                    std::string* diagnosis) const {
  std::vector<JobId> expect_running;
  std::vector<JobId> expect_mates;
  std::vector<int> expect_weights;
  for (const Job& job : jobs) {
    if (!job.running()) continue;
    expect_running.push_back(job.spec.id);
    if (!is_mate(job)) continue;
    expect_mates.push_back(job.spec.id);
    expect_weights.push_back(static_cast<int>(job.shares.size()));
  }
  const auto fail = [diagnosis](const char* what, const std::string& detail) {
    if (diagnosis != nullptr) {
      *diagnosis = std::string("mate registry ") + what + " diverged from the job scan (" +
                   detail + ")";
    }
    return false;
  };
  const auto sizes = [](std::size_t have, std::size_t want) {
    return "indexed " + std::to_string(have) + " ids, scanned " + std::to_string(want);
  };
  if (running_ != expect_running) {
    return fail("running set", sizes(running_.size(), expect_running.size()));
  }
  if (mates_ != expect_mates) return fail("mate set", sizes(mates_.size(), expect_mates.size()));

  std::vector<int> expect_count;
  for (const int w : expect_weights) {
    const auto slot = static_cast<std::size_t>(w);
    if (slot >= expect_count.size()) expect_count.resize(slot + 1, 0);
    ++expect_count[slot];
  }
  std::vector<int> expect_distinct;
  for (std::size_t w = 0; w < std::max(weight_count_.size(), expect_count.size()); ++w) {
    const int have = w < weight_count_.size() ? weight_count_[w] : 0;
    const int want = w < expect_count.size() ? expect_count[w] : 0;
    if (have != want) {
      return fail("weight histogram", "node count " + std::to_string(w) + ": indexed " +
                                          std::to_string(have) + " mates, scanned " +
                                          std::to_string(want));
    }
    if (want > 0) expect_distinct.push_back(static_cast<int>(w));
  }
  if (weights_ != expect_distinct || mate_weights_ != expect_weights) {
    return fail("weight list", "per-mate node counts or the distinct weights");
  }
  return true;
}

}  // namespace sdsched
