#include "sched/reservation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "util/rng.h"

namespace sdsched {
namespace {

TEST(Reservation, EmptyProfileIsAllFree) {
  const ReservationProfile profile(8);
  EXPECT_EQ(profile.available_at(0), 8);
  EXPECT_EQ(profile.available_at(1000), 8);
  EXPECT_EQ(profile.earliest_start(8, 100, 0), 0);
}

TEST(Reservation, RequestBeyondCapacityNever) {
  const ReservationProfile profile(4);
  EXPECT_EQ(profile.earliest_start(5, 10, 0), ReservationProfile::kNever);
}

TEST(Reservation, ReserveCarvesAvailability) {
  ReservationProfile profile(8);
  profile.reserve(10, 20, 3);
  EXPECT_EQ(profile.available_at(9), 8);
  EXPECT_EQ(profile.available_at(10), 5);
  EXPECT_EQ(profile.available_at(19), 5);
  EXPECT_EQ(profile.available_at(20), 8);
}

TEST(Reservation, EarliestStartWaitsForRelease) {
  ReservationProfile profile(8);
  profile.reserve(0, 100, 8);  // machine fully busy until t=100
  EXPECT_EQ(profile.earliest_start(1, 10, 0), 100);
  EXPECT_EQ(profile.earliest_start(8, 10, 0), 100);
}

TEST(Reservation, PartialAvailabilityAllowsSmallJobs) {
  ReservationProfile profile(8);
  profile.reserve(0, 100, 6);
  EXPECT_EQ(profile.earliest_start(2, 50, 0), 0);
  EXPECT_EQ(profile.earliest_start(3, 50, 0), 100);
}

TEST(Reservation, WindowMustStayFeasible) {
  // 4 nodes free now, but a reservation at t=30 dips below the request:
  // a 50s window cannot start before the dip clears.
  ReservationProfile profile(8);
  profile.reserve(30, 60, 6);
  EXPECT_EQ(profile.earliest_start(4, 50, 0), 60);
  // A shorter job fits before the dip.
  EXPECT_EQ(profile.earliest_start(4, 30, 0), 0);
}

TEST(Reservation, NotBeforeRespected) {
  ReservationProfile profile(8);
  EXPECT_EQ(profile.earliest_start(2, 10, 500), 500);
}

TEST(Reservation, BackToBackReservations) {
  ReservationProfile profile(4);
  profile.reserve(0, 10, 4);
  profile.reserve(10, 20, 4);
  EXPECT_EQ(profile.earliest_start(1, 5, 0), 20);
}

TEST(Reservation, ReleaseExtendsAvailability) {
  ReservationProfile profile(4);
  profile.reserve(0, 50, 2);  // two nodes come back at 50, two at 100
  profile.reserve(0, 100, 2);
  EXPECT_EQ(profile.available_at(49), 0);
  EXPECT_EQ(profile.available_at(50), 2);
  EXPECT_EQ(profile.earliest_start(2, 10, 0), 50);
}

TEST(Reservation, ForeverReservationBlocksPermanently) {
  ReservationProfile profile(4);
  profile.reserve(10, ReservationProfile::kForever, 4);
  EXPECT_EQ(profile.earliest_start(1, 5, 0), 0);   // fits before
  EXPECT_EQ(profile.earliest_start(1, 20, 0), ReservationProfile::kNever);
}

TEST(Reservation, ZeroNodeRequestStartsImmediately) {
  ReservationProfile profile(4);
  profile.reserve(0, 100, 4);
  EXPECT_EQ(profile.earliest_start(0, 10, 7), 7);
}

TEST(Reservation, ExactFitAtBoundary) {
  // Window ending exactly when a dip begins is feasible.
  ReservationProfile profile(4);
  profile.reserve(100, 200, 4);
  EXPECT_EQ(profile.earliest_start(4, 100, 0), 0);
  EXPECT_EQ(profile.earliest_start(4, 101, 0), 200);
}

TEST(Reservation, OverlappingReservationsStack) {
  ReservationProfile profile(10);
  profile.reserve(0, 50, 4);
  profile.reserve(25, 75, 4);
  EXPECT_EQ(profile.available_at(30), 2);
  EXPECT_EQ(profile.earliest_start(3, 10, 0), 0);    // 6 free before 25
  EXPECT_EQ(profile.earliest_start(3, 30, 0), 50);   // dip at 25 blocks
}

TEST(Reservation, NotBeforeBetweenBreakpoints) {
  // not_before falls strictly inside an infeasible segment: the earliest
  // start is the segment's release, not a breakpoint near not_before.
  ReservationProfile profile(8);
  profile.reserve(10, 20, 6);
  profile.reserve(30, 40, 6);
  EXPECT_EQ(profile.earliest_start(4, 5, 15), 20);
  // A longer window from the same not_before must clear the second dip too.
  EXPECT_EQ(profile.earliest_start(4, 15, 15), 40);
  // not_before inside a *feasible* gap starts right there.
  EXPECT_EQ(profile.earliest_start(4, 5, 22), 22);
}

TEST(Reservation, DurationClampsToOne) {
  ReservationProfile profile(4);
  profile.reserve(5, 10, 4);
  // Zero/negative durations behave as a 1-second window.
  EXPECT_EQ(profile.earliest_start(1, 0, 5), 10);
  EXPECT_EQ(profile.earliest_start(1, -7, 5), 10);
  // Window [0, 1) closes before the dip at 5 begins.
  EXPECT_EQ(profile.earliest_start(4, 0, 0), 0);
  EXPECT_EQ(profile.min_available(0, 0), profile.min_available(0, 1));
}

TEST(Reservation, PermanentReservationReturnsNever) {
  ReservationProfile profile(4);
  profile.reserve(0, ReservationProfile::kForever, 2);
  EXPECT_EQ(profile.earliest_start(3, 10, 0), ReservationProfile::kNever);
  EXPECT_EQ(profile.earliest_start(2, 10, 0), 0);  // what remains is enough
  EXPECT_EQ(profile.earliest_start(5, 1, 0), ReservationProfile::kNever);  // > capacity
}

TEST(Reservation, MinAvailableScansTheWholeWindow) {
  ReservationProfile profile(8);
  profile.reserve(10, 20, 3);
  EXPECT_EQ(profile.min_available(0, 10), 8);  // window ends as the dip starts
  EXPECT_EQ(profile.min_available(0, 11), 5);
  EXPECT_EQ(profile.min_available(5, 100), 5);
  EXPECT_EQ(profile.min_available(20, 5), 8);
  profile.reserve(12, 14, 5);
  EXPECT_EQ(profile.min_available(0, 100), 0);
}

TEST(Reservation, BaseSnapshotPlusOverlay) {
  // A base snapshot from the cluster index, then pass-local reservations on
  // top; clear_overlay() must restore exactly the base.
  ReservationProfile profile;
  profile.set_base(8, /*origin=*/100, {{150, 3}, {200, 2}});
  EXPECT_EQ(profile.capacity(), 8);
  EXPECT_EQ(profile.available_at(100), 3);
  EXPECT_EQ(profile.available_at(150), 6);
  EXPECT_EQ(profile.available_at(200), 8);
  EXPECT_EQ(profile.first_release_time(), 150);
  EXPECT_EQ(profile.earliest_start(8, 10, 100), 200);

  profile.reserve(100, 160, 3);  // the pass starts a job on the free nodes
  EXPECT_EQ(profile.available_at(100), 0);
  EXPECT_EQ(profile.available_at(150), 3);
  EXPECT_EQ(profile.earliest_start(4, 10, 100), 160);

  profile.clear_overlay();
  EXPECT_EQ(profile.available_at(100), 3);
  EXPECT_EQ(profile.earliest_start(8, 10, 100), 200);
  EXPECT_EQ(profile.first_release_time(), 150);
}

/// Brute-force reference: availability by summing raw intervals, earliest
/// start by trying every breakpoint candidate.
struct ReferenceProfile {
  int capacity;
  std::vector<std::tuple<SimTime, SimTime, int>> ops;  ///< (start, end, delta)

  int available_at(SimTime t) const {
    int free = capacity;
    for (const auto& [s, e, d] : ops) {
      if (s <= t && t < e) free += d;
    }
    return free;
  }
  bool window_ok(SimTime t, SimTime dur, int nodes,
                 const std::vector<SimTime>& breaks) const {
    if (available_at(t) < nodes) return false;
    for (const SimTime b : breaks) {
      if (b > t && b < t + dur && available_at(b) < nodes) return false;
    }
    return true;
  }
  SimTime earliest_start(int nodes, SimTime dur, SimTime not_before) const {
    if (nodes > capacity) return ReservationProfile::kNever;
    if (nodes <= 0) return not_before;
    dur = std::max<SimTime>(dur, 1);
    std::vector<SimTime> breaks;
    for (const auto& [s, e, d] : ops) {
      breaks.push_back(s);
      if (e < ReservationProfile::kForever) breaks.push_back(e);
    }
    std::sort(breaks.begin(), breaks.end());
    std::vector<SimTime> candidates{not_before};
    for (const SimTime b : breaks) {
      if (b > not_before) candidates.push_back(b);
    }
    for (const SimTime c : candidates) {
      if (window_ok(c, dur, nodes, breaks)) return c;
    }
    return ReservationProfile::kNever;
  }
  int min_available(SimTime start, SimTime dur) const {
    const SimTime end = start + std::max<SimTime>(dur, 1);
    int min_free = available_at(start);
    for (const auto& [s, e, d] : ops) {
      for (const SimTime b : {s, e}) {
        if (b > start && b < end) min_free = std::min(min_free, available_at(b));
      }
    }
    return min_free;
  }
  void add_base(SimTime origin, const std::vector<std::pair<SimTime, int>>& groups) {
    for (const auto& [free_at, n] : groups) ops.emplace_back(origin, free_at, -n);
  }
  std::vector<SimTime> break_times() const {
    std::vector<SimTime> breaks;
    for (const auto& [s, e, d] : ops) {
      breaks.push_back(s);
      if (e < ReservationProfile::kForever) breaks.push_back(e);
    }
    return breaks;
  }
};

/// Every query of `profile` against `ref`: availability on, just before and
/// just after each step time, then `queries` random windows (some starting
/// on a step) for earliest_start, fits and min_available.
void expect_matches(const ReservationProfile& profile, const ReferenceProfile& ref, Rng& rng,
                    int queries, SimTime max_duration, const std::string& label) {
  const std::vector<SimTime> breaks = ref.break_times();
  for (const SimTime b : breaks) {
    for (const SimTime t : {b - 1, b, b + 1}) {
      ASSERT_EQ(profile.available_at(t), ref.available_at(t)) << label << " t=" << t;
    }
  }
  const SimTime lo = breaks.empty() ? 0 : *std::min_element(breaks.begin(), breaks.end()) - 10;
  const SimTime hi = breaks.empty() ? 100 : *std::max_element(breaks.begin(), breaks.end()) + 10;
  for (int q = 0; q < queries; ++q) {
    const SimTime t = !breaks.empty() && rng.chance(0.5)
                          ? breaks[static_cast<std::size_t>(
                                rng.uniform_int(0, static_cast<std::int64_t>(breaks.size()) - 1))]
                          : rng.uniform_int(lo, hi);
    const int nodes = static_cast<int>(rng.uniform_int(0, ref.capacity + 1));
    const SimTime dur = rng.uniform_int(-2, max_duration);
    ASSERT_EQ(profile.earliest_start(nodes, dur, t), ref.earliest_start(nodes, dur, t))
        << label << " nodes=" << nodes << " dur=" << dur << " not_before=" << t;
    ASSERT_EQ(profile.fits(nodes, dur, t), ref.earliest_start(nodes, dur, t) == t)
        << label << " nodes=" << nodes << " dur=" << dur << " start=" << t;
    ASSERT_EQ(profile.min_available(t, dur), ref.min_available(t, dur))
        << label << " start=" << t << " dur=" << dur;
  }
}

TEST(Reservation, RandomizedAgainstBruteForce) {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto rnd = [&state](std::uint64_t bound) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state % bound;
  };
  for (int round = 0; round < 40; ++round) {
    const int capacity = 2 + static_cast<int>(rnd(14));
    ReservationProfile profile;
    ReferenceProfile ref{capacity, {}};
    // A base snapshot for half the rounds, pure overlay for the rest.
    if (round % 2 == 0) {
      std::vector<std::pair<SimTime, int>> groups;
      SimTime t = 1;
      int left = capacity;
      while (left > 0 && rnd(4) != 0) {
        t += 1 + static_cast<SimTime>(rnd(40));
        const int n = 1 + static_cast<int>(rnd(static_cast<std::uint64_t>(left)));
        groups.emplace_back(t, n);
        left -= n;
      }
      profile.set_base(capacity, 0, groups);
      for (const auto& [free_at, n] : groups) {
        ref.ops.emplace_back(0, free_at, -n);
      }
    } else {
      profile = ReservationProfile(capacity);
    }
    for (int op = 0; op < 12; ++op) {
      const SimTime start = static_cast<SimTime>(rnd(120));
      const SimTime end = rnd(8) == 0 ? ReservationProfile::kForever
                                      : start + 1 + static_cast<SimTime>(rnd(60));
      const int nodes = 1 + static_cast<int>(rnd(3));
      profile.reserve(start, end, nodes);
      ref.ops.emplace_back(start, end, -nodes);
    }
    for (SimTime t = 0; t < 200; t += 7) {
      ASSERT_EQ(profile.available_at(t), ref.available_at(t)) << "round " << round
                                                              << " t=" << t;
    }
    for (int q = 0; q < 20; ++q) {
      const int nodes = 1 + static_cast<int>(rnd(static_cast<std::uint64_t>(capacity) + 2));
      const SimTime dur = static_cast<SimTime>(rnd(70));
      const SimTime not_before = static_cast<SimTime>(rnd(150));
      ASSERT_EQ(profile.earliest_start(nodes, dur, not_before),
                ref.earliest_start(nodes, dur, not_before))
          << "round " << round << " nodes=" << nodes << " dur=" << dur
          << " not_before=" << not_before;
      const SimTime ws = static_cast<SimTime>(rnd(150));
      const SimTime wd = 1 + static_cast<SimTime>(rnd(60));
      int expect_min = ref.available_at(ws);
      for (SimTime t = ws; t < ws + wd; ++t) {
        expect_min = std::min(expect_min, ref.available_at(t));
      }
      ASSERT_EQ(profile.min_available(ws, wd), expect_min)
          << "round " << round << " ws=" << ws << " wd=" << wd;
    }
  }
}

// fits() is the early-exit form of "earliest_start(...) == start": on
// random base snapshots with overlay reservations (some permanent, some
// starting exactly at a queried start) both must agree for every request
// size up to capacity + 1, for zero and negative durations, and for starts
// on and between breakpoints.
TEST(ReservationProfile, FitsAgreesWithEarliestStart) {
  Rng rng(0x5eedf175);
  for (int round = 0; round < 500; ++round) {
    const int capacity = static_cast<int>(rng.uniform_int(1, 12));
    const SimTime origin = rng.uniform_int(0, 40);
    std::vector<std::pair<SimTime, int>> groups;
    SimTime release = origin;
    int busy_left = capacity;
    while (busy_left > 0 && !rng.chance(0.2)) {
      release += rng.uniform_int(1, 30);
      const int nodes = static_cast<int>(rng.uniform_int(1, busy_left));
      groups.emplace_back(release, nodes);
      busy_left -= nodes;
    }
    ReservationProfile profile;
    profile.set_base(capacity, origin, groups);

    std::vector<SimTime> breakpoints{origin};
    for (const auto& group : groups) breakpoints.push_back(group.first);
    const SimTime anchor = origin + rng.uniform_int(0, 60);
    const int overlay = static_cast<int>(rng.uniform_int(0, 6));
    for (int r = 0; r < overlay; ++r) {
      const SimTime start = rng.chance(0.3) ? anchor : origin + rng.uniform_int(0, 120);
      const SimTime end = rng.chance(0.1) ? ReservationProfile::kForever
                                          : start + rng.uniform_int(1, 50);
      profile.reserve(start, end, static_cast<int>(rng.uniform_int(1, 3)));
      breakpoints.push_back(start);
      if (end < ReservationProfile::kForever) breakpoints.push_back(end);
    }

    std::vector<SimTime> starts{anchor};
    for (const SimTime t : breakpoints) {
      starts.push_back(t);      // on a breakpoint
      starts.push_back(t + 1);  // between breakpoints (or on the next one)
      if (t > 0) starts.push_back(t - 1);
    }
    const SimTime durations[] = {-7, 0, 1, rng.uniform_int(2, 20), rng.uniform_int(20, 200),
                                 1'000'000};
    for (const SimTime start : starts) {
      for (const SimTime duration : durations) {
        for (int nodes = 0; nodes <= capacity + 1; ++nodes) {
          ASSERT_EQ(profile.fits(nodes, duration, start),
                    profile.earliest_start(nodes, duration, start) == start)
              << "round " << round << " nodes=" << nodes << " duration=" << duration
              << " start=" << start;
        }
      }
    }
  }
}

// One base snapshot, then passes of reserve / query / clear_overlay(). The
// restore copies the saved base back, so every pass must answer like a
// reference built from the base alone plus that pass's reservations — a
// pass with no reservations included.
TEST(ReservationProfile, RestoreMatchesBaseEveryPass) {
  Rng rng(0x7e57043e);
  const int capacity = 16;
  const SimTime origin = 100;
  const std::vector<std::pair<SimTime, int>> groups{
      {130, 3}, {160, 2}, {210, 4}, {260, 1}, {300, 3}, {380, 2}};
  ReservationProfile profile;
  profile.set_base(capacity, origin, groups);
  ReferenceProfile base{capacity, {}};
  base.add_base(origin, groups);

  for (int pass = 0; pass < 8; ++pass) {
    ReferenceProfile ref = base;
    const int reservations = pass == 3 ? 0 : static_cast<int>(rng.uniform_int(1, 12));
    for (int r = 0; r < reservations; ++r) {
      const SimTime start = rng.uniform_int(origin - 50, origin + 300);
      const SimTime end = rng.chance(0.15) ? ReservationProfile::kForever
                                           : start + rng.uniform_int(1, 150);
      const int nodes = static_cast<int>(rng.uniform_int(1, 4));
      profile.reserve(start, end, nodes);
      ref.ops.emplace_back(start, end, -nodes);
    }
    const std::string label = "pass " + std::to_string(pass);
    ASSERT_NO_FATAL_FAILURE(expect_matches(profile, ref, rng, 300, 200, label));
    profile.clear_overlay();
    EXPECT_EQ(profile.breakpoint_count(), groups.size() + 1) << label;
    EXPECT_EQ(profile.first_release_time(), 130) << label;
    ASSERT_NO_FATAL_FAILURE(expect_matches(profile, base, rng, 100, 200, label + " restored"));
  }
}

TEST(ReservationProfile, ReservationsBeforeOriginAndAfterPermanent) {
  ReservationProfile profile;
  profile.set_base(8, /*origin=*/100, {{150, 3}, {200, 2}});
  ReferenceProfile ref{8, {}};
  ref.add_base(100, {{150, 3}, {200, 2}});
  EXPECT_EQ(profile.breakpoint_count(), 3U);

  // Before the origin the base holds the full capacity.
  profile.reserve(40, 120, 2);
  ref.ops.emplace_back(40, 120, -2);
  EXPECT_EQ(profile.available_at(39), 8);
  EXPECT_EQ(profile.available_at(40), 6);
  EXPECT_EQ(profile.available_at(100), 1);
  EXPECT_EQ(profile.available_at(120), 3);
  EXPECT_EQ(profile.earliest_start(7, 10, 0), 0);
  EXPECT_EQ(profile.earliest_start(7, 50, 0), 200);

  // A permanent reservation, then one placed after it.
  profile.reserve(180, ReservationProfile::kForever, 4);
  ref.ops.emplace_back(180, ReservationProfile::kForever, -4);
  profile.reserve(250, 300, 3);
  ref.ops.emplace_back(250, 300, -3);
  EXPECT_EQ(profile.available_at(180), 2);
  EXPECT_EQ(profile.available_at(250), 1);
  EXPECT_EQ(profile.available_at(300), 4);
  EXPECT_EQ(profile.available_at(1'000'000), 4);
  EXPECT_EQ(profile.earliest_start(4, 100, 100), 300);
  EXPECT_EQ(profile.earliest_start(5, 10, 100), 150);
  EXPECT_EQ(profile.earliest_start(5, 40, 100), ReservationProfile::kNever);
  EXPECT_EQ(profile.min_available(0, 1000), 1);
  EXPECT_EQ(profile.breakpoint_count(), 8U);  // 40 100 120 150 180 200 250 300
  Rng rng(0xbef0e0);
  ASSERT_NO_FATAL_FAILURE(expect_matches(profile, ref, rng, 400, 400, "reserved"));

  profile.clear_overlay();
  EXPECT_EQ(profile.breakpoint_count(), 3U);
  EXPECT_EQ(profile.available_at(40), 8);
  EXPECT_EQ(profile.available_at(250), 8);
  EXPECT_EQ(profile.earliest_start(5, 40, 100), 150);
}

// Rounds at the saturated-RICC pass shape: 1024 nodes, ~220 release groups
// in the base and ~70 reservations placed the way a pass places them (at
// the earliest start the profile reports), restored and re-placed.
TEST(ReservationProfile, RiccShapedRounds) {
  Rng rng(0x41cc5d);
  const int capacity = 1024;
  const SimTime origin = 500'000;
  std::vector<std::pair<SimTime, int>> groups;
  SimTime release = origin;
  int busy_left = capacity - 8;
  while (groups.size() < 220 && busy_left > 0) {
    release += rng.uniform_int(1, 2'000);
    const int nodes = static_cast<int>(std::min<std::int64_t>(busy_left, rng.uniform_int(1, 9)));
    groups.emplace_back(release, nodes);
    busy_left -= nodes;
  }
  ReservationProfile profile;
  profile.set_base(capacity, origin, groups);
  ReferenceProfile base{capacity, {}};
  base.add_base(origin, groups);
  ASSERT_GE(groups.size(), 200U);

  for (int round = 0; round < 3; ++round) {
    ReferenceProfile ref = base;
    for (int r = 0; r < 70; ++r) {
      const int nodes = static_cast<int>(rng.chance(0.7) ? rng.uniform_int(1, 16)
                                                         : rng.uniform_int(17, 512));
      const SimTime dur = rng.uniform_int(60, 200'000);
      const SimTime start = profile.earliest_start(nodes, dur, origin);
      ASSERT_NE(start, ReservationProfile::kNever);
      profile.reserve(start, start + dur, nodes);
      ref.ops.emplace_back(start, start + dur, -nodes);
    }
    ASSERT_NO_FATAL_FAILURE(
        expect_matches(profile, ref, rng, 60, 250'000, "round " + std::to_string(round)));
    profile.clear_overlay();
    ASSERT_EQ(profile.breakpoint_count(), groups.size() + 1);
  }
  ASSERT_NO_FATAL_FAILURE(expect_matches(profile, base, rng, 60, 250'000, "restored"));
}

// Window ends saturate at kForever: a duration near INT64_MAX (a hostile
// SWF req_time) answers like a window that reaches kForever, with no
// signed overflow.
TEST(ReservationProfile, HugeDurationSaturates) {
  ReservationProfile profile;
  profile.set_base(8, /*origin=*/100, {{150, 3}, {200, 2}});
  profile.reserve(120, 170, 2);
  profile.reserve(400, ReservationProfile::kForever, 3);
  // Steps: 100:3 120:1 150:4 170:6 200:8 400:5.
  constexpr SimTime kForever = ReservationProfile::kForever;
  const SimTime huge[] = {INT64_MAX, kForever, kForever - 1};
  for (const SimTime d : huge) {
    EXPECT_EQ(profile.earliest_start(5, d, 0), 170) << d;
    EXPECT_EQ(profile.earliest_start(6, d, 0), ReservationProfile::kNever) << d;
    EXPECT_EQ(profile.min_available(0, d), 1) << d;
    EXPECT_TRUE(profile.fits(5, d, 170)) << d;
    EXPECT_FALSE(profile.fits(5, d, 160)) << d;
    for (const SimTime start : {0, 99, 100, 101, 120, 150, 199, 200, 399, 400, 401, 1'000'000}) {
      const SimTime reaching = kForever - start;  // start + reaching == kForever
      EXPECT_EQ(profile.min_available(start, d), profile.min_available(start, reaching))
          << d << " start=" << start;
      for (int nodes = 0; nodes <= 9; ++nodes) {
        EXPECT_EQ(profile.fits(nodes, d, start), profile.fits(nodes, reaching, start))
            << d << " start=" << start << " nodes=" << nodes;
        EXPECT_EQ(profile.earliest_start(nodes, d, start),
                  profile.earliest_start(nodes, reaching, start))
            << d << " start=" << start << " nodes=" << nodes;
      }
    }
  }
}

}  // namespace
}  // namespace sdsched
