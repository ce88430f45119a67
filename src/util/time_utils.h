// Simulation time helpers. Simulation time is integral seconds since the
// start of the trace (SWF convention).
#pragma once

#include <cstdint>
#include <string>

namespace sdsched {

using SimTime = std::int64_t;  ///< seconds since trace start

inline constexpr SimTime kMinute = 60;
inline constexpr SimTime kHour = 3600;
inline constexpr SimTime kDay = 86400;

/// "1d 2h 03m 04s"-style rendering, dropping leading zero units.
[[nodiscard]] std::string format_duration(SimTime seconds);

/// Day index for per-day series (floor(t / 86400)).
[[nodiscard]] constexpr std::int64_t day_of(SimTime t) noexcept { return t / kDay; }

/// Second-of-day, for arrival-pattern modelling.
[[nodiscard]] constexpr SimTime second_of_day(SimTime t) noexcept { return t % kDay; }

}  // namespace sdsched
