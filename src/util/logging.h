// Minimal leveled logger for the sdsched library.
//
// The simulator is deterministic and single-threaded per Simulation, but
// multiple Simulations may run concurrently (e.g. parameter sweeps), so the
// sink is guarded by a mutex. Logging defaults to Warn so that library users
// are not spammed; a driver raises it with Logger::instance().set_level().
#pragma once

#include <atomic>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>

namespace sdsched {

enum class LogLevel : int { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4, Off = 5 };

/// Global logger. Writes to stderr; level-filtered. The level is atomic and
/// the sink is mutex-guarded so concurrent Simulations (sweep workers) can
/// log — and a driver can adjust verbosity — without data races.
class Logger {
 public:
  static Logger& instance();

  void set_level(LogLevel level) noexcept { level_.store(level, std::memory_order_relaxed); }
  [[nodiscard]] LogLevel level() const noexcept {
    return level_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled(LogLevel level) const noexcept {
    return static_cast<int>(level) >= static_cast<int>(this->level());
  }

  void write(LogLevel level, std::string_view component, std::string_view message);

 private:
  Logger() = default;
  std::atomic<LogLevel> level_{LogLevel::Warn};
  std::mutex mutex_;
};

[[nodiscard]] std::string_view to_string(LogLevel level) noexcept;

namespace detail {
template <typename... Args>
void log_impl(LogLevel level, std::string_view component, Args&&... args) {
  if (!Logger::instance().enabled(level)) return;
  std::ostringstream oss;
  (oss << ... << args);
  Logger::instance().write(level, component, oss.str());
}
}  // namespace detail

template <typename... Args>
void log_debug(std::string_view component, Args&&... args) {
  detail::log_impl(LogLevel::Debug, component, std::forward<Args>(args)...);
}
template <typename... Args>
void log_info(std::string_view component, Args&&... args) {
  detail::log_impl(LogLevel::Info, component, std::forward<Args>(args)...);
}
template <typename... Args>
void log_warn(std::string_view component, Args&&... args) {
  detail::log_impl(LogLevel::Warn, component, std::forward<Args>(args)...);
}
template <typename... Args>
void log_error(std::string_view component, Args&&... args) {
  detail::log_impl(LogLevel::Error, component, std::forward<Args>(args)...);
}

}  // namespace sdsched
