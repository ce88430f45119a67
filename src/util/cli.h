// Tiny flag parser for bench and example binaries.
//
// Syntax: --name=value or --name value; bare --name sets "1" (boolean).
// Values fall back to environment variables (upper-cased, SDSCHED_ prefix,
// dashes -> underscores) so `SDSCHED_FULL=1 ./bench` works fleet-wide.
// get_int/get_double throw std::invalid_argument, naming the flag, when the
// whole value does not parse (`--jobs=abc`, `--seconds=5s`).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace sdsched {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  [[nodiscard]] std::optional<std::string> get(const std::string& name) const;
  [[nodiscard]] std::string get_or(const std::string& name, const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback = false) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace sdsched
