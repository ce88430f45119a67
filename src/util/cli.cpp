#include "util/cli.h"

#include <cstdlib>
#include <stdexcept>

namespace sdsched {

namespace {

std::string env_name(const std::string& flag) {
  std::string name = "SDSCHED_";
  for (const char c : flag) {
    name += (c == '-') ? '_' : static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return name;
}

/// `parse` (std::stoll / std::stod) must consume all of `value`; anything
/// else throws std::invalid_argument naming the flag.
template <typename Parse>
auto parse_whole(const std::string& flag, const std::string& value, Parse parse) {
  std::size_t used = 0;
  try {
    const auto number = parse(value, &used);
    if (used == value.size()) return number;
  } catch (const std::logic_error&) {  // invalid_argument, out_of_range
  }
  throw std::invalid_argument("--" + flag + ": '" + value + "' is not a number");
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "1";
    }
  }
}

std::optional<std::string> CliArgs::get(const std::string& name) const {
  if (const auto it = values_.find(name); it != values_.end()) return it->second;
  // Single-threaded CLI startup; no setenv anywhere in the tree.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv(env_name(name).c_str()); env != nullptr) {
    return std::string(env);
  }
  return std::nullopt;
}

std::string CliArgs::get_or(const std::string& name, const std::string& fallback) const {
  return get(name).value_or(fallback);
}

std::int64_t CliArgs::get_int(const std::string& name, std::int64_t fallback) const {
  const auto value = get(name);
  if (!value) return fallback;
  return parse_whole(name, *value,
                     [](const std::string& s, std::size_t* used) { return std::stoll(s, used); });
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto value = get(name);
  if (!value) return fallback;
  return parse_whole(name, *value,
                     [](const std::string& s, std::size_t* used) { return std::stod(s, used); });
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto value = get(name);
  if (!value) return fallback;
  return *value == "1" || *value == "true" || *value == "yes" || *value == "on";
}

}  // namespace sdsched
