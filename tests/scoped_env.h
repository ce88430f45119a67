// RAII guard for one environment variable: sets or unsets it for the
// guard's lifetime and restores the previous value afterwards, so a test
// that pins a switch such as SDSCHED_CROSSCHECK leaves the environment the
// suite was started with (e.g. a CI job exporting the switch) untouched.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

namespace sdsched::testing_support {

class ScopedEnv {
 public:
  /// `value` == nullopt unsets the variable.
  ScopedEnv(std::string name, std::optional<std::string> value) : name_(std::move(name)) {
    if (const char* old = std::getenv(name_.c_str()); old != nullptr) previous_ = old;
    apply(value);
  }
  ~ScopedEnv() { apply(previous_); }

  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  void apply(const std::optional<std::string>& value) const {
    if (value) {
      ::setenv(name_.c_str(), value->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

  std::string name_;
  std::optional<std::string> previous_;
};

}  // namespace sdsched::testing_support
