#include "util/cli.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace sdsched {
namespace {

CliArgs make_args(std::initializer_list<const char*> argv) {
  std::vector<const char*> args{"prog"};
  args.insert(args.end(), argv.begin(), argv.end());
  return CliArgs(static_cast<int>(args.size()), args.data());
}

TEST(CliArgs, EqualsSyntax) {
  const auto args = make_args({"--jobs=500"});
  EXPECT_EQ(args.get_int("jobs", 0), 500);
}

TEST(CliArgs, SpaceSyntax) {
  const auto args = make_args({"--nodes", "64"});
  EXPECT_EQ(args.get_int("nodes", 0), 64);
}

TEST(CliArgs, BareFlagIsTrue) {
  const auto args = make_args({"--full"});
  EXPECT_TRUE(args.get_bool("full"));
}

TEST(CliArgs, MissingUsesFallback) {
  const auto args = make_args({});
  EXPECT_EQ(args.get_int("jobs", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("scale", 0.25), 0.25);
  EXPECT_EQ(args.get_or("name", "x"), "x");
  EXPECT_FALSE(args.get_bool("verbose", false));
}

TEST(CliArgs, MalformedNumberThrows) {
  EXPECT_THROW((void)make_args({"--jobs=abc"}).get_int("jobs", 3), std::invalid_argument);
  EXPECT_THROW((void)make_args({"--scale=x"}).get_double("scale", 1.0), std::invalid_argument);
  // Trailing garbage is rejected, not read as its numeric prefix.
  EXPECT_THROW((void)make_args({"--seconds=5s"}).get_double("seconds", 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)make_args({"--jobs=12abc"}).get_int("jobs", 3), std::invalid_argument);
  EXPECT_THROW((void)make_args({"--jobs="}).get_int("jobs", 3), std::invalid_argument);
  try {
    (void)make_args({"--jobs=abc"}).get_int("jobs", 3);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--jobs"), std::string::npos) << e.what();
  }
  EXPECT_EQ(make_args({"--jobs=-7"}).get_int("jobs", 3), -7);
  EXPECT_DOUBLE_EQ(make_args({"--seconds=2.5"}).get_double("seconds", 1.0), 2.5);
}

TEST(CliArgs, BoolSpellings) {
  EXPECT_TRUE(make_args({"--x=true"}).get_bool("x"));
  EXPECT_TRUE(make_args({"--x=yes"}).get_bool("x"));
  EXPECT_TRUE(make_args({"--x=on"}).get_bool("x"));
  EXPECT_FALSE(make_args({"--x=0"}).get_bool("x", true));
}

TEST(CliArgs, EnvFallback) {
  ::setenv("SDSCHED_FROM_ENV", "99", 1);
  const auto args = make_args({});
  EXPECT_EQ(args.get_int("from-env", 0), 99);
  ::unsetenv("SDSCHED_FROM_ENV");
}

TEST(CliArgs, CommandLineBeatsEnv) {
  ::setenv("SDSCHED_PRIO", "1", 1);
  const auto args = make_args({"--prio=2"});
  EXPECT_EQ(args.get_int("prio", 0), 2);
  ::unsetenv("SDSCHED_PRIO");
}

}  // namespace
}  // namespace sdsched
