#include "flags.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "commands.h"

namespace rn::cli {
namespace {

Flags make_flags(std::vector<const char*> args,
                 const std::vector<std::string>& bools = {}) {
  args.insert(args.begin(), "prog");
  return Flags(static_cast<int>(args.size()), args.data(), 1, bools);
}

TEST(Flags, ParsesStringIntDouble) {
  const Flags f = make_flags({"--name", "hello", "--count", "42",
                              "--rate", "2.5"});
  EXPECT_EQ(f.get_string("name", ""), "hello");
  EXPECT_EQ(f.get_int("count", 0), 42);
  EXPECT_DOUBLE_EQ(f.get_double("rate", 0.0), 2.5);
}

TEST(Flags, FallbacksWhenAbsent) {
  const Flags f = make_flags({});
  EXPECT_EQ(f.get_string("name", "dflt"), "dflt");
  EXPECT_EQ(f.get_int("count", 7), 7);
  EXPECT_DOUBLE_EQ(f.get_double("rate", 1.5), 1.5);
  EXPECT_FALSE(f.get_bool("verbose"));
}

TEST(Flags, BooleanFlagsTakeNoValue) {
  const Flags f = make_flags({"--bursty", "--out", "x.bin"}, {"bursty"});
  EXPECT_TRUE(f.get_bool("bursty"));
  EXPECT_EQ(f.get_string("out", ""), "x.bin");
}

TEST(Flags, RequireStringThrowsWhenMissing) {
  const Flags f = make_flags({});
  EXPECT_THROW(f.require_string("out"), std::runtime_error);
}

TEST(Flags, MalformedNumberThrows) {
  const Flags f = make_flags({"--count", "banana"});
  EXPECT_THROW(f.get_int("count", 0), std::runtime_error);
  // A value must be consumed whole: no trailing characters, no wrapped sign.
  EXPECT_THROW(make_flags({"--nodes", "6x"}).get_int("nodes", 0),
               std::runtime_error);
  EXPECT_THROW(make_flags({"--k", "1.5"}).get_int("k", 0),
               std::runtime_error);
  EXPECT_THROW(make_flags({"--count", "6x"}).get_int64("count", 0),
               std::runtime_error);
  EXPECT_THROW(make_flags({"--util", "0.6x"}).get_double("util", 0.0),
               std::runtime_error);
  EXPECT_THROW(make_flags({"--seed", "-1"}).get_seed("seed", 0),
               std::runtime_error);
  EXPECT_THROW(make_flags({"--seed", "7z"}).get_seed("seed", 0),
               std::runtime_error);
}

TEST(Flags, MissingValueThrows) {
  EXPECT_THROW(make_flags({"--out"}), std::runtime_error);
}

TEST(Flags, NonFlagArgumentThrows) {
  EXPECT_THROW(make_flags({"stray"}), std::runtime_error);
}

TEST(Flags, RejectUnusedCatchesTypos) {
  const Flags f = make_flags({"--epoch", "5"});  // should be --epochs
  EXPECT_THROW(f.reject_unused(), std::runtime_error);
}

TEST(Flags, RejectUnusedPassesWhenAllRead) {
  const Flags f = make_flags({"--epochs", "5"});
  EXPECT_EQ(f.get_int("epochs", 0), 5);
  EXPECT_NO_THROW(f.reject_unused());
}

TEST(Flags, SeedParsesLargeValues) {
  const Flags f = make_flags({"--seed", "18446744073709551615"});
  EXPECT_EQ(f.get_seed("seed", 0), 18446744073709551615ull);
}

// The routenet command line on argv {"routenet", args...}: its exit code and
// what it wrote to stdout.
std::pair<int, std::string> run_cli(std::vector<const char*> args) {
  args.insert(args.begin(), "routenet");
  ::testing::internal::CaptureStdout();
  const int rc = run(static_cast<int>(args.size()), args.data());
  return {rc, ::testing::internal::GetCapturedStdout()};
}

bool is_usage(const std::string& out) {
  return out.rfind("routenet — ", 0) == 0 &&
         out.find("\ncommands:\n") != std::string::npos;
}

TEST(Cli, DashDashHelpPrintsUsageAndSucceeds) {
  const auto [rc, out] = run_cli({"--help"});
  EXPECT_EQ(rc, 0);
  EXPECT_TRUE(is_usage(out)) << out;
}

TEST(Cli, HelpCommandPrintsUsageAndSucceeds) {
  const auto [rc, out] = run_cli({"help"});
  EXPECT_EQ(rc, 0);
  EXPECT_TRUE(is_usage(out)) << out;
}

// --help takes no value and wins over every other argument, including a
// command's missing required flags and the dataset subcommand slot.
TEST(Cli, CommandHelpPrintsUsageAndSucceeds) {
  for (const std::vector<const char*>& args :
       {std::vector<const char*>{"simulate", "--help"},
        {"train", "--epochs", "3", "--help"},
        {"dataset", "gen", "--help"},
        {"dataset", "--help"}}) {
    const auto [rc, out] = run_cli(args);
    EXPECT_EQ(rc, 0) << args.front();
    EXPECT_TRUE(is_usage(out)) << args.front() << ": " << out;
  }
}

// A usage error keeps its exit code and sends the usage to stderr, so
// stdout carries nothing a script could mistake for output.
TEST(Cli, UsageErrorsExitTwoWithEmptyStdout) {
  for (const std::vector<const char*>& args :
       {std::vector<const char*>{}, {"frobnicate"}, {"dataset"}}) {
    const auto [rc, out] = run_cli(args);
    EXPECT_EQ(rc, 2);
    EXPECT_EQ(out, "");
  }
}

}  // namespace
}  // namespace rn::cli
