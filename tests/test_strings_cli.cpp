#include <gtest/gtest.h>

#include "util/require.hpp"

#include "util/cli.hpp"
#include "util/strings.hpp"

namespace cawo {
namespace {

TEST(Strings, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  abc \t\n"), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(startsWith("slackWR-LS", "slack"));
  EXPECT_FALSE(startsWith("press", "slack"));
  EXPECT_TRUE(endsWith("slackWR-LS", "-LS"));
  EXPECT_FALSE(endsWith("slackWR", "-LS"));
}

TEST(Strings, FormatFixedControlsPrecision) {
  EXPECT_EQ(formatFixed(1.23456, 2), "1.23");
  EXPECT_EQ(formatFixed(2.0, 1), "2.0");
  EXPECT_EQ(formatFixed(-0.5, 3), "-0.500");
}

TEST(Strings, Padding) {
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padLeft("abcd", 2), "abcd");
}

TEST(Cli, ParsesAllSupportedSyntaxes) {
  const char* argv[] = {"prog", "--tasks=100", "--seed", "7", "--full",
                        "--offset=-3"};
  const CliArgs args(6, argv, {"tasks", "seed", "full", "offset", "unused"});
  EXPECT_EQ(args.getInt("tasks", 0), 100);
  EXPECT_EQ(args.getInt("seed", 0), 7);
  EXPECT_TRUE(args.has("full"));
  EXPECT_EQ(args.getInt("full", 0), 1); // a bare flag reads as 1
  EXPECT_EQ(args.getInt("offset", 0), -3);
  EXPECT_FALSE(args.has("unused"));
  EXPECT_EQ(args.getInt("unused", 42), 42);
}

TEST(Cli, DoubleAndStringValues) {
  const char* argv[] = {"prog", "--factor=1.5", "--name=pressWR-LS",
                        "--big=1e3"};
  const CliArgs args(4, argv, {"factor", "name", "big"});
  EXPECT_DOUBLE_EQ(args.getDouble("factor", 0.0), 1.5);
  EXPECT_DOUBLE_EQ(args.getDouble("big", 0.0), 1000.0);
  EXPECT_EQ(args.getString("name", ""), "pressWR-LS");
  EXPECT_EQ(args.getString("missing", "dflt"), "dflt");
}

TEST(Cli, RejectsUnknownFlags) {
  const char* argv[] = {"prog", "--typo=1"};
  EXPECT_THROW(CliArgs(2, argv, {"tasks"}), PreconditionError);
}

TEST(Cli, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "positional"};
  EXPECT_THROW(CliArgs(2, argv, {"tasks"}), PreconditionError);
}

TEST(Cli, ThreadsFlagParsesAndValidates) {
  // The shared --threads convention: absent → fallback, explicit value
  // passes through, 0 means "all hardware threads" and is legal as-is.
  const char* argv[] = {"prog", "--threads=4"};
  const CliArgs args(2, argv, {"threads"});
  EXPECT_EQ(threadsFromArgs(args, "threads", 1), 4u);

  const char* argv0[] = {"prog", "--threads=0"};
  EXPECT_EQ(threadsFromArgs(CliArgs(2, argv0, {"threads"}), "threads", 1), 0u);

  const char* none[] = {"prog"};
  EXPECT_EQ(threadsFromArgs(CliArgs(1, none, {"threads"}), "threads", 3), 3u);
}

TEST(Cli, ThreadsFlagRejectsNegativeValues) {
  const char* argv[] = {"prog", "--threads=-2"};
  const CliArgs args(2, argv, {"threads"});
  EXPECT_THROW(threadsFromArgs(args, "threads", 1), PreconditionError);
  // Above UINT_MAX the value would narrow (4294967297 to 1 worker).
  for (const char* arg : {"--workers=4294967296", "--workers=4294967297"}) {
    const char* wide[] = {"prog", arg};
    const CliArgs wideArgs(2, wide, {"workers"});
    try {
      (void)threadsFromArgs(wideArgs, "workers", 1);
      ADD_FAILURE() << arg << " was accepted";
    } catch (const UsageError& e) {
      EXPECT_NE(std::string(e.what()).find("--workers"), std::string::npos)
          << e.what();
    }
  }
}

/// The message of the UsageError `fn` throws ("" when it throws none).
template <class Fn>
std::string usageMessage(Fn fn) {
  try {
    fn();
  } catch (const UsageError& e) {
    return e.what();
  }
  return "";
}

TEST(Cli, UsageErrorsCarryThePlainMessage) {
  // No "precondition failed: <expr> at <file>:<line>" prefix: the text
  // is for the user, and the same in every checkout.
  const char* typo[] = {"prog", "--typo=1"};
  EXPECT_EQ(usageMessage([&] { CliArgs(2, typo, {"tasks", "seed"}, "tool"); }),
            "unknown flag --typo for tool (valid: --tasks, --seed)");
  const char* positional[] = {"prog", "positional"};
  EXPECT_EQ(usageMessage([&] { CliArgs(2, positional, {"tasks"}); }),
            "unexpected positional argument: positional");
  const char* threads[] = {"prog", "--threads=-2"};
  EXPECT_EQ(usageMessage([&] {
              threadsFromArgs(CliArgs(2, threads, {"threads"}), "threads", 1);
            }),
            "flag --threads must be >= 0 (0 = all hardware threads), got -2");
}

TEST(Cli, RejectsMalformedAndOutOfRangeNumbers) {
  const char* argv[] = {"prog", "--tasks=3O", "--factor=abc", "--seed=1.5",
                        "--ratio=0.5x", "--count=",
                        "--big=99999999999999999999"};
  const CliArgs args(7, argv,
                     {"tasks", "factor", "seed", "ratio", "count", "big"});
  EXPECT_EQ(usageMessage([&] { args.getInt("tasks", 0); }),
            "--tasks: \"3O\" is not an integer");
  EXPECT_EQ(usageMessage([&] { args.getDouble("factor", 0.0); }),
            "--factor: \"abc\" is not a number");
  EXPECT_THROW(args.getInt("seed", 0), UsageError);
  EXPECT_THROW(args.getDouble("ratio", 0.0), UsageError);
  EXPECT_THROW(args.getInt("count", 0), UsageError);
  EXPECT_THROW(args.getInt("big", 0), UsageError);
}

} // namespace
} // namespace cawo
