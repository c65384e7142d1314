#include "util/flags.h"

#include <gtest/gtest.h>

namespace wsd {
namespace {

FlagParser Parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return FlagParser(static_cast<int>(argv.size()),
                    const_cast<char* const*>(argv.data()));
}

TEST(FlagParserTest, EqualsForm) {
  const auto args = Parse({"--name=value", "--n=3"});
  EXPECT_EQ(args.GetOr("name", ""), "value");
  EXPECT_EQ(args.GetUint("n"), 3u);
}

TEST(FlagParserTest, SpaceForm) {
  const auto args = Parse({"--out", "file.tsv", "--scale", "0.5"});
  EXPECT_EQ(args.GetOr("out", ""), "file.tsv");
  EXPECT_DOUBLE_EQ(*args.GetDouble("scale"), 0.5);
}

TEST(FlagParserTest, BareFlagIsTrue) {
  const auto args = Parse({"--all"});
  EXPECT_TRUE(args.Has("all"));
  EXPECT_EQ(args.GetOr("all", ""), "true");
}

TEST(FlagParserTest, PositionalsCollected) {
  const auto args = Parse({"spread", "--domain=banks", "extra"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "spread");
  EXPECT_EQ(args.positional()[1], "extra");
}

TEST(FlagParserTest, MissingAndUnparseable) {
  const auto args = Parse({"--n=abc"});
  EXPECT_FALSE(args.Get("absent").has_value());
  EXPECT_EQ(args.GetOr("absent", "d"), "d");
  EXPECT_FALSE(args.GetUint("n").has_value());
  EXPECT_FALSE(args.GetUint("absent").has_value());
}

TEST(FlagParserTest, FlagFollowedByFlagKeepsBareSemantics) {
  const auto args = Parse({"--verbose", "--out=x"});
  EXPECT_EQ(args.GetOr("verbose", ""), "true");
  EXPECT_EQ(args.GetOr("out", ""), "x");
}

TEST(FlagParserTest, ReadUintFailsClosed) {
  struct Row {
    const char* arg;
    uint64_t min;
    bool ok;
    uint16_t want;
  };
  for (const Row& row : {Row{"--port=8081", 0, true, 8081},
                         Row{"--port=0", 0, true, 0},
                         Row{"--port=65535", 0, true, 65535},
                         Row{"--port=70000", 0, false, 7},
                         Row{"--port=abc", 0, false, 7},
                         Row{"--port=-1", 0, false, 7},
                         Row{"--port", 0, false, 7},
                         Row{"--port=0", 1, false, 7},
                         Row{"--other=3", 1, true, 7}}) {
    const auto args = Parse({row.arg});
    uint16_t port = 7;
    const Status status = args.ReadUint("port", &port, row.min);
    EXPECT_EQ(status.ok(), row.ok) << row.arg;
    EXPECT_EQ(port, row.want) << row.arg;
    if (!row.ok) {
      EXPECT_TRUE(status.IsInvalidArgument()) << row.arg;
      EXPECT_NE(status.ToString().find("--port"), std::string::npos)
          << status.ToString();
    }
  }
  // The field's width caps the range even when `max` asks for more.
  const auto args = Parse({"--n=4294967296"});
  uint32_t n = 5;
  EXPECT_FALSE(args.ReadUint("n", &n, 0, UINT64_MAX).ok());
  EXPECT_EQ(n, 5u);
  uint64_t wide = 5;
  EXPECT_TRUE(args.ReadUint("n", &wide).ok());
  EXPECT_EQ(wide, 4294967296u);
}

TEST(FlagParserTest, LastOccurrenceWins) {
  const auto args = Parse({"--n=1", "--n=2"});
  EXPECT_EQ(args.GetUint("n"), 2u);
}

}  // namespace
}  // namespace wsd
