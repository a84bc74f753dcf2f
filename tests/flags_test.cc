#include "util/flags.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace turtle::util {
namespace {

Flags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsForm) {
  const auto f = parse({"--blocks=500", "--rate=2.5", "--name=zmap"});
  EXPECT_EQ(f.get_int("blocks", 0), 500);
  EXPECT_DOUBLE_EQ(f.get_double("rate", 0), 2.5);
  EXPECT_EQ(f.get_string("name", ""), "zmap");
}

TEST(Flags, SpaceForm) {
  const auto f = parse({"--blocks", "500"});
  EXPECT_EQ(f.get_int("blocks", 0), 500);
}

TEST(Flags, BareBoolean) {
  const auto f = parse({"--verbose"});
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_TRUE(f.has("verbose"));
}

TEST(Flags, BooleanValues) {
  EXPECT_TRUE(parse({"--x=true"}).get_bool("x", false));
  EXPECT_TRUE(parse({"--x=1"}).get_bool("x", false));
  EXPECT_TRUE(parse({"--x=yes"}).get_bool("x", false));
  EXPECT_FALSE(parse({"--x=false"}).get_bool("x", true));
  EXPECT_FALSE(parse({"--x=0"}).get_bool("x", true));
  EXPECT_FALSE(parse({"--x=no"}).get_bool("x", true));
}

TEST(Flags, DefaultsWhenAbsent) {
  const auto f = parse({});
  EXPECT_EQ(f.get_int("blocks", 42), 42);
  EXPECT_DOUBLE_EQ(f.get_double("rate", 1.5), 1.5);
  EXPECT_EQ(f.get_string("name", "dflt"), "dflt");
  EXPECT_FALSE(f.get_bool("verbose", false));
  EXPECT_FALSE(f.has("blocks"));
}

TEST(Flags, NegativeNumbers) {
  const auto f = parse({"--offset=-5"});
  EXPECT_EQ(f.get_int("offset", 0), -5);
}

TEST(Flags, PositionalsKeepOrder) {
  const auto f = parse({"query", "--scope=as", "10.1.2.3"});
  ASSERT_EQ(f.positionals().size(), 2u);
  EXPECT_EQ(f.positionals()[0], "query");
  EXPECT_EQ(f.positionals()[1], "10.1.2.3");
  EXPECT_EQ(f.get_string("scope", ""), "as");
}

TEST(Flags, DoubleDashEndsFlagParsing) {
  const auto f = parse({"--verbose", "--", "--not-a-flag", "stats"});
  EXPECT_TRUE(f.get_bool("verbose", false));
  ASSERT_EQ(f.positionals().size(), 2u);
  EXPECT_EQ(f.positionals()[0], "--not-a-flag");
  EXPECT_EQ(f.positionals()[1], "stats");
}

TEST(Flags, SpaceFormBindsOverPositional) {
  // Documented caveat: `--name value` always binds; use `=` or `--` when a
  // positional must follow a bare boolean flag.
  const auto f = parse({"--mode", "udp", "query"});
  EXPECT_EQ(f.get_string("mode", ""), "udp");
  ASSERT_EQ(f.positionals().size(), 1u);
  EXPECT_EQ(f.positionals()[0], "query");
}

TEST(Flags, WrongTypeThrows) {
  const auto f = parse(
      {"--blocks=abc", "--huge=99999999999999999999", "--rate=1.2.3", "--flag=maybe"});
  EXPECT_THROW((void)f.get_int("blocks", 0), std::invalid_argument);
  // Past int64: rejected, not saturated to INT64_MAX.
  EXPECT_THROW((void)f.get_int("huge", 0), std::invalid_argument);
  EXPECT_THROW((void)f.get_double("rate", 0), std::invalid_argument);
  EXPECT_THROW((void)f.get_bool("flag", false), std::invalid_argument);
}

TEST(Flags, IntInRangeRejectsOutsideValuesNamingTheFlag) {
  const auto f = parse({"--port=70000", "--idle=0", "--ok=65535"});
  EXPECT_EQ(f.get_int_in("ok", 0, 0, 65535), 65535);
  EXPECT_EQ(f.get_int_in("absent", 7, 0, 65535), 7);
  try {
    (void)f.get_int_in("port", 0, 0, 65535);
    ADD_FAILURE() << "--port=70000 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "flag --port must be in [0, 65535], got 70000");
  }
  EXPECT_THROW((void)f.get_int_in("idle", 1, 1, 100), std::invalid_argument);
}

TEST(Flags, NamesLists) {
  const auto f = parse({"--b=1", "--a=2"});
  const auto names = f.names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");  // map order
  EXPECT_EQ(names[1], "b");
}

TEST(Flags, LastValueWins) {
  const auto f = parse({"--x=1", "--x=2"});
  EXPECT_EQ(f.get_int("x", 0), 2);
}

}  // namespace
}  // namespace turtle::util
