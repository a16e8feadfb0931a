#include "bench/bench_util.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace dufs::bench {
namespace {

// argv for a plain argument list ("prog" is prepended); `args` must outlive
// it.
std::vector<char*> Argv(std::vector<std::string>& args) {
  static std::string prog = "prog";
  std::vector<char*> argv{prog.data()};
  for (auto& a : args) argv.push_back(a.data());
  return argv;
}

// Builds a Flags from a plain argument list.
Flags Make(std::vector<std::string> args) {
  auto argv = Argv(args);
  return Flags(static_cast<int>(argv.size()), argv.data(), "usage text");
}

TEST(FlagsTest, EqualsAndSpaceForms) {
  auto flags = Make({"--seed=7", "--procs", "64"});
  EXPECT_EQ(flags.Int("seed", 0), 7);
  EXPECT_EQ(flags.Int("procs", 0), 64);
  EXPECT_EQ(flags.Int("absent", 13), 13);
}

TEST(FlagsTest, BoolForms) {
  auto flags = Make({"--quick", "--cache=0", "--verbose=false"});
  EXPECT_TRUE(flags.Bool("quick"));
  EXPECT_FALSE(flags.Bool("cache"));
  EXPECT_FALSE(flags.Bool("verbose"));
  EXPECT_FALSE(flags.Bool("absent"));
  EXPECT_TRUE(flags.Bool("absent", true));
}

TEST(FlagsTest, StrReturnsValueOrFallback) {
  auto flags = Make({"--out=/tmp/x.json"});
  EXPECT_EQ(flags.Str("out", "default"), "/tmp/x.json");
  EXPECT_EQ(flags.Str("absent", "default"), "default");
  // The fallback must survive being passed by value (the old
  // `std::move(fallback)`-in-a-ternary pessimized and obscured this).
  const std::string keep = "keep-me";
  EXPECT_EQ(flags.Str("absent", keep), "keep-me");
  EXPECT_EQ(keep, "keep-me");
}

TEST(FlagsTest, UnknownFlagsAreIgnoredNotFatal) {
  // Unrecognized --flags parse fine and are simply never read back: benches
  // share command lines.
  auto flags = Make({"--no-such-flag=1", "--seed=3"});
  EXPECT_EQ(flags.Int("seed", 0), 3);
}

TEST(FlagsDeathTest, PositionalArgumentAborts) {
  EXPECT_EXIT(Make({"positional"}), testing::ExitedWithCode(2),
              "unexpected arg: positional");
}

TEST(FlagsDeathTest, PositionalAfterFlagsAborts) {
  // "--procs 64" consumes 64 as the value; a second bare token is an error.
  EXPECT_EXIT(Make({"--procs", "64", "stray"}), testing::ExitedWithCode(2),
              "unexpected arg: stray");
}

TEST(FlagsTest, IntListParsesCommaSeparated) {
  auto flags = Make({"--procs=16,32,64"});
  EXPECT_EQ(flags.IntList("procs", {}), (std::vector<long>{16, 32, 64}));
  EXPECT_EQ(flags.IntList("absent", {1, 2}), (std::vector<long>{1, 2}));
}

TEST(FlagsTest, IntListSkipsEmptySegments) {
  // Trailing / doubled commas used to parse as zeros, silently adding a
  // procs=0 data point to a sweep.
  EXPECT_EQ(Make({"--procs=16,32,"}).IntList("procs", {}),
            (std::vector<long>{16, 32}));
  EXPECT_EQ(Make({"--procs=16,,32"}).IntList("procs", {}),
            (std::vector<long>{16, 32}));
  EXPECT_TRUE(Make({"--procs="}).IntList("procs", {7}).empty());
}

TEST(FlagsTest, SingleElementIntList) {
  EXPECT_EQ(Make({"--procs=256"}).IntList("procs", {}),
            (std::vector<long>{256}));
}

TEST(JsonHelpersTest, JsonEscape) {
  EXPECT_EQ(json::Escape("plain"), "plain");
  EXPECT_EQ(json::Escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(json::Escape(std::string(1, '\x01')), "\\u0001");
  std::string out;
  json::AppendQuoted(out, "k");
  out += ':';
  json::AppendNumber(out, 0.1);
  EXPECT_EQ(out, "\"k\":0.10000000000000001");
}

TEST(JsonHelpersTest, MetricsJsonWriterShape) {
  MetricsJsonWriter out;
  HotPathCounters c;
  c.ops = 100;
  c.seconds = 2;
  c.zk_requests = 150;
  out.AddCounters("cfg \"a\"", c);
  out.AddValue("readdir_us", 12.5);
  SeriesTable table("procs", {"dufs", "basic"});
  table.AddRow(64, {10.0, 5.0});
  out.AddTable("fig", table);
  out.SetRegistryJson("{\"nodes\":{}}");
  const std::string json = out.ToJson();
  EXPECT_NE(json.find("\"label\":\"cfg \\\"a\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"ops_per_s\":50"), std::string::npos);
  EXPECT_NE(json.find("\"zk_requests\":150"), std::string::npos);
  EXPECT_NE(json.find("\"readdir_us\":12.5"), std::string::npos);
  EXPECT_NE(json.find("\"rows\":[[64,10,5]]"), std::string::npos);
  EXPECT_NE(json.find("\"registry\":{\"nodes\":{}}"), std::string::npos);
}

// Runs a Harness over a plain argument list, as a bench's main would.
int FinishWith(std::vector<std::string> args) {
  auto argv = Argv(args);
  Harness h(static_cast<int>(argv.size()), argv.data(), "prog", "");
  h.metrics().AddValue("x", 1);
  h.baseline().AddHigherBetter("x", 1);
  return h.Finish();
}

TEST(HarnessTest, FinishWritesRequestedExports) {
  const std::string dir = testing::TempDir();
  EXPECT_EQ(FinishWith({}), 0);
  EXPECT_EQ(FinishWith({"--metrics-json=" + dir + "/harness_m.json",
                        "--baseline=" + dir + "/harness_b.json"}),
            0);
}

TEST(HarnessTest, FinishFailsWhenAnExportCannotBeWritten) {
  EXPECT_EQ(FinishWith({"--metrics-json=/nonexistent/m.json"}), 1);
  EXPECT_EQ(FinishWith({"--baseline=/nonexistent/b.json"}), 1);
}

TEST(HarnessDeathTest, MalformedSloExitsWithUsageError) {
  EXPECT_EXIT(FinishWith({"--slo=create:2ms"}), testing::ExitedWithCode(2),
              "want op:target:budget");
  EXPECT_EXIT(FinishWith({"--slo=bogus:2ms:0.1"}), testing::ExitedWithCode(2),
              "bad clause");
}

}  // namespace
}  // namespace dufs::bench
