#include <gtest/gtest.h>

#include <sstream>

#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace cmdare::util {
namespace {

TEST(Strings, SplitBasic) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitPreservesEmptyFields) {
  const auto parts = split("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, JoinInvertsSplit) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(join(parts, ","), "x,y,z");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hi \n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("a"), "a");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("resnet-32", "resnet"));
  EXPECT_FALSE(starts_with("res", "resnet"));
  EXPECT_TRUE(ends_with("model.ckpt", ".ckpt"));
  EXPECT_FALSE(ends_with("ckpt", "model.ckpt"));
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-1.0, 0), "-1");
}

TEST(Strings, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.0 KB");
  EXPECT_EQ(format_bytes(3.5 * 1024 * 1024), "3.5 MB");
}

TEST(Strings, FormatDuration) {
  EXPECT_EQ(format_duration(12.34), "12.3 s");
  EXPECT_EQ(format_duration(75), "1m 15s");
  EXPECT_EQ(format_duration(3723), "1h 02m 03s");
}

TEST(Csv, EscapePlainFieldUnchanged) {
  EXPECT_EQ(csv_escape("plain"), "plain");
}

TEST(Csv, EscapeQuotesAndCommas) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WriterRoundTrip) {
  std::ostringstream oss;
  CsvWriter writer(oss);
  writer.write_row({"model", "gpu", "note"});
  writer.write_row({"resnet-32", "K80", "has,comma"});
  EXPECT_EQ(writer.rows_written(), 2u);

  std::istringstream iss(oss.str());
  std::string line;
  std::getline(iss, line);
  EXPECT_EQ(csv_parse_line(line),
            (std::vector<std::string>{"model", "gpu", "note"}));
  std::getline(iss, line);
  EXPECT_EQ(csv_parse_line(line),
            (std::vector<std::string>{"resnet-32", "K80", "has,comma"}));
}

TEST(Csv, NumericRowPrecision) {
  std::ostringstream oss;
  CsvWriter writer(oss);
  writer.write_numeric_row({1.23456, 2.0}, 2);
  EXPECT_EQ(oss.str(), "1.23,2.00\n");
}

TEST(Csv, ParseHandlesQuotedNewlineFreeFields) {
  const auto fields = csv_parse_line("a,\"b,c\",\"d\"\"e\"");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "b,c");
  EXPECT_EQ(fields[2], "d\"e");
}

TEST(Table, RendersAlignedColumns) {
  Table t({"GPU", "speed"});
  t.add_row({"K80", "9.46"});
  t.add_row({"P100", "21.16"});
  const std::string rendered = t.to_string();
  EXPECT_NE(rendered.find("| GPU "), std::string::npos);
  EXPECT_NE(rendered.find("9.46"), std::string::npos);
  EXPECT_NE(rendered.find("P100"), std::string::npos);
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_NO_THROW(t.to_string());
}

TEST(Table, RejectsTooManyCells) {
  Table t({"a"});
  EXPECT_THROW(t.add_row({"1", "2"}), std::invalid_argument);
}

TEST(Table, SetAlignmentValidatesColumn) {
  Table t({"a"});
  EXPECT_THROW(t.set_alignment(5, Align::kLeft), std::out_of_range);
}

TEST(Table, FormatMeanSd) {
  EXPECT_EQ(format_mean_sd(9.456, 0.19, 2), "9.46 ± 0.19");
}

TEST(Logging, RespectsLevel) {
  std::vector<std::string> captured;
  set_log_sink([&](LogLevel, const std::string& m) { captured.push_back(m); });
  set_log_level(LogLevel::kWarn);
  LOG_INFO << "hidden";
  LOG_WARN << "visible " << 42;
  set_log_sink(nullptr);
  set_log_level(LogLevel::kWarn);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0], "visible 42");
}

TEST(Logging, LevelNames) {
  EXPECT_STREQ(log_level_name(LogLevel::kDebug), "DEBUG");
  EXPECT_STREQ(log_level_name(LogLevel::kError), "ERROR");
}

TEST(Logging, ParseLogLevel) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("INFO"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level(" warn "), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("Error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("0"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("3"), LogLevel::kError);
  EXPECT_FALSE(parse_log_level("verbose").has_value());
  EXPECT_FALSE(parse_log_level("").has_value());
}

TEST(Logging, TimeSourceShowsUpInDefaultLineFormat) {
  EXPECT_EQ(format_log_line(LogLevel::kWarn, "msg"), "[WARN] msg");
  double now = 12.3456;
  set_log_time_source([&now] { return now; });
  EXPECT_EQ(log_time_now(), 12.3456);
  EXPECT_EQ(format_log_line(LogLevel::kInfo, "msg"), "[INFO t=12.346] msg");
  now = 99.0;
  EXPECT_EQ(format_log_line(LogLevel::kError, "boom"),
            "[ERROR t=99.000] boom");
  set_log_time_source(nullptr);
  EXPECT_FALSE(log_time_now().has_value());
  EXPECT_EQ(format_log_line(LogLevel::kWarn, "msg"), "[WARN] msg");
}

namespace {

/// argv adapter: ArgParser::parse wants char* const*, tests want literals.
bool parse_args(ArgParser& args, std::vector<const char*> argv,
                std::string* error) {
  argv.insert(argv.begin(), "test-prog");
  return args.parse(static_cast<int>(argv.size()),
                    const_cast<char* const*>(argv.data()), error);
}

}  // namespace

TEST(ArgParser, ParsesFlagsValuesAndPositionals) {
  std::string path, csv;
  std::vector<std::string> sets;
  int jobs = 0;
  bool quiet = false;
  ArgParser args("prog", "test");
  args.add_positional("file", "input file", &path);
  args.add_flag("quiet", "hush", &quiet);
  args.add_int("jobs", "N", "threads", &jobs);
  args.add_value("csv", "PATH", "output", &csv);
  args.add_repeated("set", "K=V", "override", &sets);

  std::string error;
  ASSERT_TRUE(parse_args(args,
                         {"in.scn", "--jobs", "4", "--quiet", "--set", "a=1",
                          "--set", "b=2", "--csv", "out.csv"},
                         &error))
      << error;
  EXPECT_EQ(path, "in.scn");
  EXPECT_EQ(jobs, 4);
  EXPECT_TRUE(quiet);
  EXPECT_EQ(csv, "out.csv");
  EXPECT_EQ(sets, (std::vector<std::string>{"a=1", "b=2"}));
}

TEST(ArgParser, GivenTellsAnExplicitValueFromTheDefault) {
  int jobs = 0;
  int replicas = 1;
  bool quiet = false;
  ArgParser args("prog", "test");
  args.add_int("jobs", "N", "threads", &jobs);
  args.add_int("replicas", "N", "replicas", &replicas);
  args.add_flag("quiet", "hush", &quiet);
  std::string error;
  // --jobs 0 equals the default; only given() can tell it was typed.
  ASSERT_TRUE(parse_args(args, {"--jobs", "0", "--quiet"}, &error)) << error;
  EXPECT_TRUE(args.given("jobs"));
  EXPECT_TRUE(args.given("quiet"));
  EXPECT_FALSE(args.given("replicas"));
  EXPECT_FALSE(args.given("mystery"));
}

TEST(ArgParser, ReportsErrors) {
  int jobs = 0;
  std::string error;
  {
    ArgParser args("prog", "test");
    args.add_int("jobs", "N", "threads", &jobs);
    EXPECT_FALSE(parse_args(args, {"--jobs", "many"}, &error));
    EXPECT_NE(error.find("jobs"), std::string::npos);
  }
  {
    ArgParser args("prog", "test");
    EXPECT_FALSE(parse_args(args, {"--mystery"}, &error));
    EXPECT_NE(error.find("mystery"), std::string::npos);
  }
  {
    std::string file;
    ArgParser args("prog", "test");
    args.add_positional("file", "input", &file);  // required, missing
    EXPECT_FALSE(parse_args(args, {}, &error));
    EXPECT_NE(error.find("file"), std::string::npos);
  }
  {
    ArgParser args("prog", "test");
    EXPECT_FALSE(parse_args(args, {"stray"}, &error));  // no positionals
  }
}

TEST(ArgParser, Uint64RejectsNonNumbersAndNegatives) {
  std::uint64_t seed = 7;
  std::string error;
  for (const char* bad : {"banana", "-3"}) {
    ArgParser args("prog", "test");
    args.add_uint64("seed", "S", "seed", &seed);
    EXPECT_FALSE(parse_args(args, {"--seed", bad}, &error)) << bad;
    EXPECT_NE(error.find("--seed"), std::string::npos) << error;
  }
  EXPECT_EQ(seed, 7u);  // a rejected value is never stored
  ArgParser args("prog", "test");
  args.add_uint64("seed", "S", "seed", &seed);
  ASSERT_TRUE(parse_args(args, {"--seed", "18446744073709551615"}, &error));
  EXPECT_EQ(seed, 18446744073709551615u);
}

TEST(ArgParser, IntBelowItsMinimumIsRejectedAndNotStored) {
  int replicas = 0;  // an absent flag keeps its default, even below min
  std::string error;
  for (const char* bad : {"0", "-2"}) {
    ArgParser args("prog", "test");
    args.add_int("replicas", "N", "replicas", &replicas, 1);
    EXPECT_FALSE(parse_args(args, {"--replicas", bad}, &error)) << bad;
    EXPECT_NE(error.find("--replicas"), std::string::npos) << error;
  }
  EXPECT_EQ(replicas, 0);
  ArgParser args("prog", "test");
  args.add_int("replicas", "N", "replicas", &replicas, 1);
  ASSERT_TRUE(parse_args(args, {"--replicas", "1"}, &error));
  EXPECT_EQ(replicas, 1);
}

TEST(ArgParser, HelpStopsParsingAndListsOptions) {
  int jobs = 0;
  ArgParser args("prog", "does things");
  args.add_int("jobs", "N", "worker threads", &jobs);
  std::string error;
  EXPECT_TRUE(parse_args(args, {"--help"}, &error));
  EXPECT_TRUE(args.help_requested());
  const std::string help = args.help_text();
  EXPECT_NE(help.find("prog"), std::string::npos);
  EXPECT_NE(help.find("--jobs"), std::string::npos);
  EXPECT_NE(help.find("worker threads"), std::string::npos);
}

TEST(Logging, SinkReceivesRawMessageWithoutPrefix) {
  // Custom sinks get the bare message; the level/time prefix belongs to
  // the default stderr formatting only.
  set_log_time_source([] { return 5.0; });
  std::vector<std::string> captured;
  set_log_sink([&](LogLevel, const std::string& m) { captured.push_back(m); });
  LOG_ERROR << "bare";
  set_log_sink(nullptr);
  set_log_time_source(nullptr);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0], "bare");
}

}  // namespace
}  // namespace cmdare::util
