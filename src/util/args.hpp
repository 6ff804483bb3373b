// Tiny declarative command-line parser for the example CLIs.
//
// The examples used to hand-roll argv loops (and each grew its own
// slightly different error handling); ArgParser covers exactly what they
// need — `--flag`, `--name value` pairs (typed, last occurrence wins, or
// repeatable), positional operands, and a generated --help text — and
// nothing more. It is not a general-purpose getopt replacement.
//
//   util::ArgParser args("scenario_runner", "Run a scenario spec file.");
//   args.add_positional("spec.scn", "scenario file to run", &path);
//   args.add_int("jobs", "N", "worker threads", &jobs);
//   args.add_flag("quiet", "suppress progress output", &quiet);
//   std::string error;
//   if (!args.parse(argc, argv, &error)) { ... args.help_text() ... }
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <vector>

namespace cmdare::util {

class ArgParser {
 public:
  /// `program` and `description` head the --help text.
  ArgParser(std::string program, std::string description);

  /// `--name` (no value); sets *out to true when present.
  void add_flag(const std::string& name, std::string help, bool* out);
  /// `--name <hint>`; last occurrence wins.
  void add_value(const std::string& name, std::string hint, std::string help,
                 std::string* out);
  /// `--name <hint>`, repeatable; every occurrence is appended.
  void add_repeated(const std::string& name, std::string hint,
                    std::string help, std::vector<std::string>* out);
  /// `--name <hint>` parsed as int / uint64; a non-numeric value is a
  /// parse error, and so is an int below `min`.
  void add_int(const std::string& name, std::string hint, std::string help,
               int* out, int min = std::numeric_limits<int>::min());
  void add_uint64(const std::string& name, std::string hint, std::string help,
                  std::uint64_t* out);

  /// Positional operand, consumed in declaration order. Required ones
  /// must appear before optional ones.
  void add_positional(std::string hint, std::string help, std::string* out,
                      bool required = true);

  /// Parses argv[1..). Returns false on error and fills *error (which
  /// never mentions --help; check help_requested() first — `--help`/`-h`
  /// stops parsing and returns true with help_requested() set).
  bool parse(int argc, char* const* argv, std::string* error);

  bool help_requested() const { return help_requested_; }

  /// True when `--name` appeared on the parsed command line, so a caller
  /// can tell an explicit value from the default.
  bool given(const std::string& name) const { return given_.contains(name); }

  /// The generated usage + option table.
  std::string help_text() const;

 private:
  struct Option {
    std::string name;  // without the leading "--"
    std::string hint;  // empty for flags
    std::string help;
    /// Applies one occurrence; returns an error message or "".
    std::function<std::string(const std::string& value)> apply;
    bool takes_value = false;
  };
  struct Positional {
    std::string hint;
    std::string help;
    std::string* out;
    bool required;
  };

  void add_option(Option option);
  const Option* find(const std::string& name) const;

  std::string program_;
  std::string description_;
  std::vector<Option> options_;
  std::vector<Positional> positionals_;
  std::set<std::string> given_;
  bool help_requested_ = false;
};

}  // namespace cmdare::util
