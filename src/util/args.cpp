#include "util/args.hpp"

#include <algorithm>
#include <charconv>
#include <utility>
#include <stdexcept>

namespace cmdare::util {
namespace {

template <typename T>
std::string parse_number(const std::string& value, T* out) {
  const char* first = value.data();
  const char* last = first + value.size();
  T parsed{};
  const auto [ptr, ec] = std::from_chars(first, last, parsed);
  if (ec != std::errc() || ptr != last) {
    return "expected a number, got \"" + value + "\"";
  }
  *out = parsed;
  return "";
}

}  // namespace

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::add_option(Option option) {
  if (find(option.name) != nullptr) {
    throw std::logic_error("ArgParser: duplicate option --" + option.name);
  }
  options_.push_back(std::move(option));
}

void ArgParser::add_flag(const std::string& name, std::string help,
                         bool* out) {
  add_option({name, "", std::move(help),
              [out](const std::string&) {
                *out = true;
                return std::string();
              },
              false});
}

void ArgParser::add_value(const std::string& name, std::string hint,
                          std::string help, std::string* out) {
  add_option({name, std::move(hint), std::move(help),
              [out](const std::string& value) {
                *out = value;
                return std::string();
              },
              true});
}

void ArgParser::add_repeated(const std::string& name, std::string hint,
                             std::string help,
                             std::vector<std::string>* out) {
  add_option({name, std::move(hint), std::move(help),
              [out](const std::string& value) {
                out->push_back(value);
                return std::string();
              },
              true});
}

void ArgParser::add_int(const std::string& name, std::string hint,
                        std::string help, int* out, int min) {
  add_option({name, std::move(hint), std::move(help),
              [out, min](const std::string& value) {
                int parsed = 0;
                std::string error = parse_number(value, &parsed);
                if (error.empty() && parsed < min) {
                  error = "must be at least " + std::to_string(min) +
                          ", got " + value;
                }
                if (error.empty()) *out = parsed;
                return error;
              },
              true});
}

void ArgParser::add_uint64(const std::string& name, std::string hint,
                           std::string help, std::uint64_t* out) {
  add_option({name, std::move(hint), std::move(help),
              [out](const std::string& value) {
                return parse_number(value, out);
              },
              true});
}

void ArgParser::add_positional(std::string hint, std::string help,
                               std::string* out, bool required) {
  if (required && !positionals_.empty() && !positionals_.back().required) {
    throw std::logic_error(
        "ArgParser: required positional after an optional one");
  }
  positionals_.push_back({std::move(hint), std::move(help), out, required});
}

const ArgParser::Option* ArgParser::find(const std::string& name) const {
  for (const Option& option : options_) {
    if (option.name == name) return &option;
  }
  return nullptr;
}

bool ArgParser::parse(int argc, char* const* argv, std::string* error) {
  std::size_t next_positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return true;
    }
    if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
      const Option* option = find(arg.substr(2));
      if (option == nullptr) {
        if (error) *error = "unknown option " + arg;
        return false;
      }
      std::string value;
      if (option->takes_value) {
        if (i + 1 >= argc) {
          if (error) *error = arg + " requires a value";
          return false;
        }
        value = argv[++i];
      }
      const std::string apply_error = option->apply(value);
      if (!apply_error.empty()) {
        if (error) *error = arg + ": " + apply_error;
        return false;
      }
      given_.insert(option->name);
      continue;
    }
    if (next_positional >= positionals_.size()) {
      if (error) *error = "unexpected argument \"" + arg + "\"";
      return false;
    }
    *positionals_[next_positional++].out = arg;
  }
  if (next_positional < positionals_.size() &&
      positionals_[next_positional].required) {
    if (error) {
      *error = "missing required <" + positionals_[next_positional].hint + ">";
    }
    return false;
  }
  return true;
}

std::string ArgParser::help_text() const {
  std::string out = "usage: " + program_;
  for (const Positional& p : positionals_) {
    out += p.required ? " <" + p.hint + ">" : " [" + p.hint + "]";
  }
  if (!options_.empty()) out += " [options]";
  out += "\n";
  if (!description_.empty()) out += description_ + "\n";
  if (!positionals_.empty()) {
    out += "arguments:\n";
    for (const Positional& p : positionals_) {
      out += "  <" + p.hint + ">  " + p.help + "\n";
    }
  }
  out += "options:\n";
  std::vector<std::pair<std::string, std::string>> rows;
  rows.reserve(options_.size() + 1);
  for (const Option& option : options_) {
    std::string left = "--" + option.name;
    if (option.takes_value) left += " <" + option.hint + ">";
    rows.emplace_back(std::move(left), option.help);
  }
  rows.emplace_back("--help", "show this text");
  std::size_t width = 0;
  for (const auto& [left, help] : rows) width = std::max(width, left.size());
  for (const auto& [left, help] : rows) {
    out += "  " + left + std::string(width - left.size() + 2, ' ') + help +
           "\n";
  }
  return out;
}

}  // namespace cmdare::util
