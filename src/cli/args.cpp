#include "cli/args.hpp"

#include <cstddef>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace nsrel::cli {

namespace {

std::vector<std::string> to_tokens(int argc, const char* const* argv) {
  std::vector<std::string> tokens;
  for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);
  return tokens;
}

/// The few flags that take no value; everything else is `--key value`.
bool is_bare_flag(const std::string& key) {
  return key == "help" || key == "version" || key == "metrics" ||
         key == "progress" || key == "cache-stats";
}

bool is_flag(const std::string& token) { return token.rfind("--", 0) == 0; }

}  // namespace

Args::Args(int argc, const char* const* argv) : Args(to_tokens(argc, argv)) {}

Args::Args(const std::vector<std::string>& tokens) {
  std::size_t i = 0;
  if (i < tokens.size() && !is_flag(tokens[i])) {
    command_ = tokens[i];
    ++i;
  }
  for (; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (!is_flag(token)) {
      // Positional operands exist only for the file-reading commands
      // (diff's two documents, events' journal, report's inputs); after
      // any other command a bare token is a typo.
      if (command_ != "diff" && command_ != "events" && command_ != "report") {
        throw ContractViolation("unexpected argument '" + token + "'" +
                                (command_.empty() ? "" : " after " + command_));
      }
      positionals_.push_back(token);
      continue;
    }
    const std::string key = token.substr(2);
    if (is_bare_flag(key)) {
      flags_[key] = std::string("1");  // a temporary: see sci_interval
      continue;
    }
    // A value never starts with "--" (negative numbers take one dash),
    // so `--format --jobs 2` is a missing value, not format "--jobs".
    if (i + 1 >= tokens.size() || is_flag(tokens[i + 1])) {
      throw ContractViolation("flag " + token + " requires a value");
    }
    flags_[key] = tokens[++i];
  }
}

bool Args::has(const std::string& key) const {
  consumed_.insert(key);
  return flags_.contains(key);
}

std::string Args::get_string(const std::string& key,
                             const std::string& fallback) const {
  consumed_.insert(key);
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second;
}

double Args::get_double(const std::string& key, double fallback) const {
  consumed_.insert(key);
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  const Expected<double> value =
      parse_double(it->second, "cli.args", "--" + key);
  if (!value.has_value()) throw ContractViolation(value.error().message());
  return value.value();
}

int Args::get_int(const std::string& key, int fallback) const {
  consumed_.insert(key);
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  const Expected<int> value = parse_int(it->second, "cli.args", "--" + key);
  if (!value.has_value()) throw ContractViolation(value.error().message());
  return value.value();
}

void invalid_flag(const std::string& key, const std::string& problem) {
  throw ContractViolation(
      Error{ErrorCode::kInvalidParameter, "cli.args", "--" + key + " " + problem}
          .message());
}

void invalid_flag(const Error& error) {
  throw ContractViolation(
      Error{ErrorCode::kInvalidParameter, "cli.args", "--" + error.detail}
          .message());
}

std::vector<std::string> Args::unused() const {
  std::vector<std::string> result;
  for (const auto& [key, value] : flags_) {
    if (!consumed_.contains(key)) result.push_back(key);
  }
  return result;
}

}  // namespace nsrel::cli
