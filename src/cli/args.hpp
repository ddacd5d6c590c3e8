// Minimal command-line argument parser for the `nsrel` tool: one
// positional command followed by `--key value` flags. Typed accessors
// with defaults; unknown or malformed flags are reported, and every flag
// actually consumed is tracked so the tool can reject typos.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace nsrel::cli {

class Args {
 public:
  /// Parses {argv[1], ...}. The first non-flag token is the command;
  /// everything else must be `--key value` pairs, except for the
  /// whitelisted valueless flags (--help, --version, --metrics,
  /// --progress, --cache-stats) which parse as present with value "1",
  /// and the commands that take positional operands (`diff`, `events`,
  /// and `report`, whose operands are file paths). Throws
  /// ContractViolation naming the token on a flag without a value
  /// (including one followed directly by another flag) or a stray
  /// positional token after any other command.
  Args(int argc, const char* const* argv);

  /// Convenience for tests.
  explicit Args(const std::vector<std::string>& tokens);

  [[nodiscard]] const std::string& command() const { return command_; }

  [[nodiscard]] bool has(const std::string& key) const;

  /// Typed accessors; throw ContractViolation when present but malformed.
  /// The message carries parse_double's / parse_int's typed
  /// invalid_parameter error (not a number; for get_int also not an
  /// integer, or outside the int range).
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] int get_int(const std::string& key, int fallback) const;

  /// Flags present on the command line but never read by any accessor —
  /// almost certainly typos. Call after all gets.
  [[nodiscard]] std::vector<std::string> unused() const;

  /// Positional operands after the command, in order (only the commands
  /// whitelisted in the parser may have any).
  [[nodiscard]] const std::vector<std::string>& positionals() const {
    return positionals_;
  }

 private:
  std::string command_;
  std::vector<std::string> positionals_;
  std::map<std::string, std::string> flags_;
  mutable std::set<std::string> consumed_;
};

/// Rejects a well-formed flag value outside its domain: throws the usage
/// error (exit 4) carrying a typed cli.args invalid_parameter error,
/// "--<key> <problem>".
[[noreturn]] void invalid_flag(const std::string& key,
                               const std::string& problem);

}  // namespace nsrel::cli
