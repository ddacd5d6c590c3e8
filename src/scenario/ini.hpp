// Minimal INI reader for scenario files.
//
// Grammar:
//   file     := (blank | comment | section | keyvalue)*
//   comment  := ('#' | ';') ... end of line
//   section  := '[' name ']'
//   keyvalue := key '=' value        (both trimmed; value may be empty)
//
// Keys before any section header land in the "" section. Duplicate keys
// within a section are an error (scenario files are declarative, a silent
// override hides typos). Errors carry 1-based line numbers.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace nsrel::scenario {

class IniDocument {
 public:
  using Section = std::map<std::string, std::string>;

  /// Parses the text; throws ContractViolation with a line number on
  /// malformed input.
  [[nodiscard]] static IniDocument parse(const std::string& text);

  [[nodiscard]] bool has_section(const std::string& name) const;
  /// The section's key/value map; empty map when absent.
  [[nodiscard]] const Section& section(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> section_names() const;

  /// Value lookup with default; `section.key` style.
  [[nodiscard]] std::string get(const std::string& section_name,
                                const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] double get_double(const std::string& section_name,
                                  const std::string& key,
                                  double fallback) const;
  /// Range-checked: throws ContractViolation carrying parse_int's typed
  /// invalid_parameter error for a non-number, a fraction, or a value
  /// outside the int range.
  [[nodiscard]] int get_int(const std::string& section_name,
                            const std::string& key, int fallback) const;
  [[nodiscard]] bool has(const std::string& section_name,
                         const std::string& key) const;

 private:
  std::map<std::string, Section> sections_;
  static const Section kEmpty;
};

/// Strips leading/trailing whitespace.
[[nodiscard]] std::string trim(const std::string& s);

/// Splits on a delimiter and trims each piece; empty pieces dropped.
[[nodiscard]] std::vector<std::string> split_list(const std::string& s,
                                                  char delimiter = ',');

}  // namespace nsrel::scenario
