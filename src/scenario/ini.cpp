#include "scenario/ini.hpp"

#include <sstream>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace nsrel::scenario {

const IniDocument::Section IniDocument::kEmpty;

namespace {
[[noreturn]] void fail(int line, const std::string& message) {
  throw ContractViolation("scenario line " + std::to_string(line) + ": " +
                          message);
}
}  // namespace

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return {};
  const auto last = s.find_last_not_of(" \t\r\n");
  return s.substr(first, last - first + 1);
}

std::vector<std::string> split_list(const std::string& s, char delimiter) {
  std::vector<std::string> result;
  std::string piece;
  std::istringstream in(s);
  while (std::getline(in, piece, delimiter)) {
    const std::string trimmed = trim(piece);
    if (!trimmed.empty()) result.push_back(trimmed);
  }
  return result;
}

IniDocument IniDocument::parse(const std::string& text) {
  IniDocument doc;
  std::string current;  // section name
  std::istringstream in(text);
  std::string raw;
  int line_number = 0;
  while (std::getline(in, raw)) {
    ++line_number;
    // Strip comments (outside of any quoting — the format has none).
    const auto comment = raw.find_first_of("#;");
    const std::string line =
        trim(comment == std::string::npos ? raw : raw.substr(0, comment));
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') fail(line_number, "unterminated section header");
      current = trim(line.substr(1, line.size() - 2));
      if (current.empty()) fail(line_number, "empty section name");
      doc.sections_[current];  // create even if it stays empty
      continue;
    }
    const auto equals = line.find('=');
    if (equals == std::string::npos) {
      fail(line_number, "expected 'key = value', got '" + line + "'");
    }
    const std::string key = trim(line.substr(0, equals));
    const std::string value = trim(line.substr(equals + 1));
    if (key.empty()) fail(line_number, "empty key");
    auto& section = doc.sections_[current];
    if (section.contains(key)) {
      fail(line_number, "duplicate key '" + key + "' in section [" + current +
                            "]");
    }
    section[key] = value;
  }
  return doc;
}

bool IniDocument::has_section(const std::string& name) const {
  return sections_.contains(name);
}

const IniDocument::Section& IniDocument::section(
    const std::string& name) const {
  const auto it = sections_.find(name);
  return it == sections_.end() ? kEmpty : it->second;
}

std::vector<std::string> IniDocument::section_names() const {
  std::vector<std::string> names;
  for (const auto& [name, values] : sections_) names.push_back(name);
  return names;
}

std::string IniDocument::get(const std::string& section_name,
                             const std::string& key,
                             const std::string& fallback) const {
  const Section& s = section(section_name);
  const auto it = s.find(key);
  return it == s.end() ? fallback : it->second;
}

double IniDocument::get_double(const std::string& section_name,
                               const std::string& key, double fallback) const {
  const Section& s = section(section_name);
  const auto it = s.find(key);
  if (it == s.end()) return fallback;
  const Expected<double> value =
      parse_double(it->second, "scenario", "[" + section_name + "] " + key);
  if (!value.has_value()) throw ContractViolation(value.error().message());
  return value.value();
}

int IniDocument::get_int(const std::string& section_name,
                         const std::string& key, int fallback) const {
  const Section& s = section(section_name);
  const auto it = s.find(key);
  if (it == s.end()) return fallback;
  const Expected<int> value =
      parse_int(it->second, "scenario", "[" + section_name + "] " + key);
  if (!value.has_value()) throw ContractViolation(value.error().message());
  return value.value();
}

bool IniDocument::has(const std::string& section_name,
                      const std::string& key) const {
  return section(section_name).contains(key);
}

}  // namespace nsrel::scenario
