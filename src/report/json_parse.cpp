#include "report/json_parse.hpp"

#include <cerrno>
#include <cstddef>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nsrel::report {

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

/// Guards against stack exhaustion from adversarial nesting; the
/// documents this library writes are at most ~6 levels deep.
constexpr std::size_t kMaxDepth = 64;

/// Recursive-descent parser. Errors are signalled through ErrorException
/// (caught once at the catch_typed boundary) so the recursion does not
/// have to thread Expected through every production.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing content after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ErrorException(Error{ErrorCode::kMalformedDocument, "report.json",
                               what + " at offset " + std::to_string(pos_)});
  }

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  void skip_whitespace() {
    while (!at_end()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c, const char* context) {
    if (at_end() || peek() != c) {
      fail(std::string("expected '") + c + "' " + context);
    }
    ++pos_;
  }

  void expect_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      fail("invalid literal (expected '" + std::string(literal) + "')");
    }
    pos_ += literal.size();
  }

  JsonValue parse_value(std::size_t depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_whitespace();
    if (at_end()) fail("unexpected end of document");
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return parse_string_value();
      case 't':
        expect_literal("true");
        return make_bool(true);
      case 'f':
        expect_literal("false");
        return make_bool(false);
      case 'n':
        expect_literal("null");
        return JsonValue{};
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        fail("unexpected character");
    }
  }

  static JsonValue make_bool(bool flag) {
    JsonValue value;
    value.kind = JsonValue::Kind::kBool;
    value.boolean = flag;
    return value;
  }

  JsonValue parse_object(std::size_t depth) {
    expect('{', "to open object");
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    skip_whitespace();
    if (!at_end() && peek() == '}') {
      ++pos_;
      return value;
    }
    for (;;) {
      skip_whitespace();
      if (at_end() || peek() != '"') fail("expected object key");
      std::string key = parse_string();
      if (value.find(key) != nullptr) fail("duplicate key '" + key + "'");
      skip_whitespace();
      expect(':', "after object key");
      value.members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      if (at_end()) fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}', "to close object");
      return value;
    }
  }

  JsonValue parse_array(std::size_t depth) {
    expect('[', "to open array");
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    skip_whitespace();
    if (!at_end() && peek() == ']') {
      ++pos_;
      return value;
    }
    for (;;) {
      value.items.push_back(parse_value(depth + 1));
      skip_whitespace();
      if (at_end()) fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']', "to close array");
      return value;
    }
  }

  JsonValue parse_string_value() {
    JsonValue value;
    value.kind = JsonValue::Kind::kString;
    value.text = parse_string();
    return value;
  }

  std::string parse_string() {
    expect('"', "to open string");
    std::string out;
    for (;;) {
      if (at_end()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (at_end()) fail("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u':
          append_unicode_escape(out);
          break;
        default:
          pos_ -= 2;
          fail("invalid escape sequence");
      }
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4U;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape digit");
      }
    }
    return code;
  }

  void append_unicode_escape(std::string& out) {
    unsigned code = parse_hex4();
    if (code >= 0xD800 && code <= 0xDBFF) {
      // High surrogate: must be followed by \uDC00-\uDFFF.
      if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u') {
        fail("unpaired surrogate in \\u escape");
      }
      pos_ += 2;
      const unsigned low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
      code = 0x10000 + ((code - 0xD800) << 10U) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      fail("unpaired surrogate in \\u escape");
    }
    // UTF-8 encode.
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6U)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3FU)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12U)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6U) & 0x3FU)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3FU)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18U)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12U) & 0x3FU)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6U) & 0x3FU)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3FU)));
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') ++pos_;
    if (at_end() || peek() < '0' || peek() > '9') fail("invalid number");
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!at_end() && peek() == '.') {
      ++pos_;
      if (at_end() || peek() < '0' || peek() > '9') {
        fail("invalid number fraction");
      }
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      if (at_end() || peek() < '0' || peek() > '9') {
        fail("invalid number exponent");
      }
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    value.text = std::string(text_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    value.number = std::strtod(value.text.c_str(), &end);
    if (end != value.text.c_str() + value.text.size()) fail("invalid number");
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json_or_throw(std::string_view text) {
  return Parser(text).parse_document();
}

[[nodiscard]] Expected<JsonValue> parse_json(std::string_view text) {
  return catch_typed<JsonValue>([text] { return parse_json_or_throw(text); });
}

}  // namespace nsrel::report
