// json_lite: the one JSON string writer of this repo, plus a minimal
// recursive-descent JSON parser, header-only.
//
// append_json_string is how every emitter (stats_json, postmortem, journal
// frames, epoch/slow/event/decision rows, Chrome traces) writes a string,
// so no document carries a raw control byte or an unescaped quote. The
// parser exists so tests and `crfsctl` can read those documents back into
// a typed value and schema-check them, without a JSON library dependency.
// It supports the full JSON value grammar; \uXXXX escapes below 0x80
// decode exactly, others to '?'; numbers parse as double. Not a
// general-purpose parser: inputs are our own output, errors just return
// nullopt.
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace crfs::obs {

/// Appends `s` to `out` as a quoted JSON string: quote, backslash and every
/// byte below 0x20 are escaped (\n, \r, \t by name, the rest as \u00XX).
inline void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace crfs::obs

namespace crfs::obs::json {

struct Value {
  enum class Type { Null, Bool, Number, String, Array, Object };

  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  // shared_ptr: Value stays copyable while the struct is still incomplete.
  std::shared_ptr<std::vector<Value>> array;
  std::shared_ptr<std::map<std::string, Value>> object;

  bool is_object() const { return type == Type::Object; }
  bool is_array() const { return type == Type::Array; }
  bool is_number() const { return type == Type::Number; }
  bool is_string() const { return type == Type::String; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* get(const std::string& key) const {
    if (type != Type::Object || object == nullptr) return nullptr;
    auto it = object->find(key);
    return it == object->end() ? nullptr : &it->second;
  }
};

namespace detail {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> parse() {
    auto v = parse_value();
    skip_ws();
    if (!v.has_value() || pos_ != text_.size()) return std::nullopt;
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::optional<std::string> parse_string() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return std::nullopt;
        char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return std::nullopt;
            char* end = nullptr;
            const std::string hex(text_.substr(pos_, 4));
            const unsigned long cp = std::strtoul(hex.c_str(), &end, 16);
            if (end != hex.c_str() + 4) return std::nullopt;
            pos_ += 4;
            out += cp < 0x80 ? static_cast<char>(cp) : '?';  // we emit only \u00XX
            break;
          }
          default: return std::nullopt;
        }
      } else {
        out += c;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Value> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    const char c = text_[pos_];
    Value v;
    if (c == '{') {
      ++pos_;
      v.type = Value::Type::Object;
      v.object = std::make_shared<std::map<std::string, Value>>();
      skip_ws();
      if (consume('}')) return v;
      for (;;) {
        auto key = parse_string();
        if (!key.has_value() || !consume(':')) return std::nullopt;
        auto member = parse_value();
        if (!member.has_value()) return std::nullopt;
        (*v.object)[*key] = std::move(*member);
        if (consume(',')) continue;
        if (consume('}')) return v;
        return std::nullopt;
      }
    }
    if (c == '[') {
      ++pos_;
      v.type = Value::Type::Array;
      v.array = std::make_shared<std::vector<Value>>();
      skip_ws();
      if (consume(']')) return v;
      for (;;) {
        auto item = parse_value();
        if (!item.has_value()) return std::nullopt;
        v.array->push_back(std::move(*item));
        if (consume(',')) continue;
        if (consume(']')) return v;
        return std::nullopt;
      }
    }
    if (c == '"') {
      auto s = parse_string();
      if (!s.has_value()) return std::nullopt;
      v.type = Value::Type::String;
      v.string = std::move(*s);
      return v;
    }
    if (c == 't') {
      if (!literal("true")) return std::nullopt;
      v.type = Value::Type::Bool;
      v.boolean = true;
      return v;
    }
    if (c == 'f') {
      if (!literal("false")) return std::nullopt;
      v.type = Value::Type::Bool;
      return v;
    }
    if (c == 'n') {
      if (!literal("null")) return std::nullopt;
      return v;
    }
    // Number.
    char* end = nullptr;
    const double num = std::strtod(text_.data() + pos_, &end);
    if (end == text_.data() + pos_) return std::nullopt;
    pos_ = static_cast<std::size_t>(end - text_.data());
    v.type = Value::Type::Number;
    v.number = num;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace detail

/// Parses `text`; nullopt on any syntax error or trailing garbage.
inline std::optional<Value> parse(std::string_view text) {
  return detail::Parser(text).parse();
}

}  // namespace crfs::obs::json
