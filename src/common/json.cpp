#include "common/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace emx::json {

namespace {

constexpr int kMaxDepth = 64;

struct Parser {
  explicit Parser(std::string_view t) : text(t) {}

  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  bool fail(const std::string& why) {
    if (error.empty())
      error = why + " at byte " + std::to_string(pos);
    return false;
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r'))
      ++pos;
  }

  bool consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool literal(const char* word, std::size_t len) {
    if (text.size() - pos < len || text.compare(pos, len, word) != 0)
      return fail(std::string("expected '") + word + "'");
    pos += len;
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected '\"'");
    out.clear();
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("unescaped control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos >= text.size()) return fail("truncated escape");
      const char e = text[pos++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (text.size() - pos < 4) return fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad hex digit in \\u escape");
          }
          // BMP only (no surrogate pairing): encode as UTF-8.
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos;
    if (consume('-')) {}
    while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos])))
      ++pos;
    bool is_double = false;
    if (pos < text.size() && text[pos] == '.') {
      is_double = true;
      ++pos;
      while (pos < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[pos])))
        ++pos;
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      is_double = true;
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      while (pos < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[pos])))
        ++pos;
    }
    const std::string token(text.substr(start, pos - start));
    if (token.empty() || token == "-") return fail("malformed number");
    errno = 0;
    if (!is_double) {
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        out = Value::integer(v);
        return true;
      }
      // Out of int64 range: fall through to double.
    }
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("malformed number");
    out = Value::real(d);
    return true;
  }

  bool parse_value(Value& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting deeper than 64 levels");
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{') {
      ++pos;
      out = Value::object();
      skip_ws();
      if (consume('}')) return true;
      while (true) {
        skip_ws();
        std::string key;
        if (!parse_string(key)) return false;
        skip_ws();
        if (!consume(':')) return fail("expected ':'");
        Value v;
        if (!parse_value(v, depth + 1)) return false;
        out.set(key, std::move(v));
        skip_ws();
        if (consume(',')) continue;
        if (consume('}')) return true;
        return fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos;
      out = Value::array();
      skip_ws();
      if (consume(']')) return true;
      while (true) {
        Value v;
        if (!parse_value(v, depth + 1)) return false;
        out.push(std::move(v));
        skip_ws();
        if (consume(',')) continue;
        if (consume(']')) return true;
        return fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      std::string s;
      if (!parse_string(s)) return false;
      out = Value::string(std::move(s));
      return true;
    }
    if (c == 't') {
      if (!literal("true", 4)) return false;
      out = Value::boolean(true);
      return true;
    }
    if (c == 'f') {
      if (!literal("false", 5)) return false;
      out = Value::boolean(false);
      return true;
    }
    if (c == 'n') {
      if (!literal("null", 4)) return false;
      out = Value();
      return true;
    }
    return parse_number(out);
  }
};

void dump_value(const Value& v, int indent, int level, std::string& out);

void append_indent(int indent, int level, std::string& out) {
  if (indent < 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent * level), ' ');
}

void dump_double(double d, std::string& out) {
  // Shortest representation that round-trips: try increasing precision.
  char buf[40];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  // JSON has no NaN/Inf; they cannot arise from our writers, but keep
  // the output parseable if one ever does.
  if (std::strchr(buf, 'n') != nullptr || std::strchr(buf, 'i') != nullptr)
    std::snprintf(buf, sizeof buf, "null");
  out += buf;
}

void dump_value(const Value& v, int indent, int level, std::string& out) {
  switch (v.kind()) {
    case Value::Kind::kNull: out += "null"; return;
    case Value::Kind::kBool: out += v.as_bool() ? "true" : "false"; return;
    case Value::Kind::kInt: out += std::to_string(v.as_int()); return;
    case Value::Kind::kDouble: dump_double(v.as_double(), out); return;
    case Value::Kind::kString:
      out.push_back('"');
      out += escape(v.as_string());
      out.push_back('"');
      return;
    case Value::Kind::kArray: {
      if (v.items().empty()) {
        out += "[]";
        return;
      }
      out.push_back('[');
      bool first = true;
      for (const Value& e : v.items()) {
        if (!first) out.push_back(',');
        first = false;
        append_indent(indent, level + 1, out);
        dump_value(e, indent, level + 1, out);
      }
      append_indent(indent, level, out);
      out.push_back(']');
      return;
    }
    case Value::Kind::kObject: {
      if (v.members().empty()) {
        out += "{}";
        return;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [key, e] : v.members()) {
        if (!first) out.push_back(',');
        first = false;
        append_indent(indent, level + 1, out);
        out.push_back('"');
        out += escape(key);
        out += indent < 0 ? "\":" : "\": ";
        dump_value(e, indent, level + 1, out);
      }
      append_indent(indent, level, out);
      out.push_back('}');
      return;
    }
  }
}

}  // namespace

Value Value::boolean(bool v) {
  Value r;
  r.kind_ = Kind::kBool;
  r.bool_ = v;
  return r;
}

Value Value::integer(std::int64_t v) {
  Value r;
  r.kind_ = Kind::kInt;
  r.int_ = v;
  return r;
}

Value Value::real(double v) {
  Value r;
  r.kind_ = Kind::kDouble;
  r.double_ = v;
  return r;
}

Value Value::string(std::string v) {
  Value r;
  r.kind_ = Kind::kString;
  r.string_ = std::move(v);
  return r;
}

Value Value::array() {
  Value r;
  r.kind_ = Kind::kArray;
  return r;
}

Value Value::object() {
  Value r;
  r.kind_ = Kind::kObject;
  return r;
}

bool Value::as_bool(bool fallback) const {
  return kind_ == Kind::kBool ? bool_ : fallback;
}

std::int64_t Value::as_int(std::int64_t fallback) const {
  if (kind_ == Kind::kInt) return int_;
  if (kind_ == Kind::kDouble) return static_cast<std::int64_t>(double_);
  return fallback;
}

double Value::as_double(double fallback) const {
  if (kind_ == Kind::kDouble) return double_;
  if (kind_ == Kind::kInt) return static_cast<double>(int_);
  return fallback;
}

const std::string& Value::as_string() const {
  static const std::string empty;
  return kind_ == Kind::kString ? string_ : empty;
}

Value& Value::push(Value v) {
  items_.push_back(std::move(v));
  return items_.back();
}

Value& Value::set(const std::string& key, Value v) {
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return existing;
    }
  }
  members_.emplace_back(key, std::move(v));
  return members_.back().second;
}

const Value* Value::find(const std::string& key) const {
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_value(*this, indent, 0, out);
  return out;
}

Value Value::parse(std::string_view text, std::string& error) {
  Parser p(text);
  Value v;
  if (!p.parse_value(v, 0)) {
    error = p.error;
    return Value();
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    error = "trailing bytes after the JSON value at byte " +
            std::to_string(p.pos);
    return Value();
  }
  error.clear();
  return v;
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string quote(std::string_view s) {
  // Built with += rather than a chained + — the chain trips GCC 12's
  // -Wrestrict false positive at -O3.
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  out += escape(s);
  out += '"';
  return out;
}

}  // namespace emx::json
