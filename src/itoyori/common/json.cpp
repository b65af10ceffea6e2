#include "itoyori/common/json.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace ityr::common {

namespace {

struct parser {
  const char* p;
  const char* end;
  std::string error;

  bool fail(const std::string& msg) {
    if (error.empty()) error = msg;
    return false;
  }
  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) p++;
  }
  bool consume(char c) {
    skip_ws();
    if (p < end && *p == c) {
      p++;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }
  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (static_cast<std::size_t>(end - p) < n || std::strncmp(p, word, n) != 0) return false;
    p += n;
    return true;
  }

  bool parse_string(std::string& out) {
    static constexpr char kEscaped[] = "\"\\/bfnrt";
    static constexpr char kDecoded[] = "\"\\/\b\f\n\r\t";
    if (!consume('"')) return false;
    out.clear();
    for (; p < end && *p != '"'; p++) {
      if (*p != '\\') {
        out += *p;
        continue;
      }
      if (++p >= end) return fail("bad escape");
      const char* k = *p != '\0' ? std::strchr(kEscaped, *p) : nullptr;
      if (k != nullptr) {
        out += kDecoded[k - kEscaped];
      } else if (*p == 'u' && std::strspn(p + 1, "0123456789abcdefABCDEF") >= 4) {
        p += 4;
        out += '?';  // validity only; the names read here are ASCII
      } else {
        return fail("bad escape");
      }
    }
    if (p >= end) return fail("unterminated string");
    p++;  // closing quote
    return true;
  }

  /// Comma-separated items up to `close`; `item` parses one element.
  template <typename F>
  bool parse_items(char close, F&& item) {
    skip_ws();
    if (p < end && *p == close) {
      p++;
      return true;
    }
    while (true) {
      if (!item()) return false;
      skip_ws();
      if (p < end && *p == ',') {
        p++;
        continue;
      }
      return consume(close);
    }
  }

  bool parse_value(json_value& v) {
    skip_ws();
    if (p >= end) return fail("unexpected end of input");
    const char c = *p;
    if (c == '{') {
      p++;
      v.t = json_value::type::object;
      return parse_items('}', [&] {
        std::string key;
        json_value child;
        if (!parse_string(key) || !consume(':') || !parse_value(child)) return false;
        v.obj.emplace_back(std::move(key), std::move(child));
        return true;
      });
    }
    if (c == '[') {
      p++;
      v.t = json_value::type::array;
      return parse_items(']', [&] {
        json_value child;
        if (!parse_value(child)) return false;
        v.arr.push_back(std::move(child));
        return true;
      });
    }
    if (c == '"') {
      v.t = json_value::type::string;
      return parse_string(v.str);
    }
    if (literal("true") || literal("false")) {
      v.t = json_value::type::boolean;
      v.b = c == 't';
      return true;
    }
    if (literal("null")) {
      v.t = json_value::type::null;
      return true;
    }
    // The input is NUL-terminated (std::string), so strtod and strspn cannot
    // overrun.
    char* num_end = nullptr;
    v.t = json_value::type::number;
    v.num = std::strtod(p, &num_end);
    if (num_end == p || num_end > end) {
      return fail(std::string("unexpected character '") + c + "'");
    }
    p = num_end;
    return true;
  }
};

}  // namespace

bool parse_json(const std::string& text, json_value& out, std::string& error) {
  parser ps{text.data(), text.data() + text.size(), {}};
  out = {};
  if (!ps.parse_value(out)) {
    error = ps.error + " at offset " + std::to_string(ps.p - text.data());
    return false;
  }
  ps.skip_ws();
  if (ps.p != ps.end) {
    error = "trailing garbage after JSON document at offset " + std::to_string(ps.p - text.data());
    return false;
  }
  return true;
}

void append_json_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; s++) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
}

}  // namespace ityr::common
