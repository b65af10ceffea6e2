#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ityr::common {

/// Minimal JSON tree (no external dependencies), shared by the trace checker
/// and tools/stats_diff. The one source file it needs, json.cpp, depends on
/// nothing else in the library, so standalone tools can compile it directly.
struct json_value {
  enum class type : std::uint8_t { null, boolean, number, string, array, object };
  type t = type::null;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<json_value> arr;
  std::vector<std::pair<std::string, json_value>> obj;  ///< members in document order

  /// First member named `key`, or nullptr (also for non-objects).
  const json_value* find(const char* key) const {
    for (const auto& kv : obj) {
      if (kv.first == key) return &kv.second;
    }
    return nullptr;
  }
};

/// Parse one complete JSON document (trailing non-whitespace is an error).
/// Numbers go through strtod, so the non-standard `nan` / `inf` tokens some
/// printf-written files carry are accepted. \uXXXX escapes are validated and
/// decoded as '?'. Returns false with a message in `error` on malformed input.
bool parse_json(const std::string& text, json_value& out, std::string& error);

/// Append `s` to `out` as the body of a JSON string literal: '"' and '\\'
/// are backslash-escaped, control characters become \u00XX.
void append_json_escaped(std::string& out, const char* s);
inline void append_json_escaped(std::string& out, const std::string& s) {
  append_json_escaped(out, s.c_str());
}

}  // namespace ityr::common
