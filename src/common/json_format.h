// The one JSON string escaper and number formatter behind every export
// (metrics, traces, flight dumps, baselines, tool reports). Header-only, so
// the analysis tools and dufs_lint use it without linking the libraries.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace dufs::json {

// Appends `s` as JSON string contents (no surrounding quotes): `"` and `\`
// are backslash-escaped, newline and tab use their short escapes, and any
// other control character becomes \u00XX.
inline void AppendEscaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

inline void AppendQuoted(std::string& out, std::string_view s) {
  out += '"';
  AppendEscaped(out, s);
  out += '"';
}

inline std::string Escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendEscaped(out, s);
  return out;
}

// %.17g round-trips every double and prints integral values without an
// exponent or trailing zeros, so equal inputs always format identically.
inline void AppendNumber(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace dufs::json
