#include "obs/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>

#include "util/check.h"

namespace turtle::obs {

std::string json_escape(std::string_view s) {
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
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_quote(std::string_view s) { return "\"" + json_escape(s) + "\""; }

std::string json_fixed(double value, int precision) {
  std::string out;
  append_json_fixed(out, value, precision);
  return out;
}

void append_json_fixed(std::string& out, double value, int precision) {
  if (!std::isfinite(value)) value = 0;
  // A sign, DBL_MAX's 309 integer digits and the point leave room for
  // 200 fraction digits.
  char buf[512];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof buf, value, std::chars_format::fixed, precision);
  TURTLE_CHECK(ec == std::errc{}) << "json_fixed precision " << precision;
  out.append(buf, static_cast<std::size_t>(end - buf));
}

}  // namespace turtle::obs
