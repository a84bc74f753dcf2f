// Minimal JSON rendering helpers shared by every emitter in the repo:
// the bench --json-out reports (bench/report.cc), the metrics registry
// dump (obs/metrics.cc), and the Chrome trace writer (obs/trace.cc).
// One escaping routine instead of three hand-rolled ones drifting apart.
//
// Deliberately not a JSON library: there is no parser, no DOM, and no
// number heuristics — just correct string escaping and a fixed-notation
// double so output stays diffable byte for byte.
#pragma once

#include <string>
#include <string_view>

namespace turtle::obs {

/// Escapes `s` for inclusion inside a JSON string literal. Quotes are
/// NOT added; `"` `\` and control characters are escaped per RFC 8259.
[[nodiscard]] std::string json_escape(std::string_view s);

/// `s` as a complete JSON string token, surrounding quotes included.
[[nodiscard]] std::string json_quote(std::string_view s);

/// Fixed-notation double (no exponent surprises), `precision` digits
/// after the decimal point (at most 200), rounded half to even like
/// printf's %.*f. NaN/inf render as 0 — JSON has no spelling for them and
/// a silent null would break flat diffing.
[[nodiscard]] std::string json_fixed(double value, int precision = 6);
/// Appends json_fixed(value, precision) to `out`.
void append_json_fixed(std::string& out, double value, int precision = 6);

}  // namespace turtle::obs
