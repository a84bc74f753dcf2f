// The turtled wire protocol codec — shared verbatim by the daemon and
// turtlectl, which is what makes "client answer == in-process answer"
// checkable byte for byte (the smoke test's core assertion).
//
// Grammar (full reference in PROTOCOL.md):
//
//   request  = command *( SP token ) [CR] LF        ; one line, <= 512 bytes
//   command  = "QUERY" SP addr *( SP option )
//            / "STATS" / "VERSION" / "SWAP" SP path / "QUIT"
//   option   = "scope=" ("block"|"as"|"global")
//            / "policy=" u32
//            / "addr-coverage=" number / "ping-coverage=" number
//   response = ( "OK" / "ERR" ) SP ... [CR] LF      ; exactly one line
//
// UDP carries one request line per datagram and one response line back.
// Every parse failure maps to a named ParseError, serialized as
// `ERR <code> <detail>` and counted under daemon.proto.rejected — a
// malformed line is an accounted event, never a crash or a silent drop.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "serve/oracle_server.h"
#include "serve/oracle_snapshot.h"

namespace turtle::daemon::proto {

/// Protocol revision reported by VERSION; bumped on any grammar change.
inline constexpr std::uint32_t kProtoVersion = 1;
/// Hard bound on one request line (terminator excluded). Longer input is
/// rejected, not buffered — the codec's memory is bounded by construction.
inline constexpr std::size_t kMaxLineBytes = 512;

enum class Command : std::uint8_t { kQuery, kStats, kVersion, kSwap, kQuit };

[[nodiscard]] const char* command_name(Command command);

enum class ParseError : std::uint8_t {
  kEmptyLine,       ///< nothing but whitespace
  kLineTooLong,     ///< exceeded kMaxLineBytes before a terminator
  kUnknownCommand,  ///< first token is not a known verb
  kBadAddress,      ///< QUERY operand is not a dotted quad
  kBadOption,       ///< unknown or malformed key=value option
  kMissingArgument, ///< QUERY/SWAP without their required operand
  kTrailingGarbage, ///< operands after a verb that takes none
};

/// Stable wire code for an error (e.g. "bad-address"); part of the
/// protocol surface, not just diagnostics.
[[nodiscard]] const char* parse_error_code(ParseError error);

struct ParsedRequest {
  Command command = Command::kQuery;
  /// kQuery: the oracle request (addr, coverages, scope forcing).
  serve::Request query;
  /// kSwap: snapshot file operand.
  std::string swap_path;
};

/// Parses one request line (terminator already stripped), walking its
/// tokens in place: a QUERY allocates nothing. On failure returns nullopt
/// and sets `error`.
[[nodiscard]] std::optional<ParsedRequest> parse_request(std::string_view line,
                                                         ParseError& error);

/// Appends `OK QUERY timeout_us=... scope=... samples=... confidence=...
/// version=...` (no terminator) to `out`: the one reply formatter. turtled
/// appends into a buffer it reuses, so a reply allocates nothing.
void append_query_response(std::string& out, const serve::LookupResult& result);
/// The same reply as a fresh string.
[[nodiscard]] std::string format_query_response(const serve::LookupResult& result);
/// `ERR <code> <detail>`
[[nodiscard]] std::string format_error(ParseError error);
[[nodiscard]] std::string format_error(std::string_view code, std::string_view detail);

/// Splits a TCP byte stream into request lines with bounded buffering.
/// Accepts LF and CRLF terminators. Once a line exceeds the limit the
/// splitter swallows bytes until the next terminator, reports the
/// oversized line as one kLineTooLong event, then resynchronizes —
/// a hostile client costs O(max_line) memory, never unbounded growth.
class LineSplitter {
 public:
  explicit LineSplitter(std::size_t max_line = kMaxLineBytes);

  /// Feeds bytes; calls `on_line(line)` per complete line (terminator and
  /// trailing CR stripped) and `on_overflow()` once per oversized line.
  void feed(std::string_view bytes, const std::function<void(std::string_view)>& on_line,
            const std::function<void()>& on_overflow);

  /// Bytes buffered awaiting a terminator (bounded by max_line).
  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

 private:
  std::size_t max_line_;
  std::string buffer_;
  bool discarding_ = false;
};

}  // namespace turtle::daemon::proto
