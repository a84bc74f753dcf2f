#include "daemon/proto.h"

#include <charconv>
#include <system_error>

#include "net/ipv4.h"
#include "obs/json.h"
#include "util/check.h"

namespace turtle::daemon::proto {
namespace {

/// Takes the next token off the front of `rest`, in place; empty once no
/// token is left. Tokens are split on single spaces; empty ones (doubled
/// spaces, leading or trailing space) are skipped, so formatting slack is
/// tolerated.
std::string_view next_token(std::string_view& rest) {
  const std::size_t begin = rest.find_first_not_of(' ');
  if (begin == std::string_view::npos) return {};
  rest.remove_prefix(begin);
  const std::string_view token = rest.substr(0, rest.find(' '));
  rest.remove_prefix(token.size());
  return token;
}

template <class Int>
void append_decimal(std::string& out, Int value) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  TURTLE_DCHECK(ec == std::errc{});
  out.append(buf, static_cast<std::size_t>(end - buf));
}

bool parse_u32(std::string_view text, std::uint32_t& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

bool parse_double(std::string_view text, double& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end && out >= 0.0 && out <= 100.0;
}

bool parse_query_option(std::string_view token, serve::Request& query) {
  const std::size_t eq = token.find('=');
  if (eq == std::string_view::npos || eq == 0 || eq + 1 >= token.size()) return false;
  const std::string_view key = token.substr(0, eq);
  const std::string_view value = token.substr(eq + 1);
  if (key == "scope") {
    if (value == "block") {
      query.min_scope = serve::LookupScope::kBlock;
    } else if (value == "as") {
      query.min_scope = serve::LookupScope::kAs;
    } else if (value == "global") {
      query.min_scope = serve::LookupScope::kGlobal;
    } else {
      return false;
    }
    return true;
  }
  if (key == "policy") {
    // Accepted for older clients and discarded: every answer comes from
    // the snapshot.
    std::uint32_t policy = 0;
    return parse_u32(value, policy);
  }
  if (key == "addr-coverage") return parse_double(value, query.addr_coverage);
  if (key == "ping-coverage") return parse_double(value, query.ping_coverage);
  return false;
}

}  // namespace

const char* command_name(Command command) {
  switch (command) {
    case Command::kQuery:
      return "QUERY";
    case Command::kStats:
      return "STATS";
    case Command::kVersion:
      return "VERSION";
    case Command::kSwap:
      return "SWAP";
    case Command::kQuit:
      return "QUIT";
  }
  return "?";
}

const char* parse_error_code(ParseError error) {
  switch (error) {
    case ParseError::kEmptyLine:
      return "empty-line";
    case ParseError::kLineTooLong:
      return "line-too-long";
    case ParseError::kUnknownCommand:
      return "unknown-command";
    case ParseError::kBadAddress:
      return "bad-address";
    case ParseError::kBadOption:
      return "bad-option";
    case ParseError::kMissingArgument:
      return "missing-argument";
    case ParseError::kTrailingGarbage:
      return "trailing-garbage";
  }
  return "internal";
}

std::optional<ParsedRequest> parse_request(std::string_view line, ParseError& error) {
  const auto reject = [&error](ParseError why) {
    error = why;
    return std::nullopt;
  };
  if (line.size() > kMaxLineBytes) return reject(ParseError::kLineTooLong);
  // Tolerate a stray trailing CR (a CRLF datagram client).
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  const std::string_view verb = next_token(line);
  if (verb.empty()) return reject(ParseError::kEmptyLine);

  ParsedRequest parsed;
  if (verb == "QUERY") {
    parsed.command = Command::kQuery;
    const std::string_view operand = next_token(line);
    if (operand.empty()) return reject(ParseError::kMissingArgument);
    const auto addr = net::Ipv4Address::parse(operand);
    if (!addr.has_value()) return reject(ParseError::kBadAddress);
    parsed.query.addr = *addr;
    for (std::string_view option = next_token(line); !option.empty(); option = next_token(line)) {
      if (!parse_query_option(option, parsed.query)) return reject(ParseError::kBadOption);
    }
    return parsed;
  }
  if (verb == "SWAP") {
    parsed.command = Command::kSwap;
    const std::string_view operand = next_token(line);
    if (operand.empty()) return reject(ParseError::kMissingArgument);
    if (!next_token(line).empty()) return reject(ParseError::kTrailingGarbage);
    parsed.swap_path = std::string{operand};
    return parsed;
  }
  if (verb == "STATS" || verb == "VERSION" || verb == "QUIT") {
    if (!next_token(line).empty()) return reject(ParseError::kTrailingGarbage);
    parsed.command = verb == "STATS"     ? Command::kStats
                     : verb == "VERSION" ? Command::kVersion
                                         : Command::kQuit;
    return parsed;
  }
  return reject(ParseError::kUnknownCommand);
}

void append_query_response(std::string& out, const serve::LookupResult& result) {
  out += "OK QUERY timeout_us=";
  append_decimal(out, result.timeout.as_micros());
  out += " scope=";
  out += serve::lookup_scope_name(result.scope);
  out += " samples=";
  append_decimal(out, result.samples);
  out += " confidence=";
  obs::append_json_fixed(out, result.confidence, 6);
  out += " version=";
  append_decimal(out, result.version);
}

std::string format_query_response(const serve::LookupResult& result) {
  std::string out;
  out.reserve(128);  // one allocation: a reply tops out near 130 bytes
  append_query_response(out, result);
  return out;
}

std::string format_error(ParseError error) {
  return format_error(parse_error_code(error), "request rejected");
}

std::string format_error(std::string_view code, std::string_view detail) {
  std::string out = "ERR ";
  out += code;
  if (!detail.empty()) {
    out += ' ';
    out += detail;
  }
  return out;
}

LineSplitter::LineSplitter(std::size_t max_line) : max_line_{max_line} {
  TURTLE_CHECK_GT(max_line_, 0u);
}

void LineSplitter::feed(std::string_view bytes,
                        const std::function<void(std::string_view)>& on_line,
                        const std::function<void()>& on_overflow) {
  while (!bytes.empty()) {
    const std::size_t nl = bytes.find('\n');
    if (discarding_) {
      // Swallowing the tail of an oversized line; resync past the next LF.
      if (nl == std::string_view::npos) return;
      discarding_ = false;
      bytes.remove_prefix(nl + 1);
      continue;
    }
    if (nl == std::string_view::npos) {
      if (buffer_.size() + bytes.size() > max_line_) {
        buffer_.clear();
        discarding_ = true;
        on_overflow();
        return;
      }
      buffer_.append(bytes);
      return;
    }
    std::string_view line = bytes.substr(0, nl);
    if (buffer_.size() + line.size() > max_line_) {
      buffer_.clear();
      on_overflow();
    } else {
      if (!buffer_.empty()) {
        buffer_.append(line);
        line = buffer_;
      }
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      on_line(line);
      buffer_.clear();
    }
    bytes.remove_prefix(nl + 1);
  }
}

}  // namespace turtle::daemon::proto
