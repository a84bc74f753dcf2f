// turtle::daemon::proto — wire-codec property and fuzz coverage: malformed
// lines, oversized tokens, truncated datagrams, and pipelined TCP streams
// must never crash the codec, and every rejection maps to a named error
// code (what the daemon counts under daemon.proto.rejected). The QUERY
// reply bytes are pinned exactly.
#include <bit>
#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "daemon/proto.h"
#include "net/ipv4.h"
#include "util/prng.h"

namespace turtle::daemon::proto {
namespace {

ParsedRequest parse_ok(std::string_view line) {
  ParseError error{};
  const auto parsed = parse_request(line, error);
  EXPECT_TRUE(parsed.has_value()) << line << " -> " << parse_error_code(error);
  return parsed.value_or(ParsedRequest{});
}

ParseError parse_err(std::string_view line) {
  ParseError error{};
  const auto parsed = parse_request(line, error);
  EXPECT_FALSE(parsed.has_value()) << line;
  return error;
}

TEST(Proto, ParsesQueryWithOptions) {
  const ParsedRequest plain = parse_ok("QUERY 10.1.2.3");
  EXPECT_EQ(plain.command, Command::kQuery);
  EXPECT_EQ(plain.query.addr.value(), net::Ipv4Address::from_octets(10, 1, 2, 3).value());
  EXPECT_EQ(plain.query.min_scope, serve::LookupScope::kBlock);
  EXPECT_DOUBLE_EQ(plain.query.addr_coverage, 95.0);

  const ParsedRequest full = parse_ok(
      "QUERY 10.1.2.3 scope=as policy=2 addr-coverage=99 ping-coverage=50");
  EXPECT_EQ(full.query.min_scope, serve::LookupScope::kAs);
  EXPECT_DOUBLE_EQ(full.query.addr_coverage, 99.0);
  EXPECT_DOUBLE_EQ(full.query.ping_coverage, 50.0);

  // Formatting slack: extra spaces and a trailing CR are tolerated.
  EXPECT_EQ(parse_ok("  QUERY   10.1.2.3  scope=global \r").query.min_scope,
            serve::LookupScope::kGlobal);
}

TEST(Proto, ParsesAdminVerbs) {
  EXPECT_EQ(parse_ok("STATS").command, Command::kStats);
  EXPECT_EQ(parse_ok("VERSION").command, Command::kVersion);
  EXPECT_EQ(parse_ok("QUIT").command, Command::kQuit);
  const ParsedRequest swap = parse_ok("SWAP /tmp/oracle.snap");
  EXPECT_EQ(swap.command, Command::kSwap);
  EXPECT_EQ(swap.swap_path, "/tmp/oracle.snap");
}

TEST(Proto, RejectionsCarryNamedCodes) {
  EXPECT_EQ(parse_err(""), ParseError::kEmptyLine);
  EXPECT_EQ(parse_err("   "), ParseError::kEmptyLine);
  EXPECT_EQ(parse_err("PING 10.0.0.1"), ParseError::kUnknownCommand);
  EXPECT_EQ(parse_err("query 10.0.0.1"), ParseError::kUnknownCommand);  // verbs are upper-case
  EXPECT_EQ(parse_err("QUERY"), ParseError::kMissingArgument);
  EXPECT_EQ(parse_err("QUERY not-an-addr"), ParseError::kBadAddress);
  EXPECT_EQ(parse_err("QUERY 10.0.0.256"), ParseError::kBadAddress);
  EXPECT_EQ(parse_err("QUERY 10.0.0.1 scope=galaxy"), ParseError::kBadOption);
  EXPECT_EQ(parse_err("QUERY 10.0.0.1 policy=abc"), ParseError::kBadOption);
  EXPECT_EQ(parse_err("QUERY 10.0.0.1 addr-coverage=101"), ParseError::kBadOption);
  EXPECT_EQ(parse_err("QUERY 10.0.0.1 bogus"), ParseError::kBadOption);
  EXPECT_EQ(parse_err("SWAP"), ParseError::kMissingArgument);
  EXPECT_EQ(parse_err("SWAP a b"), ParseError::kTrailingGarbage);
  EXPECT_EQ(parse_err("STATS now"), ParseError::kTrailingGarbage);
  EXPECT_EQ(parse_err(std::string(kMaxLineBytes + 1, 'Q')), ParseError::kLineTooLong);

  // Every code serializes to a stable non-empty token.
  for (const auto error :
       {ParseError::kEmptyLine, ParseError::kLineTooLong, ParseError::kUnknownCommand,
        ParseError::kBadAddress, ParseError::kBadOption, ParseError::kMissingArgument,
        ParseError::kTrailingGarbage}) {
    EXPECT_STRNE(parse_error_code(error), "");
    EXPECT_EQ(format_error(error).rfind("ERR ", 0), 0u);
  }
}

serve::LookupResult lookup_result(std::int64_t timeout_us, serve::LookupScope scope,
                                  std::uint64_t samples, double confidence,
                                  std::uint64_t version) {
  serve::LookupResult result;
  result.timeout = SimTime::micros(timeout_us);
  result.scope = scope;
  result.samples = samples;
  result.confidence = confidence;
  result.version = version;
  return result;
}

TEST(Proto, QueryResponseBytesArePinned) {
  // The reply bytes clients parse: every scope, the confidence extremes,
  // and exact binary ties at the 7th decimal (0.0078125 = 1/128 rounds
  // half-to-even down, 0.0234375 = 3/128 up).
  using serve::LookupScope;
  EXPECT_EQ(format_query_response(lookup_result(1'234'567, LookupScope::kBlock, 160, 1.0, 7)),
            "OK QUERY timeout_us=1234567 scope=block samples=160 confidence=1.000000 version=7");
  EXPECT_EQ(format_query_response(lookup_result(3'000'000, LookupScope::kAs, 48, 0.5, 2)),
            "OK QUERY timeout_us=3000000 scope=as samples=48 confidence=0.500000 version=2");
  EXPECT_EQ(format_query_response(lookup_result(5'000'000, LookupScope::kGlobal, 0, 0.0, 0)),
            "OK QUERY timeout_us=5000000 scope=global samples=0 confidence=0.000000 version=0");
  EXPECT_EQ(format_query_response(lookup_result(812'000, LookupScope::kBlock, 16, 0.0078125, 1)),
            "OK QUERY timeout_us=812000 scope=block samples=16 confidence=0.007812 version=1");
  EXPECT_EQ(format_query_response(lookup_result(2'250'001, LookupScope::kAs, 1, 0.0234375, 3)),
            "OK QUERY timeout_us=2250001 scope=as samples=1 confidence=0.023438 version=3");
  EXPECT_EQ(format_query_response(lookup_result(60'000'000, LookupScope::kGlobal, 1'000'000,
                                                0.75 * 1e6 / (1e6 + 16), UINT64_MAX)),
            "OK QUERY timeout_us=60000000 scope=global samples=1000000 confidence=0.749988 "
            "version=18446744073709551615");
}

TEST(Proto, TruncatedDatagramsNeverCrash) {
  // Every prefix of a valid request either parses or yields a named error
  // — the UDP path hands arbitrary truncations straight to the parser.
  const std::string full = "QUERY 10.1.2.3 scope=as policy=7 addr-coverage=99";
  for (std::size_t len = 0; len <= full.size(); ++len) {
    ParseError error{};
    (void)parse_request(std::string_view{full.data(), len}, error);
  }
}

TEST(Proto, FuzzedLinesNeverCrash) {
  util::Prng rng{20150828};  // the paper's IMC submission vintage
  const std::string alphabet = "QUERYSTATSVERSIONSWAPquit 0123456789.=-\r\x01\xff";
  for (int iter = 0; iter < 20'000; ++iter) {
    std::string line;
    const std::size_t len = rng.uniform_int(600);
    line.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      line += alphabet[rng.uniform_int(alphabet.size())];
    }
    ParseError error{};
    const auto parsed = parse_request(line, error);
    if (!parsed.has_value()) {
      // Rejections always map to a named wire code.
      EXPECT_STRNE(parse_error_code(error), "internal");
    }
  }
}

// The parser as it was before it walked tokens in place: split the line
// into a vector of tokens, then read them by index. Kept as the reference
// the in-place parser must agree with.
std::vector<std::string_view> reference_tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  while (pos < line.size()) {
    const std::size_t space = line.find(' ', pos);
    const std::string_view token =
        line.substr(pos, space == std::string_view::npos ? space : space - pos);
    if (!token.empty()) tokens.push_back(token);
    if (space == std::string_view::npos) break;
    pos = space + 1;
  }
  return tokens;
}

bool reference_option(std::string_view token, serve::Request& query) {
  const std::size_t eq = token.find('=');
  if (eq == std::string_view::npos || eq == 0 || eq + 1 >= token.size()) return false;
  const std::string_view key = token.substr(0, eq);
  const std::string_view value = token.substr(eq + 1);
  const char* end = value.data() + value.size();
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
    std::uint32_t policy = 0;
    const auto [ptr, ec] = std::from_chars(value.data(), end, policy);
    return ec == std::errc{} && ptr == end;
  }
  double* coverage = key == "addr-coverage"   ? &query.addr_coverage
                     : key == "ping-coverage" ? &query.ping_coverage
                                              : nullptr;
  if (coverage == nullptr) return false;
  const auto [ptr, ec] = std::from_chars(value.data(), end, *coverage);
  return ec == std::errc{} && ptr == end && *coverage >= 0.0 && *coverage <= 100.0;
}

std::optional<ParsedRequest> reference_parse(std::string_view line, ParseError& error) {
  if (line.size() > kMaxLineBytes) {
    error = ParseError::kLineTooLong;
    return std::nullopt;
  }
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  const std::vector<std::string_view> tokens = reference_tokenize(line);
  if (tokens.empty()) {
    error = ParseError::kEmptyLine;
    return std::nullopt;
  }
  ParsedRequest parsed;
  const std::string_view verb = tokens[0];
  if (verb == "QUERY") {
    parsed.command = Command::kQuery;
    if (tokens.size() < 2) {
      error = ParseError::kMissingArgument;
      return std::nullopt;
    }
    const auto addr = net::Ipv4Address::parse(tokens[1]);
    if (!addr.has_value()) {
      error = ParseError::kBadAddress;
      return std::nullopt;
    }
    parsed.query.addr = *addr;
    for (std::size_t i = 2; i < tokens.size(); ++i) {
      if (!reference_option(tokens[i], parsed.query)) {
        error = ParseError::kBadOption;
        return std::nullopt;
      }
    }
    return parsed;
  }
  if (verb == "SWAP") {
    parsed.command = Command::kSwap;
    if (tokens.size() != 2) {
      error = tokens.size() < 2 ? ParseError::kMissingArgument : ParseError::kTrailingGarbage;
      return std::nullopt;
    }
    parsed.swap_path = std::string{tokens[1]};
    return parsed;
  }
  if (verb == "STATS" || verb == "VERSION" || verb == "QUIT") {
    if (tokens.size() > 1) {
      error = ParseError::kTrailingGarbage;
      return std::nullopt;
    }
    parsed.command = verb == "STATS"     ? Command::kStats
                     : verb == "VERSION" ? Command::kVersion
                                         : Command::kQuit;
    return parsed;
  }
  error = ParseError::kUnknownCommand;
  return std::nullopt;
}

/// parse_request and the reference agree on `line`: the same outcome and
/// ParseError, or the same command, address, scope, swap path and
/// bitwise the same coverages.
void expect_parse_matches_reference(std::string_view line) {
  ParseError want_error{};
  ParseError got_error{};
  const auto want = reference_parse(line, want_error);
  const auto got = parse_request(line, got_error);
  ASSERT_EQ(got.has_value(), want.has_value()) << "'" << line << "'";
  if (!want.has_value()) {
    EXPECT_EQ(got_error, want_error) << "'" << line << "'";
    return;
  }
  EXPECT_EQ(got->command, want->command) << "'" << line << "'";
  EXPECT_EQ(got->query.addr, want->query.addr) << "'" << line << "'";
  EXPECT_EQ(got->query.min_scope, want->query.min_scope) << "'" << line << "'";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got->query.addr_coverage),
            std::bit_cast<std::uint64_t>(want->query.addr_coverage))
      << "'" << line << "'";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got->query.ping_coverage),
            std::bit_cast<std::uint64_t>(want->query.ping_coverage))
      << "'" << line << "'";
  EXPECT_EQ(got->swap_path, want->swap_path) << "'" << line << "'";
}

TEST(Proto, ParseMatchesReferenceTokenizer) {
  // FuzzedLinesNeverCrash's generator: bytes drawn from the verbs' letters,
  // digits, separators, CR and two control bytes.
  util::Prng rng{20150828};
  const std::string alphabet = "QUERYSTATSVERSIONSWAPquit 0123456789.=-\r\x01\xff";
  for (int iter = 0; iter < 20'000; ++iter) {
    std::string line;
    const std::size_t len = rng.uniform_int(600);
    for (std::size_t i = 0; i < len; ++i) line += alphabet[rng.uniform_int(alphabet.size())];
    expect_parse_matches_reference(line);
  }

  // Lines assembled from real tokens and runs of spaces, so most of them
  // get past the verb and the address.
  const char* const kTokens[] = {
      "QUERY",           "STATS",           "VERSION",           "SWAP",
      "QUIT",            "10.1.2.3",        "10.1.2.256",        "1.2.3",
      "scope=block",     "scope=as",        "scope=global",      "scope=",
      "policy=7",        "policy=-1",       "addr-coverage=99",  "addr-coverage=.5",
      "ping-coverage=5e1", "ping-coverage=-0", "ping-coverage=101", "ping-coverage=nan",
      "/tmp/x.snap",     "=",               "\r",                "x",
  };
  for (int iter = 0; iter < 20'000; ++iter) {
    std::string line(rng.uniform_int(3), ' ');
    const std::size_t count = rng.uniform_int(7);
    for (std::size_t i = 0; i < count; ++i) {
      // The verb usually leads, and the address usually follows it.
      std::size_t pick = rng.uniform_int(std::size(kTokens));
      if (i == 0 && rng.uniform_int(4) != 0) pick = rng.uniform_int(5);
      if (i == 1 && rng.uniform_int(4) != 0) pick = 5;
      line += kTokens[pick];
      line.append(1 + rng.uniform_int(3) * rng.uniform_int(2), ' ');
    }
    if (rng.uniform_int(2) == 0) line.erase(line.find_last_not_of(' ') + 1);
    if (rng.uniform_int(4) == 0) line += '\r';
    expect_parse_matches_reference(line);
  }

  // Edge cases: formatting slack, the 512-byte bound, SWAP's operand
  // count and a hundred options (too long as real ones; as one-byte
  // tokens they fit and the first is rejected).
  std::string exact = "QUERY 10.1.2.3 scope=as";
  exact.resize(kMaxLineBytes, ' ');
  std::string filled = "QUERY 10.1.2.3";
  while (filled.size() + 17 <= kMaxLineBytes) filled += " ping-coverage=50";
  filled.resize(kMaxLineBytes, ' ');
  std::string hundred = "QUERY 10.1.2.3";
  for (int i = 0; i < 100; ++i) hundred += " policy=1";
  std::string hundred_short = "QUERY 1.2.3.4";
  for (int i = 0; i < 100; ++i) hundred_short += " x";
  for (const std::string& line : std::vector<std::string>{
           "QUERY  10.1.2.3", "QUERY 10.1.2.3  scope=as", "  QUERY 10.1.2.3",
           "QUERY 10.1.2.3  ", "  QUERY  10.1.2.3  scope=global  ", "QUERY 10.1.2.3\r",
           "QUERY 10.1.2.3 \r", "QUERY\r", "\r", " ", "", exact, exact + "\r", exact + "x",
           filled, "SWAP /tmp/a.snap", "SWAP /tmp/a.snap extra", "SWAP  /tmp/a.snap  ",
           "SWAP", "STATS ", " QUIT", "VERSION now", hundred, hundred_short}) {
    expect_parse_matches_reference(line);
  }
}

TEST(LineSplitter, SplitsPipelinedRequestsInOrder) {
  LineSplitter splitter;
  std::vector<std::string> lines;
  int overflows = 0;
  splitter.feed("QUERY 10.0.0.1\nSTATS\r\nVERSION\nQUI",
                [&](std::string_view line) { lines.emplace_back(line); },
                [&] { ++overflows; });
  EXPECT_EQ(lines, (std::vector<std::string>{"QUERY 10.0.0.1", "STATS", "VERSION"}));
  EXPECT_EQ(splitter.buffered(), 3u);  // "QUI" awaits its terminator
  splitter.feed("T\n", [&](std::string_view line) { lines.emplace_back(line); },
                [&] { ++overflows; });
  EXPECT_EQ(lines.back(), "QUIT");
  EXPECT_EQ(overflows, 0);
}

TEST(LineSplitter, OversizedLineCountsOnceAndResyncs) {
  LineSplitter splitter{8};
  std::vector<std::string> lines;
  int overflows = 0;
  const auto on_line = [&](std::string_view line) { lines.emplace_back(line); };
  const auto on_overflow = [&] { ++overflows; };
  // One oversized line delivered a byte at a time: exactly one overflow
  // event, and the splitter resynchronizes at the terminator.
  for (char c : std::string(100, 'x')) splitter.feed({&c, 1}, on_line, on_overflow);
  EXPECT_EQ(overflows, 1);
  EXPECT_TRUE(lines.empty());
  splitter.feed("\nSTATS\n", on_line, on_overflow);
  EXPECT_EQ(lines, (std::vector<std::string>{"STATS"}));
  EXPECT_EQ(overflows, 1);
}

TEST(LineSplitter, FuzzedChunkingPreservesLineStreamAndBoundedMemory) {
  // Property: however the byte stream is chunked, the sequence of
  // delivered lines and overflow events is identical, and the splitter's
  // buffer never exceeds the line bound.
  util::Prng rng{7};
  const std::string stream =
      "QUERY 10.0.0.1\n" + std::string(600, 'A') + "\nSTATS\n\n" +
      "QUERY 10.0.0.2 scope=as\r\n" + std::string(550, 'B') + "\nVERSION\n";

  std::vector<std::string> want_lines;
  int want_overflows = 0;
  {
    LineSplitter whole;
    whole.feed(stream, [&](std::string_view line) { want_lines.emplace_back(line); },
               [&] { ++want_overflows; });
  }
  EXPECT_EQ(want_lines.size(), 5u);
  EXPECT_EQ(want_overflows, 2);

  for (int trial = 0; trial < 200; ++trial) {
    LineSplitter splitter;
    std::vector<std::string> lines;
    int overflows = 0;
    std::size_t pos = 0;
    while (pos < stream.size()) {
      const std::size_t chunk = 1 + rng.uniform_int(40);
      const std::string_view piece{stream.data() + pos,
                                   std::min(chunk, stream.size() - pos)};
      splitter.feed(piece, [&](std::string_view line) { lines.emplace_back(line); },
                    [&] { ++overflows; });
      EXPECT_LE(splitter.buffered(), kMaxLineBytes);
      pos += piece.size();
    }
    ASSERT_EQ(lines, want_lines) << "trial " << trial;
    ASSERT_EQ(overflows, want_overflows) << "trial " << trial;
  }
}

}  // namespace
}  // namespace turtle::daemon::proto
