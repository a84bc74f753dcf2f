// The QUERY reply bytes, pinned against tests/golden/query_replies.txt.
// A fixed corpus of request lines (every scope, coverages written every
// way from_chars accepts or refuses, absent /24s, malformed lines) is
// answered over the synthetic snapshot (synthetic_snapshot.h) the way
// turtled answers it: parse_request, then OracleSnapshot::lookup and the
// appending reply formatter into a reused buffer (which must also match
// the string-returning format_query_response), or the ERR line of the
// parse error. Each golden line is
// the request with its control bytes escaped, " => ", and the reply. On a
// mismatch the fresh output is written to query_replies.txt in the test's
// working directory for diffing; copy it over the golden only for an
// intended change of the wire bytes.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "daemon/proto.h"
#include "serve/oracle_snapshot.h"
#include "synthetic_snapshot.h"

namespace turtle::daemon::proto {
namespace {

std::vector<std::string> corpus() {
  std::vector<std::string> lines;
  const char* const kAddrs[] = {
      "10.0.3.1",     // 4 hosts: block scope
      "10.0.5.6",     // 6 hosts: block scope
      "10.0.0.1",     // 1 host: under the block minimum, AS scope
      "10.0.1.2",     // 2 hosts: under the block minimum, AS scope
      "10.0.7.1",     // under the block minimum, no ASN: global
      "10.0.18.1",    // under the block minimum, its AS under its own: global
      "10.0.15.200",  // block scope, for a host the survey never saw
      "10.0.200.1",   // absent /24
      "203.0.113.9",  // absent /24
  };
  for (const char* addr : kAddrs) {
    for (const char* scope : {"", " scope=block", " scope=as", " scope=global"}) {
      lines.push_back(std::string{"QUERY "} + addr + scope);
    }
  }

  const char* const kCoverages[] = {"50",  "95",     "99",     "97.5",  "0",   "100",   ".5",
                                    "95.", "5e1",    "-0",     "1",     "80",  "90",    "98",
                                    "0.0001", "99.999", "100.0", "1e2", "0e0", "00095"};
  for (const std::string coverage : kCoverages) {
    lines.push_back("QUERY 10.0.3.1 ping-coverage=" + coverage);
    lines.push_back("QUERY 10.0.0.1 ping-coverage=" + coverage);
    lines.push_back("QUERY 10.0.7.1 addr-coverage=" + coverage);
    lines.push_back("QUERY 10.0.3.1 scope=global addr-coverage=" + coverage +
                    " ping-coverage=" + coverage);
  }
  const char* const kOutOfRange[] = {"101",  "-1",  "100.0001", "1e3", "-0.5", "nan",
                                     "inf",  "-inf", "",        "9x",  "+5",   "0x10"};
  for (const std::string coverage : kOutOfRange) {
    lines.push_back("QUERY 10.0.3.1 ping-coverage=" + coverage);
    lines.push_back("QUERY 10.0.7.1 addr-coverage=" + coverage);
  }

  const char* const kOptions[] = {
      "policy=0",          "policy=4294967295",   "policy=7 scope=as",
      "scope=as scope=block", "ping-coverage=50 ping-coverage=99",
      "scope=global addr-coverage=50 ping-coverage=50 policy=3",
      "policy=",           "policy=-1",           "policy=4294967296",
      "policy=1.5",        "scope",               "scope=",
      "scope=Block",       "scope=blocks",        "ping-coverage",
      "=5",                "bogus",               "scope=\xff",
  };
  for (const char* option : kOptions) lines.push_back(std::string{"QUERY 10.0.3.1 "} + option);

  const char* const kMalformed[] = {
      "",
      "   ",
      "\r",
      " \r",
      "QUERY",
      "QUERY ",
      "QUERY\r",
      "  QUERY  ",
      "query 10.0.3.1",
      "Query 10.0.3.1",
      "QUERYX 10.0.3.1",
      "PING 10.0.3.1",
      "QUERY 10.0.3",
      "QUERY 10.0.3.1.",
      "QUERY 10.0.3.1.5",
      "QUERY 10.0.3.256",
      "QUERY 1000.0.3.1",
      "QUERY 10..3.1",
      "QUERY .10.0.3.1",
      "QUERY 10.0.3.-1",
      "QUERY 010.000.003.001",
      "QUERY 0010.0.3.1",
      "QUERY\t10.0.3.1",
      "QUERY 10.0.3.1\tscope=as",
      "  QUERY   10.0.3.1  scope=as  ",
      "QUERY 10.0.3.1 scope=as\r",
      "QUERY 10.0.3.1\r\r",
      " QUERY 10.0.0.1 ping-coverage=99 \r",
      "STATS now",
      "VERSION x",
      "QUIT now",
      "SWAP",
      "SWAP a b",
      "SWAP\r",
  };
  for (const char* line : kMalformed) lines.emplace_back(line);

  // Lines at the 512-byte bound: padded with spaces, filled with options
  // (55 of them), one byte over, and 100 options.
  std::string padded = "QUERY 10.0.5.6 scope=as";
  padded.resize(kMaxLineBytes, ' ');
  lines.push_back(padded);
  std::string options = "QUERY 10.0.5.6";
  while (options.size() + 9 <= kMaxLineBytes) options += " policy=0";
  options.resize(kMaxLineBytes, ' ');
  lines.push_back(options);
  lines.push_back(padded + "x");
  std::string hundred = "QUERY 10.0.5.6";
  for (int i = 0; i < 100; ++i) hundred += " policy=0";
  lines.push_back(hundred);
  return lines;
}

std::string escape(std::string_view line) {
  std::string out;
  for (const char c : line) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\t') {
      out += "\\t";
    } else if (byte < 0x20 || byte >= 0x7f) {
      char hex[5];
      std::snprintf(hex, sizeof hex, "\\x%02x", byte);
      out += hex;
    } else {
      out += c;
    }
  }
  return out;
}

/// turtled's reply to `line`, appended to `reply` (cleared first) the way
/// the daemon appends to the buffer it reuses. The corpus holds only QUERY
/// lines and rejections.
void reply_to(const serve::OracleSnapshot& snapshot, std::string_view line, std::string& reply) {
  reply.clear();
  ParseError error{};
  const auto parsed = parse_request(line, error);
  if (!parsed.has_value()) {
    reply += format_error(error);
    return;
  }
  EXPECT_EQ(parsed->command, Command::kQuery) << line;
  const serve::Request& q = parsed->query;
  const serve::LookupResult result =
      snapshot.lookup(q.addr, q.addr_coverage, q.ping_coverage, q.min_scope);
  append_query_response(reply, result);
  EXPECT_EQ(format_query_response(result), reply) << line;
}

std::string read_file(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  EXPECT_TRUE(is.is_open()) << path;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

TEST(QueryGolden, RepliesMatchTheCommittedBytes) {
  const serve::OracleSnapshot snapshot = test::synthetic_snapshot();
  std::string fresh;
  std::string reply;
  for (const std::string& line : corpus()) {
    reply_to(snapshot, line, reply);
    fresh += escape(line);
    fresh += " => ";
    fresh += reply;
    fresh += '\n';
  }
  const std::string golden = read_file(TURTLE_GOLDEN_DIR "/query_replies.txt");
  if (fresh != golden) {
    std::ofstream{"query_replies.txt", std::ios::binary | std::ios::trunc} << fresh;
  }
  EXPECT_EQ(fresh, golden) << "fresh output in query_replies.txt";
}

}  // namespace
}  // namespace turtle::daemon::proto
