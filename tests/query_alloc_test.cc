// turtled's per-QUERY work allocates nothing once warm: parse_request
// walks the line's tokens in place, OracleSnapshot::lookup reads the
// frozen aggregates in the image, and the reply is appended to a buffer
// that is reused. This binary replaces the global operator new with one
// that counts, so the test sees every heap allocation made inside the
// measured window (gtest allocates only outside it).
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "daemon/proto.h"
#include "serve/oracle_snapshot.h"
#include "synthetic_snapshot.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc{};
}

}  // namespace

// Every unaligned allocation and deallocation function is replaced, so
// that each pair meets in malloc and free (a sanitizer runtime checks
// that they match).
void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void* operator new(std::size_t size, const std::nothrow_t& /*tag*/) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& /*tag*/) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t /*size*/) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t& /*tag*/) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t& /*tag*/) noexcept { std::free(p); }

namespace turtle::daemon::proto {
namespace {

TEST(QueryPath, AllocatesNothing) {
  const serve::OracleSnapshot snapshot = test::synthetic_snapshot();
  // Every tier, every forced scope, coverage options and absent /24s
  // (synthetic_snapshot.h).
  const std::vector<std::string> lines = {
      "QUERY 10.0.3.1",
      "QUERY 10.0.5.6 scope=block ping-coverage=99",
      "QUERY 10.0.0.1",
      "QUERY 10.0.1.2 scope=as addr-coverage=50",
      "QUERY 10.0.7.1 ping-coverage=97.5",
      "QUERY 10.0.18.1 scope=as",
      "QUERY 10.0.15.200 scope=global addr-coverage=99 ping-coverage=50",
      "QUERY 10.0.200.1 policy=3",
      "  QUERY  203.0.113.9  ping-coverage=5e1 \r",
  };
  std::string reply;
  std::size_t answered = 0;
  const auto answer = [&](std::string_view line) {
    ParseError error{};
    const auto parsed = parse_request(line, error);
    if (!parsed.has_value()) return;
    const serve::Request& q = parsed->query;
    const serve::LookupResult result =
        snapshot.lookup(q.addr, q.addr_coverage, q.ping_coverage, q.min_scope);
    reply.clear();
    append_query_response(reply, result);
    ++answered;
  };
  for (const std::string& line : lines) answer(line);  // the reply buffer grows here

  constexpr int kQueries = 10'000;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kQueries; ++i) answer(lines[static_cast<std::size_t>(i) % lines.size()]);
  const std::uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;

  EXPECT_EQ(answered, lines.size() + kQueries);
  EXPECT_EQ(reply.rfind("OK QUERY timeout_us=", 0), 0u) << reply;
  EXPECT_EQ(allocations, 0u) << allocations << " allocations over " << kQueries << " queries";
}

}  // namespace
}  // namespace turtle::daemon::proto
