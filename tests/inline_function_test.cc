// Tests for util::InlineFunction: the inline/heap storage threshold,
// move semantics on both paths, move-only captures, and the empty-invoke
// DCHECK. The event queue's callback type is InlineFunction<void(), 48>,
// so the threshold cases here pin the exact capture sizes that stay
// allocation-free on the simulator hot path.
#include "util/inline_function.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

namespace turtle::util {
namespace {

using Fn48 = InlineFunction<void(), 48>;

// A callable of exactly `Size` bytes that counts payload moves, destroys,
// and calls through an external Counters block. Whether the payload moves
// when the wrapper moves is the observable difference between the inline
// path (payload move-constructed into the new buffer) and the heap path
// (the cell pointer is stolen; the payload never moves).
struct Counters {
  int moves = 0;
  int destroys = 0;
  int calls = 0;
};

template <std::size_t Size>
struct Probe {
  static_assert(Size >= sizeof(Counters*));
  Counters* counters;
  unsigned char pad[Size - sizeof(Counters*)]{};

  explicit Probe(Counters* c) : counters{c} {}
  Probe(Probe&& other) noexcept : counters{other.counters} { ++counters->moves; }
  Probe(const Probe&) = delete;
  ~Probe() { ++counters->destroys; }
  void operator()() const { ++counters->calls; }
};

static_assert(sizeof(Probe<48>) == 48);
static_assert(Fn48::stores_inline<Probe<48>>(), "48-byte capture must stay inline");
static_assert(!Fn48::stores_inline<Probe<49>>(), "49-byte capture must spill to the heap");

// Over-aligned callables take the heap path regardless of size: the inline
// buffer only guarantees max_align_t alignment.
struct alignas(2 * alignof(std::max_align_t)) OverAligned {
  void operator()() const {}
};
static_assert(!Fn48::stores_inline<OverAligned>());

// A throwing move constructor also forces the heap path (wrapper moves
// must stay noexcept).
struct ThrowingMove {
  ThrowingMove() = default;
  ThrowingMove(ThrowingMove&&) noexcept(false) {}
  void operator()() const {}
};
static_assert(!Fn48::stores_inline<ThrowingMove>());

TEST(InlineFunction, InvokesWithArgumentsAndReturn) {
  InlineFunction<int(int, int), 48> add{[](int a, int b) { return a + b; }};
  EXPECT_TRUE(static_cast<bool>(add));
  EXPECT_EQ(add(2, 3), 5);
}

TEST(InlineFunction, MutatesCapturedState) {
  int hits = 0;
  Fn48 fn{[&hits] { ++hits; }};
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunction, DefaultAndNullptrAreEmpty) {
  Fn48 a;
  Fn48 b{nullptr};
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_FALSE(static_cast<bool>(b));
}

TEST(InlineFunction, InlinePathMovesPayloadWithWrapper) {
  Counters c;
  {
    Fn48 fn{Probe<48>{&c}};
    EXPECT_EQ(c.moves, 1);  // temp -> inline buffer
    Fn48 moved{std::move(fn)};
    EXPECT_EQ(c.moves, 2);  // inline buffer -> inline buffer
    EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(static_cast<bool>(moved));
    moved();
    EXPECT_EQ(c.calls, 1);
  }
  // Every constructed Probe (temp + 2 buffer residents) was destroyed.
  EXPECT_EQ(c.destroys, 3);
}

TEST(InlineFunction, HeapPathStealsCellWithoutMovingPayload) {
  Counters c;
  {
    Fn48 fn{Probe<49>{&c}};
    EXPECT_EQ(c.moves, 1);  // temp -> heap cell
    Fn48 moved{std::move(fn)};
    EXPECT_EQ(c.moves, 1);  // cell pointer stolen; payload untouched
    EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
    moved();
    EXPECT_EQ(c.calls, 1);
  }
  EXPECT_EQ(c.destroys, 2);  // temp + the single heap resident
}

TEST(InlineFunction, MoveAssignmentDestroysPreviousTarget) {
  Counters old_target;
  Counters new_target;
  Fn48 fn{Probe<48>{&old_target}};
  Fn48 replacement{Probe<48>{&new_target}};
  fn = std::move(replacement);
  EXPECT_EQ(old_target.destroys, 2);  // temp + displaced buffer resident
  fn();
  EXPECT_EQ(new_target.calls, 1);
  EXPECT_EQ(old_target.calls, 0);
}

TEST(InlineFunction, SelfMoveAssignmentIsANoOp) {
  int hits = 0;
  Fn48 fn{[&hits] { ++hits; }};
  Fn48& alias = fn;
  fn = std::move(alias);
  fn();
  EXPECT_EQ(hits, 1);
}

// A trivially copyable capture (the simulator's common case) is relocated
// by copying bytes: every captured word survives moves and move-assignment
// over another trivial target, and a moved-from wrapper is empty.
TEST(InlineFunction, TriviallyCopyableCaptureSurvivesMoves) {
  std::int64_t sum = 0;
  const std::int64_t a = 1, b = 20, c = 300, d = 4000, e = 50000;
  auto add = [&sum, a, b, c, d, e] { sum += a + b + c + d + e; };
  static_assert(std::is_trivially_copyable_v<decltype(add)>);
  static_assert(sizeof(add) == 48);
  Fn48 fn{add};
  Fn48 moved{std::move(fn)};
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
  moved();
  Fn48 other{[&sum] { sum = -1; }};
  other = std::move(moved);
  other();
  EXPECT_EQ(sum, 2 * 54321);
}

TEST(InlineFunction, AdmitsMoveOnlyCaptures) {
  InlineFunction<int(), 48> fn{[p = std::make_unique<int>(7)] { return *p; }};
  EXPECT_EQ(fn(), 7);
  InlineFunction<int(), 48> moved{std::move(fn)};
  EXPECT_EQ(moved(), 7);
}

TEST(InlineFunction, HeapFallbackAcceptsOversizedAndOverAligned) {
  Counters c;
  InlineFunction<void(), 16> tiny{Probe<48>{&c}};  // 48 > 16: heap path
  tiny();
  EXPECT_EQ(c.calls, 1);

  Fn48 aligned{OverAligned{}};
  aligned();  // must not crash on misaligned access
  EXPECT_TRUE(static_cast<bool>(aligned));
}

#if TURTLE_DCHECK_ENABLED
TEST(InlineFunctionDeathTest, InvokingEmptyTripsDcheck) {
  EXPECT_DEATH(
      {
        Fn48 fn;
        fn();
      },
      "invoking an empty InlineFunction");
}
#endif

}  // namespace
}  // namespace turtle::util
