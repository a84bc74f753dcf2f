// Small-buffer-optimized move-only callable, the event queue's callback
// type.
//
// The simulator schedules tens of millions of lambdas per benchmark run.
// Almost all of them capture a handful of words ([this, target, sent_at,
// round] and friends), yet std::function's inline buffer (16 bytes on
// libstdc++) spills them to the heap, so the event hot path used to pay an
// allocation and a pointer chase per event. InlineFunction embeds captures
// up to `InlineBytes` directly in the object; larger or throwing-move
// callables fall back to a single heap cell, so nothing is ever rejected.
//
// Differences from std::function, on purpose:
//   * move-only (the event queue never copies callbacks; this admits
//     move-only captures like std::unique_ptr);
//   * no target()/target_type() RTTI;
//   * invocation is non-const (callables may mutate their captures).
//
// A trivially copyable inline callable (pointers, indices and times by
// value — nearly every event the simulator schedules) has no manager: a
// move copies the buffer's bytes and destruction does nothing, so an
// event's trips into the queue's slab and out again make no indirect call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "util/check.h"

namespace turtle::util {

template <typename Signature, std::size_t InlineBytes>
class InlineFunction;

template <typename R, typename... Args, std::size_t InlineBytes>
class InlineFunction<R(Args...), InlineBytes> {
 public:
  static constexpr std::size_t kInlineBytes = InlineBytes;

  /// True when a callable of type `F` lives in the inline buffer rather
  /// than a heap cell. Exposed so tests can pin the threshold.
  template <typename F>
  static constexpr bool stores_inline() {
    using Fn = std::remove_cvref_t<F>;
    return sizeof(Fn) <= InlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::remove_cvref_t<F>&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (stores_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      invoke_ = &invoke_inline<Fn>;
      // Trivially copyable: relocated by copying bytes, destroyed by
      // forgetting them (see move_from and reset).
      if constexpr (!std::is_trivially_copyable_v<Fn>) manage_ = &manage_inline<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      invoke_ = &invoke_heap<Fn>;
      manage_ = &manage_heap<Fn>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  [[nodiscard]] explicit operator bool() const { return invoke_ != nullptr; }

  R operator()(Args... args) {
    TURTLE_DCHECK(invoke_ != nullptr) << "invoking an empty InlineFunction";
    return invoke_(storage_, std::forward<Args>(args)...);
  }

 private:
  enum class Op : std::uint8_t {
    kMoveTo,    ///< move-construct into dst, then destroy self
    kDestroy,   ///< destroy self
  };

  using InvokeFn = R (*)(void*, Args&&...);
  using ManageFn = void (*)(Op, void* self, void* dst);

  template <typename Fn>
  static R invoke_inline(void* self, Args&&... args) {
    return (*std::launder(reinterpret_cast<Fn*>(self)))(std::forward<Args>(args)...);
  }

  template <typename Fn>
  static void manage_inline(Op op, void* self, void* dst) {
    Fn* fn = std::launder(reinterpret_cast<Fn*>(self));
    if (op == Op::kMoveTo) ::new (dst) Fn(std::move(*fn));
    fn->~Fn();
  }

  template <typename Fn>
  static R invoke_heap(void* self, Args&&... args) {
    return (**std::launder(reinterpret_cast<Fn**>(self)))(std::forward<Args>(args)...);
  }

  template <typename Fn>
  static void manage_heap(Op op, void* self, void* dst) {
    Fn** cell = std::launder(reinterpret_cast<Fn**>(self));
    if (op == Op::kMoveTo) {
      ::new (dst) Fn*(*cell);  // steal the heap cell; no payload move
    } else {
      delete *cell;
    }
  }

  void move_from(InlineFunction& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (manage_ != nullptr) {
      manage_(Op::kMoveTo, other.storage_, storage_);
    } else if (invoke_ != nullptr) {
      std::memcpy(storage_, other.storage_, InlineBytes);
    }
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  void reset() noexcept {
    if (manage_ != nullptr) manage_(Op::kDestroy, storage_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[InlineBytes];
  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
};

}  // namespace turtle::util
