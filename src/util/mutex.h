// Annotated synchronization primitives: std::mutex and friends wrapped in
// capability types Clang's Thread Safety Analysis can reason about.
//
// libstdc++'s std::mutex carries no capability attribute, so code locking
// it directly is invisible to -Wthread-safety. These wrappers cost nothing
// at runtime (every method is an inline forward) and make the guard
// relationship checkable: declare members with TURTLE_GUARDED_BY(mu_),
// take a MutexLock in public entry points, mark internal helpers
// TURTLE_REQUIRES(mu_), and a missed lock is a compile error under
// -DTURTLE_THREAD_SAFETY=ON instead of a TSan report three layers later.
//
// Use them only for state a second thread really reaches: the thread
// pool's queue, the shard and snapshot-build joins (BlockingCounter), the
// daemon's EventLoop::inject. An object used on one thread only, such as
// OracleServer or PolicyEngine, takes no lock and records its owner
// thread for a TURTLE_DCHECK instead. None of these primitives introduce
// randomness or wall time.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>

#include "util/thread_annotations.h"

namespace turtle::util {

class CondVar;

/// Annotated exclusive mutex. Prefer MutexLock over manual lock()/unlock().
class TURTLE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() TURTLE_ACQUIRE() { m_.lock(); }
  void unlock() TURTLE_RELEASE() { m_.unlock(); }
  [[nodiscard]] bool try_lock() TURTLE_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex m_;
};

/// RAII scoped acquisition of a Mutex (the annotated lock_guard).
class TURTLE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) TURTLE_ACQUIRE(mu) : mu_{mu} { mu_.lock(); }
  ~MutexLock() TURTLE_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  Mutex& mu_;
};

/// Condition variable bound to util::Mutex. wait() atomically releases the
/// mutex held through `lock` and re-acquires it before returning, so
/// guarded state is consistently protected on both sides of the wait —
/// write wait loops as `while (!pred) cv.wait(lock);` with the predicate
/// reading guarded fields directly (the analysis then sees the reads under
/// the lock, which a predicate lambda would hide).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Caller holds `lock`; holds it again when wait returns.
  void wait(MutexLock& lock) {
    std::unique_lock<std::mutex> native{lock.mu_.m_, std::adopt_lock};
    cv_.wait(native);
    native.release();  // ownership stays with the MutexLock
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// Blocks one thread until N workers have each called count_down() — the
/// fork/join rendezvous the ShardRunner uses to wait for its shard tasks.
class BlockingCounter {
 public:
  explicit BlockingCounter(std::size_t initial) : count_{initial} {}

  /// Signals one completion. Threads may call this exactly once each;
  /// calling it more times than `initial` is undefined.
  void count_down() TURTLE_EXCLUDES(mu_) {
    MutexLock lock{mu_};
    // Notify while holding the lock. The waiter usually owns this counter
    // on its stack: once it sees zero under mu_ it returns and destroys
    // done_, so a notify after the unlock could touch a dead CondVar.
    if (--count_ == 0) done_.notify_all();
  }

  /// Returns once the count reaches zero. Single waiter by convention.
  void wait() TURTLE_EXCLUDES(mu_) {
    MutexLock lock{mu_};
    while (count_ > 0) done_.wait(lock);
  }

 private:
  Mutex mu_;
  CondVar done_;
  std::size_t count_ TURTLE_GUARDED_BY(mu_);
};

}  // namespace turtle::util
