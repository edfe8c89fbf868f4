// Clang Thread Safety Analysis annotations and the annotated, ranked mutex.
//
// The annotations turn lock discipline into a compile-time proof: a member
// declared ADICT_GUARDED_BY(mutex_) can only be touched while `mutex_` is
// held, a function declared ADICT_REQUIRES(mutex_) can only be called with
// the lock held, and a violation is a hard error under
// `clang++ -Wthread-safety -Werror` (the `thread-safety` CI job). Compilers
// without the attributes (GCC) see empty macros, so the annotations cost
// nothing outside the analysis.
//
// Every Mutex is additionally constructed with a (LockRank, name) pair from
// util/lock_rank.h: debug builds enforce strictly-decreasing-rank
// acquisition per thread and abort on lock-order cycles with both offending
// stacks; docs/lock_hierarchy.md is the canonical rank table and the
// adict_lint `locks` check keeps code, ranks, and table in sync.
//
// Use the ADICT_-prefixed macros, the `Mutex`/`MutexCv` wrappers, and
// `MutexLock` instead of raw std::mutex / std::lock_guard /
// std::condition_variable in any class with shared mutable state;
// docs/static_analysis.md walks through adding a new mutex. Reference:
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html (the macro set
// mirrors Abseil's thread_annotations.h).
#ifndef ADICT_UTIL_THREAD_ANNOTATIONS_H_
#define ADICT_UTIL_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "util/lock_rank.h"

#if defined(__clang__) && (!defined(SWIG))
#define ADICT_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define ADICT_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Declares a type to be a capability (lockable). Applied to Mutex below;
/// user code rarely needs it directly.
#define ADICT_CAPABILITY(x) ADICT_THREAD_ANNOTATION(capability(x))

/// A RAII type that acquires a capability in its constructor and releases it
/// in its destructor (MutexLock below).
#define ADICT_SCOPED_CAPABILITY ADICT_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while the given mutex is held.
#define ADICT_GUARDED_BY(x) ADICT_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is protected by the given mutex (the
/// pointer itself may be read freely).
#define ADICT_PT_GUARDED_BY(x) ADICT_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function callable only while holding the given mutex(es); the caller
/// still holds them on return.
#define ADICT_REQUIRES(...) \
  ADICT_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function callable only while NOT holding the given mutex(es) — the
/// annotation that proves freedom from self-deadlock on a non-reentrant
/// mutex.
#define ADICT_EXCLUDES(...) \
  ADICT_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function that acquires the given mutex(es) and does not release them.
#define ADICT_ACQUIRE(...) \
  ADICT_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function that releases the given mutex(es), which must be held on entry.
#define ADICT_RELEASE(...) \
  ADICT_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function that returns a reference to the given mutex (lets the analysis
/// see through accessors).
#define ADICT_RETURN_CAPABILITY(x) ADICT_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use needs a
/// comment explaining why the discipline holds anyway.
#define ADICT_NO_THREAD_SAFETY_ANALYSIS \
  ADICT_THREAD_ANNOTATION(no_thread_safety_analysis)

/// For predicate lambdas passed to MutexCv::Await/AwaitFor. Await's
/// contract is that the predicate runs with the MutexCv held, but the
/// analysis evaluates a lambda body against an empty lock set (it cannot
/// see the caller's), so guarded-member reads inside the predicate would be
/// false positives. Spell the exemption with this macro so the intent —
/// "held via Await" — is greppable.
#define ADICT_CV_PREDICATE ADICT_NO_THREAD_SAFETY_ANALYSIS

namespace adict {

/// std::mutex with capability annotations and a lock rank, so members can
/// be declared ADICT_GUARDED_BY(mutex_), functions ADICT_REQUIRES(mutex_),
/// and debug builds can enforce the acquisition order of
/// docs/lock_hierarchy.md. Same cost and semantics as std::mutex in
/// release builds; Lock/Unlock exist for the rare manual path, MutexLock
/// is the normal way to hold it.
class ADICT_CAPABILITY("mutex") Mutex {
 public:
  Mutex(LockRank rank, const char* name) : rank_(rank), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ADICT_ACQUIRE() {
#if ADICT_DEADLOCK_CHECK
    // Before blocking, so a would-deadlock acquisition is reported instead
    // of hanging.
    lockdebug::OnAcquire(rank_, name_);
#endif
    mutex_.lock();
  }

  void Unlock() ADICT_RELEASE() {
#if ADICT_DEADLOCK_CHECK
    // Before unlocking: once the mutex is free, a drainer that was waiting
    // on it may destroy it, and rank_ with it.
    lockdebug::OnRelease(rank_, name_);
#endif
    mutex_.unlock();
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 protected:
  std::mutex mutex_;  // MutexCv's condition variable waits on it

 private:
  const LockRank rank_;
  const char* const name_;
};

/// RAII lock over Mutex (the annotated std::lock_guard).
class ADICT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mutex) ADICT_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_->Lock();
  }
  ~MutexLock() ADICT_RELEASE() { mutex_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mutex_;
};

/// Mutex with an attached condition variable — the annotated, ranked
/// replacement for the bare std::mutex + std::condition_variable pairs the
/// wake/drain plumbing used to need. The API is predicate-only: there is
/// no bare Wait(), so a spurious wakeup can never leak past a caller
/// (every wait re-checks its condition by construction).
///
/// Usage:
///   MutexLock lock(&drain_mutex_);
///   drain_mutex_.Await([this]() ADICT_CV_PREDICATE {
///     return active == 0;  // guarded by drain_mutex_; held via Await
///   });
class ADICT_CAPABILITY("mutex") MutexCv : public Mutex {
 public:
  MutexCv(LockRank rank, const char* name) : Mutex(rank, name) {}

  /// Blocks until `pred()` is true. Must be called with this MutexCv held
  /// (MutexLock or Lock()); the lock is released while parked and held
  /// again both when `pred` runs and on return.
  template <typename Predicate>
  void Await(Predicate pred) ADICT_REQUIRES(this) {
    std::unique_lock<std::mutex> lock(mutex_, std::adopt_lock);
    cv_.wait(lock, std::move(pred));
    lock.release();  // the caller still owns the mutex
  }

  /// Await with a timeout. Returns pred()'s value at wakeup: true means
  /// the condition held, false means the wait timed out.
  template <typename Predicate>
  bool AwaitFor(std::chrono::milliseconds timeout, Predicate pred)
      ADICT_REQUIRES(this) {
    std::unique_lock<std::mutex> lock(mutex_, std::adopt_lock);
    const bool satisfied = cv_.wait_for(lock, timeout, std::move(pred));
    lock.release();  // the caller still owns the mutex
    return satisfied;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace adict

#endif  // ADICT_UTIL_THREAD_ANNOTATIONS_H_
