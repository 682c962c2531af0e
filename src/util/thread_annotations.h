// Clang thread-safety annotations and the annotated lock vocabulary used by
// every concurrent type in the repo.
//
// Under clang, `-Wthread-safety` turns the lock protocol each class documents
// (which mutex guards which field, which *Locked() helper requires which
// capability, which mutex orders before which) into compile errors.  Under
// GCC the macros expand to nothing and the wrappers are zero-cost veneers
// over the std primitives, so the TSan/ASan matrix still exercises the exact
// same code.
//
// Vocabulary (mirrors the capability names in the clang docs):
//   Mutex            exclusive capability over std::mutex
//   SharedMutex      shared/exclusive capability over std::shared_mutex
//   MutexLock        scoped exclusive lock, relockable (Unlock()/Lock())
//   ReaderMutexLock  scoped shared lock on a SharedMutex
//   WriterMutexLock  scoped exclusive lock on a SharedMutex
//   CondVar          condition variable that waits on a held Mutex
//
// Conventions (enforced by scripts/lint.py; see docs/static-analysis.md):
//   - no raw std::mutex / std::shared_mutex / std::condition_variable outside
//     this header — every lock is an annotated Mutex or SharedMutex;
//   - every guarded field carries GUARDED_BY(mu_);
//   - every *Locked() helper carries REQUIRES(mu_);
//   - condition waits are explicit `while (!pred) cv.Wait(mu_);` loops in the
//     function that holds the capability — never lambda predicates, which the
//     analysis would treat as unlocked contexts.
#ifndef PROCHLO_SRC_UTIL_THREAD_ANNOTATIONS_H_
#define PROCHLO_SRC_UTIL_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#if defined(__clang__) && defined(__has_attribute)
#define PROCHLO_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PROCHLO_THREAD_ANNOTATION(x)  // no-op under GCC/MSVC
#endif

#define CAPABILITY(x) PROCHLO_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY PROCHLO_THREAD_ANNOTATION(scoped_lockable)
#define GUARDED_BY(x) PROCHLO_THREAD_ANNOTATION(guarded_by(x))
#define PT_GUARDED_BY(x) PROCHLO_THREAD_ANNOTATION(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) PROCHLO_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) PROCHLO_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define REQUIRES(...) PROCHLO_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  PROCHLO_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) PROCHLO_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  PROCHLO_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) PROCHLO_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  PROCHLO_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) PROCHLO_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) PROCHLO_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) PROCHLO_THREAD_ANNOTATION(assert_capability(x))
#define RETURN_CAPABILITY(x) PROCHLO_THREAD_ANNOTATION(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS PROCHLO_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace prochlo {

// Exclusive capability.  Lowercase lock()/unlock() satisfy BasicLockable so
// std::condition_variable_any (inside CondVar) can wait on the Mutex itself;
// the wait's internal unlock/relock lives in a system header, where clang
// suppresses thread-safety diagnostics, so the capability stays logically
// held across Wait() — exactly the semantics the annotations describe.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // BasicLockable surface for CondVar; prefer Lock()/Unlock() elsewhere.
  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

// Shared/exclusive capability over std::shared_mutex.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  void LockShared() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

// Scoped exclusive lock.  Relockable (Unlock()/Lock()) so flush-outside-the-
// lock patterns (IngestWal::SyncUpTo's group-commit leader) keep their
// scoped shape.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu), owned_(true) { mu_.Lock(); }
  ~MutexLock() RELEASE() {
    if (owned_) {
      mu_.Unlock();
    }
  }

  void Unlock() RELEASE() {
    mu_.Unlock();
    owned_ = false;
  }
  void Lock() ACQUIRE() {
    mu_.Lock();
    owned_ = true;
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
  bool owned_;
};

class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderMutexLock() RELEASE() { mu_.UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~WriterMutexLock() RELEASE() { mu_.Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

// Condition variable bound to an annotated Mutex at each wait site.  Waits
// REQUIRE the mutex: callers hold the capability, spell the predicate as an
// explicit loop, and the analysis sees every predicate read as guarded.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) { cv_.wait(mu); }

  // False on timeout (the deadline passed without a notification).
  template <typename Clock, typename Duration>
  bool WaitUntil(Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      REQUIRES(mu) {
    return cv_.wait_until(mu, deadline) == std::cv_status::no_timeout;
  }

  template <typename Rep, typename Period>
  bool WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& timeout)
      REQUIRES(mu) {
    return cv_.wait_for(mu, timeout) == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace prochlo

#endif  // PROCHLO_SRC_UTIL_THREAD_ANNOTATIONS_H_
