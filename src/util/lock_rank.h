// Lock ranks and the debug deadlock detector.
//
// The thread-safety annotations (thread_annotations.h) prove *protection* —
// every guarded member is touched under its mutex — but say nothing about
// *ordering*: two correctly-annotated locks acquired in opposite orders on
// two threads deadlock, and TSan does not catch it. This header makes lock
// order a checked invariant, the latch-ordering discipline production
// column stores (HyPer/Hyrise-style engines) use to keep merge and scan
// paths deadlock-free.
//
// Every Mutex is constructed with a (rank, name) from the LockRank enum
// below. Ranks are grouped into strata by subsystem, ascending:
//
//   util [0,100) < store [100,200) < core [200,300) < obs [300,400)
//                                                   < server [400,500)
//
// The discipline: a thread may acquire a lock only if its rank is strictly
// below every rank it already holds. Outermost locks therefore have the
// highest ranks (the serving layer), leaves the lowest (the thread pool's
// morsel latches). Subsystem calls that go "up" the strata — e.g. emitting
// an obs metric — must happen after releasing any lower-stratum lock; see
// docs/lock_hierarchy.md for the canonical rank table and the rules.
//
// Enforcement:
//   - Debug builds (ADICT_DEADLOCK_CHECK, default-on when NDEBUG is unset)
//     keep a per-thread held-lock stack, abort on any non-decreasing
//     acquisition, and feed a global lock-order graph whose cycle detector
//     reports *both* offending acquisition stacks — the one that
//     established A -> B and the one now attempting B -> A.
//   - Release builds compile the hooks out entirely: Mutex::Lock is a bare
//     std::mutex::lock with zero added loads (stronger than the "at most
//     one relaxed load" budget the tests assert).
//   - tools/adict_lint.py's `locks` check keeps the enum, the constructed
//     ranks, and the docs/lock_hierarchy.md table in lockstep.
#ifndef ADICT_UTIL_LOCK_RANK_H_
#define ADICT_UTIL_LOCK_RANK_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

// Default: detector on exactly when asserts are on. CMake's
// ADICT_DEADLOCK_CHECK option forces it on for any build type (the
// deadlock-check CI job builds Debug with the option set explicitly).
#ifndef ADICT_DEADLOCK_CHECK
#ifdef NDEBUG
#define ADICT_DEADLOCK_CHECK 0
#else
#define ADICT_DEADLOCK_CHECK 1
#endif
#endif

namespace adict {

/// Subsystem stratum of a rank: its rank-value band divided by
/// kLockStratumWidth. The lint's `locks` check enforces that a mutex
/// declared in src/<dir>/ carries a rank from <dir>'s band.
enum class LockStratum : int {
  kUtil = 0,
  kStore = 1,
  kCore = 2,
  kObs = 3,
  kServer = 4,
};

inline constexpr int kLockStratumWidth = 100;

/// One value per mutex member in the tree (docs/lock_hierarchy.md is the
/// canonical table; adict_lint keeps code and table in sync). Within a
/// stratum, values are spaced by 10 so a new lock can slot between two
/// existing ones without renumbering.
enum class LockRank : int {
  // ---- util [0, 100): leaves — the execution substrate. ----
  kPoolForState = 10,       // one ParallelFor call's completion latch
  kPoolWorker = 20,         // a worker's own task deque
  kPoolWake = 30,           // idle-worker parking lot
  kSamplerWake = 40,        // memory sampler's poll-period parking lot
  kFailpointRegistry = 50,  // named failpoint table
  kPoolRegistry = 60,       // process-wide pool pointer (swap deletes the
                            // old pool, whose teardown takes kPoolWake)
  kListenerDrain = 70,      // network listener's connection threads
  // ---- store [100, 200): column versions. ----
  kColumnVersion = 110,     // snapshot/epoch publish state of one column
  // ---- core [200, 300): control loops. ----
  kController = 210,        // trade-off parameter c feedback state
  kSchedulerDrain = 220,    // in-flight rebuild drain latch
  kSchedulerState = 230,    // scheduler tick/EMA/cooldown bookkeeping
  // ---- obs [300, 400): observability plane. ----
  kMetricsRegistry = 310,   // name -> instrument map (instruments are
                            // lock-free atomics once registered)
  kTraceBuffers = 320,      // tracer's thread-local buffer registry
  kDecisionLog = 330,       // decision ring buffer + accuracy accounting
  kColumnHeatDecay = 340,   // one column's decayed-heat fold state
  kProfilerState = 350,     // workload profiler's column map + rankings
  // ---- server [400, 500): the serving front end — outermost. ----
  kResultCache = 410,       // epoch-invalidated result cache
};

std::string_view LockRankName(LockRank rank);
std::string_view LockStratumName(LockStratum stratum);

constexpr LockStratum LockRankStratum(LockRank rank) {
  return static_cast<LockStratum>(static_cast<int>(rank) /
                                  kLockStratumWidth);
}

// The detector. The algorithm is always compiled (tests drive it directly
// in any build type); only the *wiring* into Mutex::Lock/Unlock is gated
// on ADICT_DEADLOCK_CHECK, so Release fast paths stay untouched.
namespace lockdebug {

struct HeldLock {
  LockRank rank;
  const char* name;
};

/// True when Mutex::Lock/Unlock feed the detector in this build.
constexpr bool Enabled() { return ADICT_DEADLOCK_CHECK != 0; }

/// Records an acquisition attempt by this thread. If `rank` is not
/// strictly below every held rank, reports a violation — including, when
/// the global lock-order graph already has a path rank ->* held (the
/// reverse order seen on some earlier acquisition), the full cycle with
/// both acquisition stacks — then aborts, or calls the test handler if one
/// is installed. On success (or after a handled violation) the lock is
/// pushed onto the per-thread held stack so OnRelease stays balanced.
void OnAcquire(LockRank rank, const char* name);

/// Pops the (most recent) matching entry from this thread's held stack.
void OnRelease(LockRank rank, const char* name);

/// This thread's held locks, outermost first.
std::vector<HeldLock> HeldByThisThread();

/// Routes violations to `handler` instead of aborting; pass nullptr to
/// restore the abort. Tests use this to assert on the report text.
void SetViolationHandlerForTest(std::function<void(const std::string&)> handler);

/// Clears the global lock-order graph and this thread's held stack.
void ResetForTest();

}  // namespace lockdebug
}  // namespace adict

#endif  // ADICT_UTIL_LOCK_RANK_H_
