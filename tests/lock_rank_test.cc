// Tests for the lock-rank deadlock detector (util/lock_rank.h).
//
// The detector's *algorithm* is compiled in every build type — these tests
// drive lockdebug::OnAcquire/OnRelease directly, so they run (and the
// seeded-inversion test proves real cycles are reported with both stacks)
// even in RelWithDebInfo. Only the wiring into Mutex::Lock/Unlock is gated
// on ADICT_DEADLOCK_CHECK; the build-type-conditional tests at the bottom
// pin down both sides of that gate: Debug feeds the detector, Release is a
// true no-op.

#include "util/lock_rank.h"

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/thread_annotations.h"

namespace adict {
namespace {

// Captures violation reports instead of aborting; restores the abort on
// teardown so a bug in one test cannot silently swallow violations in the
// binaries run after it.
class LockRankTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lockdebug::ResetForTest();
    lockdebug::SetViolationHandlerForTest(
        [this](const std::string& report) { reports_.push_back(report); });
  }

  void TearDown() override {
    lockdebug::SetViolationHandlerForTest(nullptr);
    lockdebug::ResetForTest();
  }

  std::vector<std::string> reports_;
};

TEST_F(LockRankTest, StrictlyDecreasingAcquisitionPasses) {
  lockdebug::OnAcquire(LockRank::kResultCache, "test.server");
  lockdebug::OnAcquire(LockRank::kSchedulerState, "test.core");
  lockdebug::OnAcquire(LockRank::kPoolWorker, "test.util");
  EXPECT_TRUE(reports_.empty()) << reports_.front();

  const std::vector<lockdebug::HeldLock> held = lockdebug::HeldByThisThread();
  ASSERT_EQ(held.size(), 3u);
  EXPECT_EQ(held[0].rank, LockRank::kResultCache);  // outermost first
  EXPECT_EQ(held[2].rank, LockRank::kPoolWorker);

  lockdebug::OnRelease(LockRank::kPoolWorker, "test.util");
  lockdebug::OnRelease(LockRank::kSchedulerState, "test.core");
  lockdebug::OnRelease(LockRank::kResultCache, "test.server");
  EXPECT_TRUE(lockdebug::HeldByThisThread().empty());
}

TEST_F(LockRankTest, ReacquireAfterReleaseIsLegal) {
  // Dropping back to no locks resets the ceiling: high-rank acquisitions
  // are fine again.
  lockdebug::OnAcquire(LockRank::kPoolWorker, "test.util");
  lockdebug::OnRelease(LockRank::kPoolWorker, "test.util");
  lockdebug::OnAcquire(LockRank::kResultCache, "test.server");
  lockdebug::OnRelease(LockRank::kResultCache, "test.server");
  EXPECT_TRUE(reports_.empty()) << reports_.front();
}

TEST_F(LockRankTest, AscendingAcquisitionIsAViolation) {
  lockdebug::OnAcquire(LockRank::kSchedulerState, "test.core");
  lockdebug::OnAcquire(LockRank::kResultCache, "test.server");
  ASSERT_EQ(reports_.size(), 1u);
  EXPECT_NE(reports_[0].find("acquisition order violation"),
            std::string::npos)
      << reports_[0];
  EXPECT_NE(reports_[0].find("strictly decrease"), std::string::npos)
      << reports_[0];
  // The report names both locks and shows the held stack.
  EXPECT_NE(reports_[0].find("test.server"), std::string::npos);
  EXPECT_NE(reports_[0].find("test.core"), std::string::npos);
  EXPECT_NE(reports_[0].find("held by this thread"), std::string::npos);
  lockdebug::OnRelease(LockRank::kResultCache, "test.server");
  lockdebug::OnRelease(LockRank::kSchedulerState, "test.core");
}

TEST_F(LockRankTest, EqualRankIsAViolation) {
  // Two locks of the same rank can never be held together — "strictly
  // below" leaves no room for ties.
  lockdebug::OnAcquire(LockRank::kColumnVersion, "test.column.a");
  lockdebug::OnAcquire(LockRank::kColumnVersion, "test.column.b");
  ASSERT_EQ(reports_.size(), 1u);
  EXPECT_NE(reports_[0].find("strictly decrease"), std::string::npos);
  lockdebug::OnRelease(LockRank::kColumnVersion, "test.column.b");
  lockdebug::OnRelease(LockRank::kColumnVersion, "test.column.a");
}

// The acceptance test for the detector: thread 1 establishes A -> B, thread
// 2 attempts B -> A. The report must show the cycle and *both* acquisition
// stacks — the one attempting the inversion and the first-seen stack that
// established the opposite order.
TEST_F(LockRankTest, SeededAbBaInversionReportsBothStacks) {
  std::thread t1([] {
    lockdebug::OnAcquire(LockRank::kSchedulerState, "test.ab.A");
    lockdebug::OnAcquire(LockRank::kSchedulerDrain, "test.ab.B");  // legal
    lockdebug::OnRelease(LockRank::kSchedulerDrain, "test.ab.B");
    lockdebug::OnRelease(LockRank::kSchedulerState, "test.ab.A");
  });
  t1.join();  // A -> B is now in the global lock-order graph

  std::vector<std::string> t2_reports;
  std::thread t2([&t2_reports] {
    // The handler is global; capture on this thread to be explicit about
    // where the violation fires.
    lockdebug::SetViolationHandlerForTest(
        [&t2_reports](const std::string& r) { t2_reports.push_back(r); });
    lockdebug::OnAcquire(LockRank::kSchedulerDrain, "test.ab.B");
    lockdebug::OnAcquire(LockRank::kSchedulerState, "test.ab.A");  // B -> A
    lockdebug::OnRelease(LockRank::kSchedulerState, "test.ab.A");
    lockdebug::OnRelease(LockRank::kSchedulerDrain, "test.ab.B");
  });
  t2.join();

  ASSERT_EQ(t2_reports.size(), 1u);
  const std::string& report = t2_reports[0];
  // The cycle, by rank name.
  EXPECT_NE(report.find("lock-order cycle"), std::string::npos) << report;
  EXPECT_NE(report.find("kSchedulerState"), std::string::npos) << report;
  EXPECT_NE(report.find("kSchedulerDrain"), std::string::npos) << report;
  // Stack 1: what this thread holds right now (B, acquiring A).
  EXPECT_NE(report.find("held by this thread"), std::string::npos) << report;
  EXPECT_NE(report.find("test.ab.B"), std::string::npos) << report;
  // Stack 2: the first-seen evidence for the opposite order (A, then B).
  EXPECT_NE(report.find("the opposite order was first established"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("test.ab.A"), std::string::npos) << report;
}

TEST_F(LockRankTest, HeldStacksArePerThread) {
  lockdebug::OnAcquire(LockRank::kResultCache, "test.main");
  std::thread other([] {
    // A fresh thread holds nothing, so a high-rank acquisition is legal
    // regardless of what the main thread holds.
    EXPECT_TRUE(lockdebug::HeldByThisThread().empty());
    lockdebug::OnAcquire(LockRank::kResultCache, "test.other");
    EXPECT_EQ(lockdebug::HeldByThisThread().size(), 1u);
    lockdebug::OnRelease(LockRank::kResultCache, "test.other");
  });
  other.join();
  EXPECT_TRUE(reports_.empty()) << reports_.front();
  lockdebug::OnRelease(LockRank::kResultCache, "test.main");
}

// Without a handler installed the detector aborts with the report on
// stderr — the production (CI deadlock-check job) behavior.
TEST(LockRankDeathTest, AscendingAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        lockdebug::OnAcquire(LockRank::kPoolWorker, "test.death.low");
        lockdebug::OnAcquire(LockRank::kController, "test.death.high");
      },
      "strictly decrease");
}

TEST(LockRankNamesTest, EveryRankHasANameAndAStratum) {
  // Spot checks on the name tables (the lint enforces full coverage).
  EXPECT_EQ(LockRankName(LockRank::kPoolForState), "kPoolForState");
  EXPECT_EQ(LockRankName(LockRank::kResultCache), "kResultCache");
  EXPECT_EQ(LockRankName(LockRank::kColumnMemo), "kColumnMemo");
  EXPECT_EQ(LockStratumName(LockStratum::kUtil), "util");
  EXPECT_EQ(LockStratumName(LockStratum::kServer), "server");
  static_assert(LockRankStratum(LockRank::kPoolWake) == LockStratum::kUtil);
  static_assert(LockRankStratum(LockRank::kColumnVersion) ==
                LockStratum::kStore);
  // The memo lock is a store leaf: it may be taken under a version lock.
  static_assert(LockRankStratum(LockRank::kColumnMemo) == LockStratum::kStore);
  static_assert(LockRank::kColumnMemo < LockRank::kColumnVersion);
  static_assert(LockRankStratum(LockRank::kSchedulerState) ==
                LockStratum::kCore);
  static_assert(LockRankStratum(LockRank::kMetricsRegistry) ==
                LockStratum::kObs);
  static_assert(LockRankStratum(LockRank::kResultCache) ==
                LockStratum::kServer);
}

// --- MutexCv: predicate-only waits (spurious-wakeup hardening) ----------

TEST(MutexCvTest, AwaitForTimesOutWhilePredicateFalse) {
  MutexCv mu(LockRank::kController, "test.cv.timeout");
  bool ready = false;
  // Notifies with the predicate still false must not satisfy the wait —
  // AwaitFor re-checks the predicate and keeps waiting (the regression a
  // bare cv.wait_for(lock, timeout) would reintroduce).
  std::thread nudger([&mu] {
    for (int i = 0; i < 5; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      mu.NotifyAll();
    }
  });
  bool satisfied;
  {
    MutexLock lock(&mu);
    satisfied = mu.AwaitFor(std::chrono::milliseconds(50),
                            [&ready]() ADICT_CV_PREDICATE { return ready; });
  }
  nudger.join();
  EXPECT_FALSE(satisfied);
}

TEST(MutexCvTest, AwaitReturnsOncePredicateHolds) {
  MutexCv mu(LockRank::kController, "test.cv.ready");
  bool ready = false;
  std::thread setter([&mu, &ready] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    {
      MutexLock lock(&mu);
      ready = true;
    }
    mu.NotifyAll();
  });
  {
    MutexLock lock(&mu);
    mu.Await([&ready]() ADICT_CV_PREDICATE { return ready; });
    EXPECT_TRUE(ready);
  }
  setter.join();
}

#if ADICT_DEADLOCK_CHECK

// With the detector on, a MutexLock is visible on the held stack, and a
// thread parked in Await still counts as holding the lock.
TEST(LockRankWiringTest, NestedMutexLocksTrackTheHeldStack) {
  lockdebug::ResetForTest();
  Mutex outer(LockRank::kSchedulerState, "test.wiring.outer");
  Mutex inner(LockRank::kSchedulerDrain, "test.wiring.inner");
  {
    MutexLock outer_lock(&outer);
    ASSERT_EQ(lockdebug::HeldByThisThread().size(), 1u);
    {
      MutexLock inner_lock(&inner);
      const auto held = lockdebug::HeldByThisThread();
      ASSERT_EQ(held.size(), 2u);
      EXPECT_EQ(held[0].rank, LockRank::kSchedulerState);
      EXPECT_EQ(held[1].rank, LockRank::kSchedulerDrain);
    }
    EXPECT_EQ(lockdebug::HeldByThisThread().size(), 1u);
  }
  EXPECT_TRUE(lockdebug::HeldByThisThread().empty());
}

#else  // !ADICT_DEADLOCK_CHECK

// Release builds: the hooks are compiled out of Mutex entirely. Locking a
// real Mutex leaves no trace in the detector — the zero-overhead claim.
TEST(LockRankWiringTest, ReleaseMutexIsDetectorInvisible) {
  EXPECT_FALSE(lockdebug::Enabled());
  Mutex mu(LockRank::kController, "test.wiring.release");
  mu.Lock();
  EXPECT_TRUE(lockdebug::HeldByThisThread().empty());
  mu.Unlock();
  EXPECT_TRUE(lockdebug::HeldByThisThread().empty());
}

#endif  // ADICT_DEADLOCK_CHECK

}  // namespace
}  // namespace adict
