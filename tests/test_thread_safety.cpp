// Tests for src/util/sync.hpp (the annotated Mutex/MutexLock/CondVar
// primitives) and for the thread-safety gate itself.
//
// Two layers:
//  - Functional: the wrappers must behave exactly like the std
//    primitives they replace — mutual exclusion, try_lock contention,
//    adopting MutexLock, condvar handoff. These run under any compiler
//    (the sanitizer jobs re-run them under TSan/ASan).
//  - Gate proof: with a clang++ on PATH, the negative-compile fixture
//    pair must behave asymmetrically — ok_locked.cpp compiles under
//    -Wthread-safety -Werror, bad_unlocked.cpp (an unlocked access to
//    a NSREL_GUARDED_BY field) is rejected. Without clang++ the gate
//    tests skip: the analysis is Clang-only, and the CI thread-safety
//    job is the box where absence is an error (THREAD_SAFETY_REQUIRE).
#include "util/sync.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

namespace {

using nsrel::util::CondVar;
using nsrel::util::Mutex;
using nsrel::util::MutexLock;

TEST(SyncMutex, ProvidesMutualExclusion) {
  Mutex mutex;
  long counter = 0;
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10'000; ++i) {
        const MutexLock lock(mutex);
        ++counter;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter, 40'000);
}

TEST(SyncMutex, TryLockFailsWhileHeldAndSucceedsAfterRelease) {
  Mutex mutex;
  mutex.lock();
  EXPECT_FALSE(mutex.try_lock());
  mutex.unlock();
  ASSERT_TRUE(mutex.try_lock());
  mutex.unlock();
}

TEST(SyncMutexLock, AdoptingConstructorReleasesOnDestruction) {
  Mutex mutex;
  ASSERT_TRUE(mutex.try_lock());
  {
    const MutexLock lock(mutex, std::adopt_lock);
  }
  // The adopted lock must have been released by the destructor.
  ASSERT_TRUE(mutex.try_lock());
  mutex.unlock();
}

TEST(SyncCondVar, WaitReleasesMutexAndReacquiresOnNotify) {
  Mutex mutex;
  CondVar cv;
  bool ready = false;
  bool observed = false;

  std::thread waiter([&] {
    const MutexLock lock(mutex);
    while (!ready) cv.wait(mutex);
    observed = true;  // guarded write: wait() re-acquired the mutex
  });
  {
    const MutexLock lock(mutex);
    ready = true;
  }
  cv.notify_one();
  waiter.join();
  EXPECT_TRUE(observed);
}

TEST(SyncCondVar, NotifyAllWakesEveryWaiter) {
  Mutex mutex;
  CondVar cv;
  bool go = false;
  int awake = 0;
  std::vector<std::thread> waiters;
  waiters.reserve(3);
  for (int t = 0; t < 3; ++t) {
    waiters.emplace_back([&] {
      const MutexLock lock(mutex);
      while (!go) cv.wait(mutex);
      ++awake;
    });
  }
  {
    const MutexLock lock(mutex);
    go = true;
  }
  cv.notify_all();
  for (auto& thread : waiters) thread.join();
  EXPECT_EQ(awake, 3);
}

// ---------------------------------------------------------------------
// Gate proof: shell out to a clang++ exactly the way
// tools/thread_safety.sh does and assert the fixture asymmetry.

struct RunResult {
  int status = -1;
  std::string output;
};

RunResult run(const std::string& command) {
  RunResult result;
  FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer{};
  while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int raw = ::pclose(pipe);
  result.status = (raw >= 0 && WIFEXITED(raw)) ? WEXITSTATUS(raw) : -1;
  return result;
}

/// First clang++ that answers --version, or "" (mirrors
/// tools/lib/toolchain.sh, including the $CXX override).
std::string find_clangxx() {
  std::vector<std::string> candidates;
  if (const char* cxx = std::getenv("CXX")) candidates.emplace_back(cxx);
  for (const char* name :
       {"clang++", "clang++-19", "clang++-18", "clang++-17", "clang++-16",
        "clang++-15"}) {
    candidates.emplace_back(name);
  }
  for (const auto& candidate : candidates) {
    const RunResult probe = run(candidate + " --version");
    if (probe.status == 0 &&
        probe.output.find("clang") != std::string::npos) {
      return candidate;
    }
  }
  return "";
}

const std::string kSource = NSREL_SOURCE_DIR;
const std::string kFlags =
    " -std=c++20 -I " + kSource + "/src -Wthread-safety"
    " -Wthread-safety-beta -Werror -fsyntax-only ";
const std::string kFixtures = kSource + "/tests/thread_safety_fixtures";

#define SKIP_WITHOUT_CLANG(compiler) \
  if ((compiler).empty()) GTEST_SKIP() << "no clang++ on PATH"

TEST(ThreadSafetyGate, LockedFixtureCompiles) {
  const std::string clangxx = find_clangxx();
  SKIP_WITHOUT_CLANG(clangxx);
  const RunResult result =
      run(clangxx + kFlags + kFixtures + "/ok_locked.cpp");
  EXPECT_EQ(result.status, 0) << result.output;
}

TEST(ThreadSafetyGate, UnlockedGuardedAccessFailsToCompile) {
  const std::string clangxx = find_clangxx();
  SKIP_WITHOUT_CLANG(clangxx);
  const RunResult result =
      run(clangxx + kFlags + kFixtures + "/bad_unlocked.cpp");
  EXPECT_NE(result.status, 0)
      << "bad_unlocked.cpp compiled — the gate does not fire";
  EXPECT_NE(result.output.find("-Wthread-safety"), std::string::npos)
      << result.output;
}

TEST(ThreadSafetyGate, AnnotatedHeadersCompileUnderAnalysis) {
  const std::string clangxx = find_clangxx();
  SKIP_WITHOUT_CLANG(clangxx);
  // The annotated production headers themselves must be clean under the
  // analysis — the wrapper plus every migrated mutex owner's header.
  for (const char* header :
       {"util/sync.hpp", "util/thread_pool.hpp", "core/solve_cache.hpp",
        "obs/recorder.hpp", "obs/progress.hpp"}) {
    const RunResult result = run(clangxx + kFlags + " -x c++ " + kSource +
                                 "/src/" + header);
    EXPECT_EQ(result.status, 0) << header << ":\n" << result.output;
  }
}

}  // namespace
