// Tests for the remaining infrastructure pieces: thread pool, timer/profiler,
// logger, execution traits.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <random>

#include "infra/execution.hpp"
#include "infra/logger.hpp"
#include "infra/thread_pool.hpp"
#include "infra/timer.hpp"

namespace odrc {
namespace {

// ---------------------------------------------------------------------------
// thread pool
// ---------------------------------------------------------------------------

TEST(ThreadPool, SubmitReturnsResults) {
  thread_pool pool(2);
  auto f1 = pool.submit([] { return 21 * 2; });
  auto f2 = pool.submit([] { return std::string{"ok"}; });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  thread_pool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyAndTinyRanges) {
  thread_pool pool(4);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> n{0};
  pool.parallel_for(0, 1, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 1);
}

TEST(ThreadPool, SingleWorkerDoesNotDeadlock) {
  thread_pool pool(1);
  std::atomic<int> n{0};
  pool.parallel_for(0, 100, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 100);
}

TEST(ThreadPool, GlobalIsSingleton) {
  EXPECT_EQ(&thread_pool::global(), &thread_pool::global());
  EXPECT_GE(thread_pool::global().worker_count(), 1u);
}

// ---------------------------------------------------------------------------
// timer / profiler
// ---------------------------------------------------------------------------

TEST(Timer, MeasuresForwardTime) {
  timer t;
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_GE(t.nanoseconds(), 0u);
}

TEST(PhaseProfiler, AccumulatesAndFractions) {
  phase_profiler prof;
  prof.add(phase::partition, 0.15);
  prof.add(phase::sweepline, 0.35);
  prof.add(phase::edge_check, 0.50);
  prof.add(phase::partition, 0.15);
  EXPECT_DOUBLE_EQ(prof.total(), 1.15);
  EXPECT_NEAR(prof.fraction(phase::partition), 0.30 / 1.15, 1e-12);
  EXPECT_DOUBLE_EQ(prof.fraction(phase::device), 0.0);

  phase_profiler more;
  more.add(phase::device, 0.85);
  prof += more;
  EXPECT_DOUBLE_EQ(prof.total(), 2.0);
  EXPECT_EQ(prof.phases().size(), 4u);
  EXPECT_DOUBLE_EQ(prof.phases().at("device"), 0.85);
}

TEST(PhaseProfiler, ScopeRecords) {
  phase_profiler prof;
  {
    auto s = prof.measure(phase::pack);
  }
  EXPECT_EQ(prof.phases().size(), 1u);
  EXPECT_GE(prof.phases().at("pack"), 0.0);
}

// ---------------------------------------------------------------------------
// logger
// ---------------------------------------------------------------------------

TEST(Logger, LevelsGate) {
  logger& lg = logger::instance();
  const log_level before = lg.level();
  lg.set_level(log_level::error);
  EXPECT_FALSE(lg.enabled(log_level::debug));
  EXPECT_TRUE(lg.enabled(log_level::error));
  log_debug() << "should not appear";
  log_error() << "logger test line (expected in output)";
  lg.set_level(before);
}

// ---------------------------------------------------------------------------
// execution traits (paper Listing 2's compile-time dispatch)
// ---------------------------------------------------------------------------

TEST(Execution, TraitsClassifyExecutors) {
  static_assert(execution::is_sequenced_executor_v<execution::sequenced_policy>);
  static_assert(!execution::is_device_executor_v<execution::sequenced_policy>);
  static_assert(execution::is_device_executor_v<execution::device_policy>);
  static_assert(!execution::is_sequenced_executor_v<execution::device_policy>);
  static_assert(execution::is_sequenced_executor_v<const execution::sequenced_policy&>);
  static_assert(execution::executor<execution::sequenced_policy>);
  static_assert(execution::executor<execution::device_policy>);
  static_assert(!execution::executor<int>);
  SUCCEED();
}

}  // namespace
}  // namespace odrc
