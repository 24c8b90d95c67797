// Regression tests for the thread-safety fixes: phase_profiler is hammered
// from many threads (it used to hand out references into a map that other
// threads were mutating), and the engine's one multithreaded execution path
// (check_concurrent's group tasks, which share one layout snapshot) runs with
// tracing enabled. These are the tests the CI thread-sanitizer job exists
// for: under TSan, the pre-fix profiler and any racy instrumentation fail
// here.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "infra/timer.hpp"
#include "infra/trace.hpp"
#include "workload/workload.hpp"

namespace odrc {
namespace {

using workload::layers;
using workload::tech;

TEST(PhaseProfilerThreads, ConcurrentAddCopyAndRead) {
  phase_profiler prof;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&prof, &go, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      const std::string phase = "phase_" + std::to_string(t % 3);
      for (int i = 0; i < kIters; ++i) {
        prof.add(phase, 1.0);
        if (i % 64 == 0) {
          // Readers and writers interleave: phases() must return a snapshot
          // (holding a live reference into the map was the original bug),
          // and copying a profiler mid-flight must be safe.
          double sum = 0;
          for (const auto& [_, s] : prof.phases()) sum += s;
          EXPECT_LE(sum, static_cast<double>(kThreads) * kIters);
          (void)prof.total();
          (void)prof.fraction(phase);
          const phase_profiler copy(prof);
          EXPECT_LE(copy.total(), static_cast<double>(kThreads) * kIters);
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& w : workers) w.join();

  // Increments of 1.0 are exact in double: nothing may be lost or duplicated.
  double sum = 0;
  for (const auto& [_, s] : prof.phases()) sum += s;
  EXPECT_EQ(sum, static_cast<double>(kThreads) * kIters);
  EXPECT_EQ(prof.total(), static_cast<double>(kThreads) * kIters);
}

TEST(PhaseProfilerThreads, ScopesFromWorkerThreads) {
  phase_profiler prof;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&prof] {
      for (int i = 0; i < 200; ++i) {
        auto s = prof.measure(i % 2 ? "even" : "odd");
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const auto snap = prof.phases();
  EXPECT_EQ(snap.size(), 2u);
  EXPECT_GE(prof.total(), 0.0);
}

class ConcurrentDecks : public ::testing::Test {
 protected:
  ConcurrentDecks() {
    auto spec = workload::spec_for("uart", 0.5);
    spec.inject = {1, 1, 1, 1};
    gen_ = workload::generate(spec);
    deck_ = {
        rules::layer(layers::M1).spacing().greater_than(tech::wire_space),
        rules::layer(layers::M2).spacing().greater_than(tech::wire_space),
        rules::layer(layers::M3).spacing().greater_than(tech::wire_space),
    };
  }

  static std::vector<checks::violation> norm(std::vector<checks::violation> v) {
    checks::normalize_all(v);
    return v;
  }

  workload::generated gen_;
  std::vector<rules::rule> deck_;
};

TEST_F(ConcurrentDecks, ConcurrentRuleTasksMatchSerial) {
  drc_engine serial;
  serial.add_rules(deck_);
  const auto want = norm(serial.check(gen_.lib).violations);

  drc_engine conc;
  conc.add_rules(deck_);
  EXPECT_EQ(norm(conc.check_concurrent(gen_.lib).violations), want);
}

TEST_F(ConcurrentDecks, TracingStaysSoundUnderConcurrency) {
  // Group tasks with the recorder live: worker threads emit spans and read
  // the merged reports' profilers concurrently.
  trace::recorder& rec = trace::recorder::instance();
  rec.enable();
  drc_engine serial;
  serial.add_rules(deck_);
  const auto r1 = serial.check(gen_.lib);
  drc_engine conc;
  conc.add_rules(deck_);
  const auto r2 = conc.check_concurrent(gen_.lib);
  rec.disable();

  EXPECT_EQ(norm(std::vector<checks::violation>(r1.violations)),
            norm(std::vector<checks::violation>(r2.violations)));
  const auto m = rec.metrics();
  EXPECT_FALSE(m.spans.empty());
  EXPECT_GT(m.wall_ms, 0.0);
}

}  // namespace
}  // namespace odrc
