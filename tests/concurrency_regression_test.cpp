// Regression tests for the engine's one multithreaded execution path:
// check_concurrent's group tasks, which share one layout snapshot and each
// fill a report of their own, run with tracing enabled. These are tests the
// CI thread-sanitizer job exists for: under TSan, a report or any
// instrumentation written from two threads fails here.
#include <gtest/gtest.h>

#include <vector>

#include "engine/engine.hpp"
#include "infra/trace.hpp"
#include "workload/workload.hpp"

namespace odrc {
namespace {

using workload::layers;
using workload::tech;

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
