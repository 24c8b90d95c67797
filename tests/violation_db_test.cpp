// Violation database tests: grouping, windowed queries, text/JSON output.
#include "report/violation_db.hpp"

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>

#include "engine/engine.hpp"
#include "workload/workload.hpp"

namespace odrc::report {
namespace {

checks::violation at(coord_t x, coord_t y, checks::rule_kind kind = checks::rule_kind::spacing) {
  return {kind, 19, 19, edge{{x, y}, {static_cast<coord_t>(x + 10), y}},
          edge{{x, static_cast<coord_t>(y + 10)}, {static_cast<coord_t>(x + 10),
                                                   static_cast<coord_t>(y + 10)}},
          100};
}

TEST(ViolationDb, SummarizeGroupsInOrder) {
  violation_db db("t");
  db.add("M1.S.1", std::vector<checks::violation>{at(0, 0), at(100, 0)});
  db.add("M1.W.1", std::vector<checks::violation>{at(200, 0, checks::rule_kind::width)});
  db.add("M1.S.1", std::vector<checks::violation>{at(300, 0)});
  EXPECT_EQ(db.size(), 4u);
  const auto rows = db.summarize();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].rule, "M1.S.1");
  EXPECT_EQ(rows[0].count, 3u);
  EXPECT_EQ(rows[1].rule, "M1.W.1");
  EXPECT_EQ(rows[1].kind, checks::rule_kind::width);
}

TEST(ViolationDb, WindowQueryMatchesBruteForce) {
  violation_db db;
  std::vector<checks::violation> vs;
  for (int i = 0; i < 200; ++i) {
    vs.push_back(at(static_cast<coord_t>((i * 37) % 1000), static_cast<coord_t>((i * 61) % 800)));
  }
  db.add("R", vs);
  const rect window{100, 100, 400, 300};
  const auto hits = db.in_window(window);
  std::size_t expected = 0;
  for (const entry& e : db.entries()) {
    if (window.overlaps(marker_box(e.v))) ++expected;
  }
  EXPECT_EQ(hits.size(), expected);
  for (const std::size_t i : hits) {
    EXPECT_TRUE(window.overlaps(marker_box(db.entries()[i].v)));
  }
}

// in_window stays the ascending brute-force answer while the store churns
// through the mutations a session recheck performs: erase_touching purges,
// add_unique inserts.
TEST(ViolationDb, InWindowMatchesBruteForceUnderChurn) {
  std::mt19937 rng(42);
  std::uniform_int_distribution<coord_t> pos(0, 1500);
  violation_db db("churn");

  std::vector<checks::violation> seed;
  for (int i = 0; i < 300; ++i) seed.push_back(at(pos(rng), pos(rng)));
  db.add("R.A", seed);
  db.add("R.B", std::vector<checks::violation>{at(10, 10), at(700, 700)});

  const auto check_windows = [&](const char* when) {
    for (int q = 0; q < 40; ++q) {
      const coord_t x = pos(rng), y = pos(rng);
      const rect w{x, y, static_cast<coord_t>(x + 250), static_cast<coord_t>(y + 250)};
      std::vector<std::size_t> expected;
      for (std::size_t i = 0; i < db.size(); ++i) {
        if (w.overlaps(marker_box(db.entries()[i].v))) expected.push_back(i);
      }
      EXPECT_EQ(db.in_window(w), expected) << when << " window " << q;
    }
  };

  check_windows("after bulk add");
  for (int round = 0; round < 5; ++round) {
    const coord_t x = pos(rng), y = pos(rng);
    db.erase_touching("R.A", rect{x, y, static_cast<coord_t>(x + 400), static_cast<coord_t>(y + 400)});
    for (int i = 0; i < 40; ++i) db.add_unique("R.A", at(pos(rng), pos(rng)));
    check_windows("after churn round");
  }
  EXPECT_EQ(db.keys().size(), db.size());
}

TEST(ViolationDb, KeyExtentRoundTrip) {
  const checks::violation v = at(123, -456);
  const std::string key = violation_key("M1.S.1", v);
  const std::optional<rect> ext = key_extent(key);
  ASSERT_TRUE(ext.has_value());
  EXPECT_EQ(*ext, marker_box(v));

  // Rule names may contain '|' — the parser anchors from the right.
  const std::string odd = violation_key("weird|rule", v);
  const std::optional<rect> ext2 = key_extent(odd);
  ASSERT_TRUE(ext2.has_value());
  EXPECT_EQ(*ext2, marker_box(v));

  EXPECT_FALSE(key_extent("not a key").has_value());
  EXPECT_FALSE(key_extent("a|b|c").has_value());
  EXPECT_FALSE(key_extent("").has_value());
}

TEST(ViolationDb, IndexInvalidatedByAdd) {
  violation_db db;
  db.add("R", std::vector<checks::violation>{at(0, 0)});
  EXPECT_EQ(db.in_window(rect{-5, -5, 5, 5}).size(), 1u);
  db.add("R", std::vector<checks::violation>{at(1, 1)});
  EXPECT_EQ(db.in_window(rect{-5, -5, 5, 5}).size(), 2u);
}

TEST(ViolationDb, ExtentAndEmpty) {
  violation_db db;
  EXPECT_TRUE(db.extent().empty());
  db.add("R", std::vector<checks::violation>{at(0, 0), at(500, 200)});
  EXPECT_EQ(db.extent(), (rect{0, 0, 510, 210}));
}

TEST(ViolationDb, TextOutput) {
  violation_db db("mydesign");
  db.add("M1.S.1", std::vector<checks::violation>{at(0, 0)});
  std::ostringstream out;
  db.write_text(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("mydesign"), std::string::npos);
  EXPECT_NE(s.find("M1.S.1"), std::string::npos);
  EXPECT_NE(s.find("spacing L19"), std::string::npos);
  EXPECT_NE(s.find("measured=100"), std::string::npos);
}

TEST(ViolationDb, JsonStructure) {
  violation_db db("d\"esign");  // quote needs escaping
  db.add("M1.S.1", std::vector<checks::violation>{at(0, 0), at(50, 50)});
  db.add("EN", std::vector<checks::violation>{
                   {checks::rule_kind::enclosure, 21, 19, edge{{0, 0}, {8, 0}},
                    edge{{-5, 3}, {20, 3}}, 9}});
  std::ostringstream out;
  db.write_json(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("\"design\": \"d\\\"esign\""), std::string::npos);
  EXPECT_NE(s.find("\"total\": 3"), std::string::npos);
  EXPECT_NE(s.find("\"kind\": \"spacing\""), std::string::npos);
  EXPECT_NE(s.find("\"kind\": \"enclosure\""), std::string::npos);
  EXPECT_NE(s.find("\"layer2\": 19"), std::string::npos);
  EXPECT_NE(s.find("\"bbox\": [0, 0, 10, 10]"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  EXPECT_EQ(std::count(s.begin(), s.end(), '{'), std::count(s.begin(), s.end(), '}'));
  EXPECT_EQ(std::count(s.begin(), s.end(), '['), std::count(s.begin(), s.end(), ']'));
}

TEST(ViolationDb, EndToEndWithEngine) {
  auto spec = workload::spec_for("uart", 0.5);
  spec.inject = {1, 1, 1, 1};
  const auto g = workload::generate(spec);
  drc_engine e;
  violation_db db(g.lib.name());
  using workload::layers;
  using workload::tech;
  db.add("M1.W.1", e.run_width(g.lib, layers::M1, tech::wire_width).violations);
  db.add("M1.S.1", e.run_spacing(g.lib, layers::M1, tech::wire_space).violations);
  EXPECT_GE(db.size(), 2u);
  // Every injected M1 site is discoverable through the windowed query.
  for (const workload::site& s : g.sites) {
    if (s.layer1 != layers::M1) continue;
    if (s.kind != checks::rule_kind::width && s.kind != checks::rule_kind::spacing) continue;
    EXPECT_FALSE(db.in_window(s.marker.inflated(1)).empty());
  }
}

// ---------------------------------------------------------------------------
// Report parsing + diffing
// ---------------------------------------------------------------------------

TEST(ReportDiff, ParseRoundTripsWriteText) {
  violation_db db("d");
  db.add("M1.S.1", std::vector<checks::violation>{at(0, 0), at(100, 50)});
  db.add("V1.M1.EN.1",
         std::vector<checks::violation>{
             {checks::rule_kind::enclosure, 21, 19, edge{{0, 0}, {8, 0}},
              edge{{-5, 3}, {20, 3}}, 9}});
  std::stringstream ss;
  db.write_text(ss);
  const auto lines = parse_text_report(ss);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].rule, "M1.S.1");
  EXPECT_EQ(lines[0].kind, checks::rule_kind::spacing);
  EXPECT_EQ(lines[0].layer1, 19);
  EXPECT_EQ(lines[0].box, (rect{0, 0, 10, 10}));
  EXPECT_EQ(lines[0].measured, 100);
  EXPECT_EQ(lines[2].kind, checks::rule_kind::enclosure);
  EXPECT_EQ(lines[2].layer1, 21);
  EXPECT_EQ(lines[2].layer2, 19);
}

TEST(ReportDiff, MalformedLinesThrow) {
  for (const char* bad : {"garbage", "R spacing L19 [0,0 .. 10,10]",
                          "R frobnicate L19 [0,0 .. 10,10] measured=1",
                          "R spacing X19 [0,0 .. 10,10] measured=1",
                          "R spacing L19 [0;0 .. 10,10] measured=1"}) {
    std::istringstream ss(bad);
    EXPECT_THROW((void)parse_text_report(ss), std::runtime_error) << bad;
  }
}

TEST(ReportDiff, DiffFindsFixedAndIntroduced) {
  auto mk = [](coord_t x, area_t m) {
    report_line rl;
    rl.rule = "R";
    rl.kind = checks::rule_kind::spacing;
    rl.layer1 = rl.layer2 = 19;
    rl.box = {x, 0, static_cast<coord_t>(x + 10), 10};
    rl.measured = m;
    return rl;
  };
  const std::vector<report_line> baseline{mk(0, 100), mk(50, 100), mk(90, 64)};
  const std::vector<report_line> current{mk(50, 100), mk(90, 64), mk(200, 25)};
  const report_diff d = diff_reports(baseline, current);
  ASSERT_EQ(d.fixed.size(), 1u);
  EXPECT_EQ(d.fixed[0].box.x_min, 0);
  ASSERT_EQ(d.introduced.size(), 1u);
  EXPECT_EQ(d.introduced[0].box.x_min, 200);
  EXPECT_FALSE(d.clean());
  EXPECT_TRUE(diff_reports(current, current).clean());
}

TEST(ReportDiff, DuplicateLinesCollapse) {
  // Set semantics, exactly like diff_keys: a report that lists the same
  // violation twice (overlapping windows, a rerun appended to one file) must
  // not surface phantom fixed/introduced lines. Regression for the old
  // multiset behavior where {rl, rl} vs {rl} reported one "fixed".
  report_line rl;
  rl.rule = "R";
  rl.kind = checks::rule_kind::width;
  rl.layer1 = rl.layer2 = 19;
  rl.box = {0, 0, 10, 10};
  rl.measured = 100;
  report_line other = rl;
  other.box = {50, 0, 60, 10};

  const report_diff same = diff_reports({rl, rl}, {rl});
  EXPECT_TRUE(same.fixed.empty());
  EXPECT_TRUE(same.introduced.empty());
  EXPECT_TRUE(same.clean());

  // Dedup applies to both sides and never hides a real difference.
  const report_diff d = diff_reports({rl, rl, other}, {other, other});
  ASSERT_EQ(d.fixed.size(), 1u);
  EXPECT_EQ(d.fixed[0].box.x_min, 0);
  EXPECT_TRUE(d.introduced.empty());
}

}  // namespace
}  // namespace odrc::report
