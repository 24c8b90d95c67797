// Incremental spatial violation index: randomized equivalence against a
// naive reference across epoch rebuilds, and violation_db::in_window vs the
// linear-scan reference under churn. Suite names start with "VioIndex" so
// the TSan CI job picks them up alongside the Serve suites.
#include "report/violation_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <unordered_map>
#include <vector>

#include "report/violation_db.hpp"

namespace odrc::report {
namespace {

checks::violation at(coord_t x, coord_t y, checks::rule_kind kind = checks::rule_kind::spacing) {
  return {kind, 19, 19, edge{{x, y}, {static_cast<coord_t>(x + 10), y}},
          edge{{x, static_cast<coord_t>(y + 10)},
               {static_cast<coord_t>(x + 10), static_cast<coord_t>(y + 10)}},
          100};
}

std::vector<std::uint64_t> naive_query(const std::unordered_map<std::uint64_t, rect>& boxes,
                                       const rect& w) {
  std::vector<std::uint64_t> out;
  for (const auto& [id, b] : boxes) {
    if (w.overlaps(b)) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::uint64_t> index_query(const violation_index& idx, const rect& w) {
  std::vector<std::uint64_t> out;
  idx.query(w, [&](std::uint64_t id) { out.push_back(id); });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(VioIndex, RandomizedMatchesNaiveAcrossRebuilds) {
  std::mt19937 rng(20260808);
  std::uniform_int_distribution<coord_t> pos(-2000, 2000);
  std::uniform_int_distribution<coord_t> len(1, 300);
  std::uniform_int_distribution<int> op(0, 9);

  violation_index idx;  // default thresholds: rebuilds must actually trigger
  std::unordered_map<std::uint64_t, rect> ref;
  std::vector<std::uint64_t> live;
  std::uint64_t next_id = 1;

  const auto random_rect = [&] {
    const coord_t x = pos(rng), y = pos(rng);
    return rect{x, y, static_cast<coord_t>(x + len(rng)), static_cast<coord_t>(y + len(rng))};
  };

  for (int step = 0; step < 4000; ++step) {
    const int o = op(rng);
    if (o < 5 || live.empty()) {  // insert
      const std::uint64_t id = next_id++;
      const rect b = random_rect();
      idx.insert(id, b);
      ref[id] = b;
      live.push_back(id);
    } else if (o < 7) {  // replace a live id (re-insert semantics)
      const std::uint64_t id = live[rng() % live.size()];
      const rect b = random_rect();
      idx.insert(id, b);
      ref[id] = b;
    } else if (o < 9) {  // erase
      const std::size_t k = rng() % live.size();
      const std::uint64_t id = live[k];
      live[k] = live.back();
      live.pop_back();
      EXPECT_TRUE(idx.erase(id));
      ref.erase(id);
      EXPECT_FALSE(idx.erase(id)) << "double erase must report absent";
    } else {  // query
      const rect w = random_rect();
      EXPECT_EQ(index_query(idx, w), naive_query(ref, w)) << "step " << step;
    }
  }
  EXPECT_EQ(idx.size(), ref.size());
  // The churn above must have driven epoch rebuilds, or the test exercised
  // only the linear overlay and proved nothing about the packed tree path.
  EXPECT_GT(idx.stats().rebuilds, 0u);
  // Full-extent query sees everything exactly once.
  EXPECT_EQ(index_query(idx, rect{-3000, -3000, 3000, 3000}), naive_query(ref, {-3000, -3000, 3000, 3000}));
}

TEST(VioIndex, BulkLoadThenMutate) {
  std::vector<std::pair<std::uint64_t, rect>> items;
  std::unordered_map<std::uint64_t, rect> ref;
  for (std::uint64_t i = 1; i <= 500; ++i) {
    const coord_t x = static_cast<coord_t>((i * 37) % 1000);
    const coord_t y = static_cast<coord_t>((i * 61) % 800);
    const rect b{x, y, static_cast<coord_t>(x + 20), static_cast<coord_t>(y + 20)};
    items.emplace_back(i, b);
    ref[i] = b;
  }
  violation_index idx{std::span<const std::pair<std::uint64_t, rect>>(items)};
  EXPECT_EQ(idx.size(), 500u);
  EXPECT_EQ(index_query(idx, rect{100, 100, 400, 300}), naive_query(ref, {100, 100, 400, 300}));

  for (std::uint64_t i = 1; i <= 500; i += 2) {
    EXPECT_TRUE(idx.erase(i));
    ref.erase(i);
  }
  EXPECT_EQ(idx.size(), 250u);
  EXPECT_EQ(index_query(idx, rect{0, 0, 1020, 820}), naive_query(ref, {0, 0, 1020, 820}));
  EXPECT_FALSE(idx.contains(1));
  EXPECT_TRUE(idx.contains(2));
}

// violation_db::in_window must stay byte-identical to the linear reference
// scan while the store churns through the exact mutations a session recheck
// performs: erase_touching purges, add_unique inserts.
TEST(VioIndex, InWindowMatchesScanUnderChurn) {
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
      EXPECT_EQ(db.in_window(w), db.in_window_scan(w)) << when << " window " << q;
    }
  };

  check_windows("after bulk add");
  for (int round = 0; round < 5; ++round) {
    const coord_t x = pos(rng), y = pos(rng);
    db.erase_touching("R.A", rect{x, y, static_cast<coord_t>(x + 400), static_cast<coord_t>(y + 400)});
    for (int i = 0; i < 40; ++i) db.add_unique("R.A", at(pos(rng), pos(rng)));
    check_windows("after churn round");
  }
  db.erase_rule("R.B");
  check_windows("after erase_rule");
  // The index followed the mutations incrementally — it was built once and
  // kept coherent, not rebuilt from scratch on every query.
  EXPECT_EQ(db.index_stats().size, db.size());
}

TEST(VioIndex, KeyExtentRoundTrip) {
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

}  // namespace
}  // namespace odrc::report
