// Text rule-deck parser tests.
#include "engine/deck_parser.hpp"

#include <gtest/gtest.h>

#include "engine/engine.hpp"

namespace odrc::rules {
namespace {

TEST(DeckParser, EmptyAndCommentsOnly) {
  EXPECT_TRUE(parse_deck("").empty());
  EXPECT_TRUE(parse_deck("# just a comment\n\n   \n# another\n").empty());
}

TEST(DeckParser, AllRuleKinds) {
  const auto deck = parse_deck(
      "rule M1.W.1   width       layer=19 min=18\n"
      "rule M1.S.1   spacing     layer=19 min=18\n"
      "rule V1.EN    enclosure   inner=21 outer=19 min=5\n"
      "rule M1.A.1   area        layer=19 min=1000\n"
      "rule SHAPES   rectilinear\n"
      "rule SHAPES2  rectilinear layer=20\n"
      "rule OV       overlap     layer=21 with=19 min_area=64\n"
      "rule NC       notcut      layer=19 with=21 min_area=200\n");
  ASSERT_EQ(deck.size(), 8u);

  EXPECT_EQ(deck[0].kind, checks::rule_kind::width);
  EXPECT_EQ(deck[0].name, "M1.W.1");
  EXPECT_EQ(deck[0].layer1, 19);
  EXPECT_EQ(deck[0].distance, 18);

  EXPECT_EQ(deck[1].kind, checks::rule_kind::spacing);
  EXPECT_EQ(deck[1].spacing.count, 1);

  EXPECT_EQ(deck[2].kind, checks::rule_kind::enclosure);
  EXPECT_EQ(deck[2].layer1, 21);
  EXPECT_EQ(deck[2].layer2, 19);
  EXPECT_EQ(deck[2].distance, 5);

  EXPECT_EQ(deck[3].kind, checks::rule_kind::area);
  EXPECT_EQ(deck[3].min_area, 1000);

  EXPECT_EQ(deck[4].kind, checks::rule_kind::rectilinear);
  EXPECT_EQ(deck[4].layer1, any_layer);
  EXPECT_EQ(deck[5].layer1, 20);

  EXPECT_EQ(deck[6].kind, checks::rule_kind::overlap_area);
  EXPECT_EQ(deck[6].min_area, 64);

  EXPECT_EQ(deck[7].kind, checks::rule_kind::notcut_area);
  EXPECT_EQ(deck[7].layer2, 21);
}

TEST(DeckParser, ConditionalSpacingTiers) {
  const auto deck = parse_deck("rule S spacing layer=19 min=18 prl=500:24,1500:30\n");
  ASSERT_EQ(deck.size(), 1u);
  EXPECT_EQ(deck[0].spacing.count, 3);
  EXPECT_EQ(deck[0].spacing.required(0), 18);
  EXPECT_EQ(deck[0].spacing.required(600), 24);
  EXPECT_EQ(deck[0].spacing.required(2000), 30);
  EXPECT_EQ(deck[0].distance, 30);
}

TEST(DeckParser, TrailingCommentOnRuleLine) {
  const auto deck = parse_deck("rule W width layer=1 min=10 # inline note\n");
  ASSERT_EQ(deck.size(), 1u);
  EXPECT_EQ(deck[0].distance, 10);
}

TEST(DeckParser, ErrorsCarryLineNumbers) {
  auto expect_line = [](const std::string& text, std::size_t line) {
    try {
      (void)parse_deck(text);
      FAIL() << text;
    } catch (const deck_error& e) {
      EXPECT_EQ(e.line(), line) << e.what();
    }
  };
  expect_line("bogus W width layer=1 min=10\n", 1);
  expect_line("# fine\nrule W frobnicate layer=1\n", 2);
  expect_line("rule W width layer=1\n", 1);                 // missing min
  expect_line("rule W width layer=1 min=ten\n", 1);         // bad int
  expect_line("rule W width layer=1 min=10 extra=3\n", 1);  // unknown key
  expect_line("rule W width layer=1 min=10 min=11\n", 1);   // duplicate key
  expect_line("rule W width layer=1 oops\n", 1);            // not key=value
  expect_line("rule S spacing layer=1 min=10 prl=bad\n", 1);
  expect_line("rule S spacing layer=1 min=10 prl=1:2,3:4,5:6,7:8\n", 1);  // too many tiers
  expect_line("rule\n", 1);  // missing name/kind
  // Negative values.
  expect_line("rule S spacing layer=19 min=-5\n", 1);
  expect_line("rule W width layer=19 min=-1\n", 1);
  expect_line("rule E enclosure inner=21 outer=19 min=-5\n", 1);
  expect_line("rule A area layer=19 min=-1000\n", 1);
  expect_line("rule O overlap layer=21 with=19 min_area=-64\n", 1);
  expect_line("rule N notcut layer=19 with=21 min_area=-1\n", 1);
  expect_line("rule S spacing layer=19 min=18 prl=-500:-24\n", 1);
  expect_line("rule S spacing layer=19 min=18 prl=500:-24\n", 1);
  expect_line("rule S spacing layer=19 min=18 prl=-500:24\n", 1);
  // Distances whose candidate halo overflows coord_t.
  expect_line("rule S spacing layer=19 min=2147483647\n", 1);
  expect_line("rule W width layer=19 min=1073741824\n", 1);
  expect_line("rule E enclosure inner=21 outer=19 min=1073741824\n", 1);
  expect_line("# fine\nrule S spacing layer=19 min=18 prl=500:1073741824\n", 2);
}

// The bounds of the value checks above are themselves accepted.
TEST(DeckParser, ZeroAndMaxDistanceAccepted) {
  const auto deck = parse_deck(
      "rule S spacing layer=19 min=0 prl=0:1073741823\n"
      "rule A area layer=19 min=0\n");
  ASSERT_EQ(deck.size(), 2u);
  EXPECT_EQ(deck[0].distance, max_deck_distance);
  EXPECT_EQ(deck[1].min_area, 0);
}

TEST(DeckParser, ParsedDeckRunsInEngine) {
  db::library lib;
  const db::cell_id top = lib.add_cell("top");
  lib.at(top).add_rect(1, {0, 0, 10, 100});  // narrow: width violation
  drc_engine e;
  e.add_rules(parse_deck("rule W width layer=1 min=18\n"));
  const auto r = e.check(lib);
  EXPECT_EQ(r.violations.size(), 1u);
}

TEST(DeckParser, MissingFileThrows) {
  EXPECT_THROW((void)parse_deck_file("/nonexistent/deck.txt"), std::runtime_error);
}

}  // namespace
}  // namespace odrc::rules
