// Text rule-deck parser (interface layer, paper Section V-A: "reading design
// files, defining rule decks, adaptors to design databases, and result
// output").
//
// While the C++ DSL (rule.hpp) is the primary interface, end users running
// the CLI need a file format. The deck format is line-based:
//
//   # ASAP7-like BEOL deck
//   rule M1.W.1     width       layer=19 min=18
//   rule M1.S.1     spacing     layer=19 min=18
//   rule M1.S.PRL   spacing     layer=19 min=18 prl=500:24,1500:30
//   rule V1.M1.EN.1 enclosure   inner=21 outer=19 min=5
//   rule M1.A.1     area        layer=19 min=1000
//   rule SHAPES     rectilinear
//   rule SHAPES.M2  rectilinear layer=20
//   rule V2.M2.OV   overlap     layer=25 with=20 min_area=64
//   rule M1.NC      notcut      layer=19 with=21 min_area=200
//
// '#' starts a comment; blank lines are ignored; unknown keys, malformed or
// negative values, and distances above max_deck_distance raise deck_error
// with the line number.
#pragma once

#include <istream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/rule.hpp"

namespace odrc::rules {

/// Largest rule distance a deck may state (min, prl distances): the candidate
/// halo of a larger one overflows coord_t.
inline constexpr coord_t max_deck_distance = std::numeric_limits<coord_t>::max() / 2;

class deck_error : public std::runtime_error {
 public:
  deck_error(const std::string& what, std::size_t line)
      : std::runtime_error("deck line " + std::to_string(line) + ": " + what), line_(line) {}

  [[nodiscard]] std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

/// Parse a rule deck from a stream.
[[nodiscard]] std::vector<rule> parse_deck(std::istream& in);

/// Parse a rule deck from a string (convenience for tests).
[[nodiscard]] std::vector<rule> parse_deck(const std::string& text);

/// Parse a rule deck file from disk.
[[nodiscard]] std::vector<rule> parse_deck_file(const std::string& path);

}  // namespace odrc::rules
