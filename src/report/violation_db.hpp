// Violation database (interface layer "result output"): accumulates the
// violations of a whole deck run keyed by rule name, answers windowed
// queries (a linear scan — "show me the markers under the cursor"), and
// serializes to human-readable text or machine-readable JSON for downstream
// tooling.
#pragma once

#include <compare>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "checks/violation.hpp"
#include "geo/region.hpp"

namespace odrc::report {

struct entry {
  std::string rule;  ///< rule name (e.g. "M1.S.1"); may be empty
  checks::violation v;
  std::string key;  ///< violation_key(rule, v), computed at insertion
};

/// Stable content-derived identity of one violation: rule name + kind +
/// layers + the canonicalized offending edges (checks::normalized) +
/// measured value. Two runs that find the same geometric violation produce
/// byte-identical keys whatever the discovery order, so key sets diff
/// order-independently — the identity incremental rechecks and the serve
/// protocol's `diff` are built on.
[[nodiscard]] std::string violation_key(const std::string& rule, const checks::violation& v);

/// Recover the marker box (joined MBR of the two offending edges) from a
/// violation key alone — keys embed the canonicalized edge coordinates.
/// Lets consumers that only see key streams (the serve protocol's diff/delta
/// frames, the cluster coordinator) clip by window without the full record.
/// nullopt on a malformed key.
[[nodiscard]] std::optional<rect> key_extent(const std::string& key);

struct summary_row {
  std::string rule;
  checks::rule_kind kind;
  std::size_t count;
};

class violation_db {
 public:
  explicit violation_db(std::string design_name = {}) : design_(std::move(design_name)) {}

  void add(const std::string& rule_name, std::span<const checks::violation> violations);

  /// Insert unless an entry with the same violation key is already present
  /// (identical violations reported by overlapping dirty windows dedup to
  /// one). Returns true when inserted.
  bool add_unique(const std::string& rule_name, const checks::violation& v);

  /// Remove every entry of `rule_name` with at least one offending edge MBR
  /// overlapping a rect of `window` (one pass over the entries) — the purge
  /// predicate is edge-wise, matching check_region's keep predicate exactly
  /// (NOT marker_box: the joined box can overlap a window neither edge
  /// touches). With `layer`, only entries on that layer (layer1). Returns
  /// the count removed.
  std::size_t erase_touching(const std::string& rule_name, const geo::region& window,
                             std::optional<std::int16_t> layer = std::nullopt);

  /// Sorted unique violation keys of the current contents.
  [[nodiscard]] std::vector<std::string> keys() const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::span<const entry> entries() const { return entries_; }
  [[nodiscard]] const std::string& design() const { return design_; }

  /// Per-rule counts, in first-seen rule order.
  [[nodiscard]] std::vector<summary_row> summarize() const;

  /// Indices of entries whose marker box overlaps `window`, ascending. A
  /// linear scan: a serve session stores tens of violations, and every
  /// recheck already makes one erase_touching pass over all of them per
  /// rerun rule.
  [[nodiscard]] std::vector<std::size_t> in_window(const rect& window) const;

  /// Bounding box of all markers (empty rect when no violations).
  [[nodiscard]] rect extent() const;

  /// Plain-text report: summary then one line per violation.
  void write_text(std::ostream& out) const;

  /// JSON document:
  ///   {"design": "...", "total": N,
  ///    "rules": [{"name": "...", "kind": "...", "count": n,
  ///               "violations": [{"layer1": .., "layer2": ..,
  ///                               "measured": .., "bbox": [x1,y1,x2,y2]}]}]}
  void write_json(std::ostream& out) const;

 private:
  std::string design_;
  std::vector<entry> entries_;
  // Key multiplicity alongside entries_: membership test for add_unique and
  // keys() without an O(n) rescan. A count (not a set) because plain add()
  // accepts duplicates.
  std::unordered_map<std::string, std::uint32_t> key_count_;
};

/// Order-independent key-set diff: what a recheck fixed, introduced, and
/// left standing relative to a baseline key set.
struct key_diff {
  std::vector<std::string> fixed;       ///< in baseline, gone now
  std::vector<std::string> introduced;  ///< new in current
  std::vector<std::string> unchanged;   ///< in both

  [[nodiscard]] bool clean() const { return introduced.empty(); }
};

/// Set difference over two key lists (sorted or not; duplicates collapse).
[[nodiscard]] key_diff diff_keys(std::vector<std::string> baseline,
                                 std::vector<std::string> current);

/// Marker box of one violation (joined MBR of its edges).
[[nodiscard]] inline rect marker_box(const checks::violation& v) {
  return v.e1.mbr().join(v.e2.mbr());
}

// ---------------------------------------------------------------------------
// Report diffing (signoff regression workflow)
// ---------------------------------------------------------------------------

/// Identity of a violation as recorded in a text report: rule + kind +
/// layers + marker box + measured value (the edges themselves are not
/// persisted in reports).
struct report_line {
  std::string rule;
  checks::rule_kind kind = checks::rule_kind::width;
  std::int16_t layer1 = 0;
  std::int16_t layer2 = 0;
  rect box;
  area_t measured = 0;

  friend bool operator==(const report_line&, const report_line&) = default;
  friend auto operator<=>(const report_line& a, const report_line& b) {
    return std::tie(a.rule, a.layer1, a.layer2, a.box.x_min, a.box.y_min, a.box.x_max,
                    a.box.y_max, a.measured) <=>
           std::tie(b.rule, b.layer1, b.layer2, b.box.x_min, b.box.y_min, b.box.x_max,
                    b.box.y_max, b.measured);
  }
};

/// Parse a text report previously produced by violation_db::write_text (or
/// the CLI's --report). Comment lines ('#') are skipped; malformed lines
/// raise std::runtime_error with the line number.
[[nodiscard]] std::vector<report_line> parse_text_report(std::istream& in);

struct report_diff {
  std::vector<report_line> fixed;      ///< present before, gone now
  std::vector<report_line> introduced; ///< new in the current report

  [[nodiscard]] bool clean() const { return introduced.empty(); }
};

/// Set difference between a baseline report and a current one. Duplicate
/// lines collapse (sort + dedupe, exactly like diff_keys): a report that
/// lists one violation twice — overlapping windows, a rerun appended to the
/// same file — must not leak phantom fixed/introduced lines.
[[nodiscard]] report_diff diff_reports(std::vector<report_line> baseline,
                                       std::vector<report_line> current);

}  // namespace odrc::report
