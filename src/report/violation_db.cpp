#include "report/violation_db.hpp"

#include <algorithm>
#include <charconv>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

namespace odrc::report {

namespace {

// Minimal JSON string escaping (rule names are ASCII identifiers in
// practice, but be safe).
void json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xF] << "0123456789abcdef"[c & 0xF];
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

std::optional<rect> key_extent(const std::string& key) {
  // "<rule>|<kind>|<l1>|<l2>|<e1>|<e2>|<measured>" — the rule name is the
  // only field that could in principle contain '|', so split from the right.
  const std::size_t p_measured = key.rfind('|');
  if (p_measured == std::string::npos || p_measured == 0) return std::nullopt;
  const std::size_t p_e2 = key.rfind('|', p_measured - 1);
  if (p_e2 == std::string::npos || p_e2 == 0) return std::nullopt;
  const std::size_t p_e1 = key.rfind('|', p_e2 - 1);
  if (p_e1 == std::string::npos) return std::nullopt;
  const auto parse_edge = [&](std::size_t begin, std::size_t end) -> std::optional<rect> {
    int x1 = 0, y1 = 0, x2 = 0, y2 = 0;
    const std::string field = key.substr(begin, end - begin);
    if (std::sscanf(field.c_str(), "%d,%d,%d,%d", &x1, &y1, &x2, &y2) != 4) return std::nullopt;
    return rect{std::min(x1, x2), std::min(y1, y2), std::max(x1, x2), std::max(y1, y2)};
  };
  const auto e1 = parse_edge(p_e1 + 1, p_e2);
  const auto e2 = parse_edge(p_e2 + 1, p_measured);
  if (!e1 || !e2) return std::nullopt;
  return e1->join(*e2);
}

std::string violation_key(const std::string& rule, const checks::violation& v) {
  const checks::violation n = checks::normalized(v);
  std::ostringstream key;
  key << rule << '|' << checks::rule_kind_name(n.kind) << '|' << n.layer1 << '|' << n.layer2
      << '|' << n.e1.from.x << ',' << n.e1.from.y << ',' << n.e1.to.x << ',' << n.e1.to.y << '|'
      << n.e2.from.x << ',' << n.e2.from.y << ',' << n.e2.to.x << ',' << n.e2.to.y << '|'
      << n.measured;
  return key.str();
}

void violation_db::add(const std::string& rule_name,
                       std::span<const checks::violation> violations) {
  entries_.reserve(entries_.size() + violations.size());
  for (const checks::violation& v : violations) {
    entries_.push_back({rule_name, v, violation_key(rule_name, v)});
    ++key_count_[entries_.back().key];
  }
}

bool violation_db::add_unique(const std::string& rule_name, const checks::violation& v) {
  std::string key = violation_key(rule_name, v);
  auto [it, inserted] = key_count_.try_emplace(std::move(key), 1);
  if (!inserted) return false;
  entries_.push_back({rule_name, v, it->first});
  return true;
}

std::size_t violation_db::erase_touching(const std::string& rule_name,
                                         const geo::region& window,
                                         std::optional<std::int16_t> layer) {
  const std::size_t before = entries_.size();
  std::erase_if(entries_, [&](const entry& e) {
    if (e.rule != rule_name || (layer && e.v.layer1 != *layer)) return false;
    if (!window.overlaps(e.v.e1.mbr()) && !window.overlaps(e.v.e2.mbr())) return false;
    auto it = key_count_.find(e.key);
    if (it != key_count_.end() && --it->second == 0) key_count_.erase(it);
    return true;
  });
  return before - entries_.size();
}

std::vector<std::string> violation_db::keys() const {
  std::vector<std::string> out;
  out.reserve(key_count_.size());
  for (const auto& [k, n] : key_count_) out.push_back(k);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<summary_row> violation_db::summarize() const {
  std::vector<summary_row> rows;
  std::map<std::string, std::size_t> pos;
  for (const entry& e : entries_) {
    auto [it, added] = pos.try_emplace(e.rule, rows.size());
    if (added) rows.push_back({e.rule, e.v.kind, 0});
    ++rows[it->second].count;
  }
  return rows;
}

std::vector<std::size_t> violation_db::in_window(const rect& window) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (window.overlaps(marker_box(entries_[i].v))) out.push_back(i);
  }
  return out;
}

rect violation_db::extent() const {
  rect e;
  for (const entry& en : entries_) e = e.join(marker_box(en.v));
  return e;
}

void violation_db::write_text(std::ostream& out) const {
  out << "# violation report";
  if (!design_.empty()) out << " for " << design_;
  out << "\n# total: " << entries_.size() << "\n";
  for (const summary_row& row : summarize()) {
    out << "# " << (row.rule.empty() ? std::string(checks::rule_kind_name(row.kind)) : row.rule)
        << ": " << row.count << "\n";
  }
  for (const entry& e : entries_) {
    const rect m = marker_box(e.v);
    out << (e.rule.empty() ? std::string(checks::rule_kind_name(e.v.kind)) : e.rule) << ' '
        << checks::rule_kind_name(e.v.kind) << " L" << e.v.layer1;
    if (e.v.layer2 != e.v.layer1) out << "/L" << e.v.layer2;
    out << " [" << m.x_min << ',' << m.y_min << " .. " << m.x_max << ',' << m.y_max
        << "] measured=" << e.v.measured << "\n";
  }
}

void violation_db::write_json(std::ostream& out) const {
  out << "{\"design\": ";
  json_string(out, design_);
  out << ", \"total\": " << entries_.size() << ", \"rules\": [";

  const auto rows = summarize();
  bool first_rule = true;
  for (const summary_row& row : rows) {
    if (!first_rule) out << ", ";
    first_rule = false;
    out << "{\"name\": ";
    json_string(out, row.rule);
    out << ", \"kind\": \"" << checks::rule_kind_name(row.kind) << "\", \"count\": " << row.count
        << ", \"violations\": [";
    bool first = true;
    for (const entry& e : entries_) {
      if (e.rule != row.rule) continue;
      if (!first) out << ", ";
      first = false;
      const rect m = marker_box(e.v);
      out << "{\"layer1\": " << e.v.layer1 << ", \"layer2\": " << e.v.layer2
          << ", \"measured\": " << e.v.measured << ", \"bbox\": [" << m.x_min << ", " << m.y_min
          << ", " << m.x_max << ", " << m.y_max << "]}";
    }
    out << "]}";
  }
  out << "]}\n";
}

// ---------------------------------------------------------------------------
// Report diffing
// ---------------------------------------------------------------------------

namespace {

checks::rule_kind kind_from_name(const std::string& name, std::size_t line_no) {
  for (int k = 0; k <= static_cast<int>(checks::rule_kind::coloring); ++k) {
    const auto kind = static_cast<checks::rule_kind>(k);
    if (name == checks::rule_kind_name(kind)) return kind;
  }
  throw std::runtime_error("report line " + std::to_string(line_no) + ": unknown rule kind '" +
                           name + "'");
}

}  // namespace

std::vector<report_line> parse_text_report(std::istream& in) {
  std::vector<report_line> out;
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    if (raw.empty() || raw[0] == '#') continue;
    // Format: <rule> <kind> L<l1>[/L<l2>] [x1,y1 .. x2,y2] measured=<m>
    std::istringstream ss(raw);
    report_line rl;
    std::string kind_s, layers_s, open_s, xy1, dots, xy2, measured_s;
    if (!(ss >> rl.rule >> kind_s >> layers_s >> xy1 >> dots >> xy2 >> measured_s)) {
      throw std::runtime_error("report line " + std::to_string(line_no) + ": malformed: " + raw);
    }
    rl.kind = kind_from_name(kind_s, line_no);
    // layers: L19 or L21/L19
    int l1 = 0, l2 = 0;
    if (std::sscanf(layers_s.c_str(), "L%d/L%d", &l1, &l2) == 2) {
    } else if (std::sscanf(layers_s.c_str(), "L%d", &l1) == 1) {
      l2 = l1;
    } else {
      throw std::runtime_error("report line " + std::to_string(line_no) + ": bad layers '" +
                               layers_s + "'");
    }
    rl.layer1 = static_cast<std::int16_t>(l1);
    rl.layer2 = static_cast<std::int16_t>(l2);
    int x1 = 0, y1 = 0, x2 = 0, y2 = 0;
    if (std::sscanf(xy1.c_str(), "[%d,%d", &x1, &y1) != 2 ||
        std::sscanf(xy2.c_str(), "%d,%d]", &x2, &y2) != 2 || dots != "..") {
      throw std::runtime_error("report line " + std::to_string(line_no) + ": bad box in: " + raw);
    }
    rl.box = {x1, y1, x2, y2};
    long long m = 0;
    if (std::sscanf(measured_s.c_str(), "measured=%lld", &m) != 1) {
      throw std::runtime_error("report line " + std::to_string(line_no) + ": bad measured in: " +
                               raw);
    }
    rl.measured = m;
    out.push_back(std::move(rl));
  }
  return out;
}

key_diff diff_keys(std::vector<std::string> baseline, std::vector<std::string> current) {
  std::sort(baseline.begin(), baseline.end());
  baseline.erase(std::unique(baseline.begin(), baseline.end()), baseline.end());
  std::sort(current.begin(), current.end());
  current.erase(std::unique(current.begin(), current.end()), current.end());
  key_diff d;
  std::set_difference(baseline.begin(), baseline.end(), current.begin(), current.end(),
                      std::back_inserter(d.fixed));
  std::set_difference(current.begin(), current.end(), baseline.begin(), baseline.end(),
                      std::back_inserter(d.introduced));
  std::set_intersection(baseline.begin(), baseline.end(), current.begin(), current.end(),
                        std::back_inserter(d.unchanged));
  return d;
}

report_diff diff_reports(std::vector<report_line> baseline, std::vector<report_line> current) {
  // Sort + dedupe exactly like diff_keys: set semantics, not multiset — a
  // duplicated report line must not surface as a phantom fixed/introduced.
  std::sort(baseline.begin(), baseline.end());
  baseline.erase(std::unique(baseline.begin(), baseline.end()), baseline.end());
  std::sort(current.begin(), current.end());
  current.erase(std::unique(current.begin(), current.end()), current.end());
  report_diff d;
  std::set_difference(baseline.begin(), baseline.end(), current.begin(), current.end(),
                      std::back_inserter(d.fixed));
  std::set_difference(current.begin(), current.end(), baseline.begin(), baseline.end(),
                      std::back_inserter(d.introduced));
  return d;
}

}  // namespace odrc::report
