#include "engine/deck_parser.hpp"

#include <charconv>
#include <fstream>
#include <map>
#include <sstream>

namespace odrc::rules {

namespace {

coord_t checked_distance(coord_t d, const std::string& what, std::size_t line) {
  if (d < 0) throw deck_error("negative value for " + what, line);
  if (d > max_deck_distance) {
    throw deck_error(what + " exceeds " + std::to_string(max_deck_distance), line);
  }
  return d;
}

// key=value token map of one rule line; tracks which keys were consumed so
// unknown keys can be reported.
class kv_args {
 public:
  kv_args(std::size_t line) : line_(line) {}

  void put(const std::string& key, const std::string& value) {
    if (!map_.emplace(key, value).second) {
      throw deck_error("duplicate key '" + key + "'", line_);
    }
  }

  [[nodiscard]] bool has(const std::string& key) const { return map_.contains(key); }

  [[nodiscard]] std::string take_str(const std::string& key) {
    auto it = map_.find(key);
    if (it == map_.end()) throw deck_error("missing key '" + key + "'", line_);
    std::string v = it->second;
    map_.erase(it);
    return v;
  }

  template <typename T>
  [[nodiscard]] T take_int(const std::string& key) {
    const std::string v = take_str(key);
    T out{};
    const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    if (ec != std::errc{} || ptr != v.data() + v.size()) {
      throw deck_error("invalid integer '" + v + "' for key '" + key + "'", line_);
    }
    return out;
  }

  // A non-negative distance no larger than max_deck_distance.
  [[nodiscard]] coord_t take_distance(const std::string& key) {
    return checked_distance(take_int<coord_t>(key), "key '" + key + "'", line_);
  }

  // A non-negative area.
  [[nodiscard]] area_t take_area(const std::string& key) {
    const area_t a = take_int<area_t>(key);
    if (a < 0) throw deck_error("negative value for key '" + key + "'", line_);
    return a;
  }

  template <typename T>
  [[nodiscard]] T take_int_or(const std::string& key, T fallback) {
    return has(key) ? take_int<T>(key) : fallback;
  }

  void expect_empty() const {
    if (!map_.empty()) {
      throw deck_error("unknown key '" + map_.begin()->first + "'", line_);
    }
  }

  [[nodiscard]] std::size_t line() const { return line_; }

 private:
  std::size_t line_;
  std::map<std::string, std::string> map_;
};

// Parse "500:24,1500:30" into extra spacing tiers.
void parse_prl(const std::string& spec, rule& r, std::size_t line) {
  std::stringstream ss(spec);
  std::string tier;
  while (std::getline(ss, tier, ',')) {
    const std::size_t colon = tier.find(':');
    if (colon == std::string::npos) {
      throw deck_error("prl tier '" + tier + "' must be <projection>:<distance>", line);
    }
    coord_t proj = 0, dist = 0;
    const std::string ps = tier.substr(0, colon), ds = tier.substr(colon + 1);
    auto rc1 = std::from_chars(ps.data(), ps.data() + ps.size(), proj);
    auto rc2 = std::from_chars(ds.data(), ds.data() + ds.size(), dist);
    if (rc1.ec != std::errc{} || rc2.ec != std::errc{}) {
      throw deck_error("invalid prl tier '" + tier + "'", line);
    }
    if (proj < 0) throw deck_error("negative projection in prl tier '" + tier + "'", line);
    checked_distance(dist, "prl tier '" + tier + "' distance", line);
    if (r.spacing.count >= r.spacing.tiers.size()) {
      throw deck_error("too many prl tiers (max " + std::to_string(r.spacing.tiers.size() - 1) +
                           " beyond the base)",
                       line);
    }
    r.spacing.add_tier(proj, dist);
  }
  r.distance = r.spacing.max_distance();
}

rule parse_rule(const std::string& name, const std::string& kind, kv_args& args) {
  const std::size_t line = args.line();
  rule r;
  r.name = name;
  if (kind == "width") {
    r = layer(args.take_int<db::layer_t>("layer")).width()
            .greater_than(args.take_distance("min"));
  } else if (kind == "spacing") {
    r = layer(args.take_int<db::layer_t>("layer")).spacing()
            .greater_than(args.take_distance("min"));
    if (args.has("prl")) parse_prl(args.take_str("prl"), r, line);
  } else if (kind == "enclosure") {
    r = layer(args.take_int<db::layer_t>("inner"))
            .enclosed_by(args.take_int<db::layer_t>("outer"))
            .greater_than(args.take_distance("min"));
  } else if (kind == "area") {
    r = layer(args.take_int<db::layer_t>("layer")).area()
            .greater_than(args.take_area("min"));
  } else if (kind == "rectilinear") {
    const db::layer_t l = args.take_int_or<db::layer_t>("layer", any_layer);
    r = (l == any_layer ? polygons() : layer(l).polygons()).is_rectilinear();
  } else if (kind == "overlap") {
    r = layer(args.take_int<db::layer_t>("layer"))
            .overlap_with(args.take_int<db::layer_t>("with"))
            .area_at_least(args.take_area("min_area"));
  } else if (kind == "notcut") {
    r = layer(args.take_int<db::layer_t>("layer"))
            .not_cut_by(args.take_int<db::layer_t>("with"))
            .area_at_least(args.take_area("min_area"));
  } else {
    throw deck_error("unknown rule kind '" + kind + "'", line);
  }
  args.expect_empty();
  r.name = name;
  return r;
}

}  // namespace

std::vector<rule> parse_deck(std::istream& in) {
  std::vector<rule> deck;
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    // Strip comments and whitespace.
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::stringstream ss(raw);
    std::string keyword;
    if (!(ss >> keyword)) continue;  // blank line
    if (keyword != "rule") throw deck_error("expected 'rule', got '" + keyword + "'", line_no);
    std::string name, kind;
    if (!(ss >> name >> kind)) throw deck_error("rule needs a name and a kind", line_no);
    kv_args args(line_no);
    std::string token;
    while (ss >> token) {
      const std::size_t eq = token.find('=');
      if (eq == std::string::npos) {
        throw deck_error("expected key=value, got '" + token + "'", line_no);
      }
      args.put(token.substr(0, eq), token.substr(eq + 1));
    }
    deck.push_back(parse_rule(name, kind, args));
  }
  return deck;
}

std::vector<rule> parse_deck(const std::string& text) {
  std::istringstream ss(text);
  return parse_deck(ss);
}

std::vector<rule> parse_deck_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open rule deck '" + path + "'");
  return parse_deck(f);
}

}  // namespace odrc::rules
