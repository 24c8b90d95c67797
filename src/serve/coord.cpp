#include "serve/coord.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "infra/trace.hpp"

namespace odrc::serve {

namespace {

/// Body lines of a response payload prefixed with `tag ` (e.g. "v", "fixed"),
/// tag stripped.
std::vector<std::string> tagged_lines(const std::string& payload, const std::string& tag) {
  std::vector<std::string> out;
  const std::string prefix = tag + ' ';
  std::istringstream is(payload);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind(prefix, 0) == 0) out.push_back(line.substr(prefix.size()));
  }
  return out;
}

/// "rule|kind|..." -> "rule". violation_db keys never contain whitespace and
/// always lead with the rule name.
std::string rule_of_key(const std::string& key) {
  return key.substr(0, key.find('|'));
}

std::string summarize_keys(const std::vector<std::string>& keys, bool include_keys) {
  std::map<std::string, std::size_t> per_rule;
  for (const std::string& k : keys) ++per_rule[rule_of_key(k)];
  std::ostringstream os;
  os << "ok total " << keys.size();
  for (const auto& [rule, count] : per_rule) os << "\nrule " << rule << ' ' << count;
  if (include_keys) {
    for (const std::string& k : keys) os << "\nv " << k;
  }
  return os.str();
}

/// Pull "<label> <number>" out of a status line; 0 when absent.
std::uint64_t status_field(const std::string& line, const std::string& label) {
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    if (tok == label) {
      std::uint64_t v = 0;
      if (is >> v) return v;
      return 0;
    }
  }
  return 0;
}

std::string first_line(const std::string& payload) {
  return payload.substr(0, payload.find('\n'));
}

}  // namespace

coordinator::coordinator(coord_config cfg)
    : server(cfg.listen, this->sessions), ccfg_(std::move(cfg)) {
  if (ccfg_.worker_endpoints.empty()) throw std::runtime_error("coordinator needs workers");
  if (ccfg_.worker_endpoints.size() != ccfg_.bands.size()) {
    throw std::runtime_error("worker/band count mismatch");
  }
  if (ccfg_.worker_endpoints.size() > 64) {
    throw std::runtime_error("at most 64 shards (owner bitmask)");
  }
  links_.reserve(ccfg_.worker_endpoints.size());
  for (std::size_t i = 0; i < ccfg_.worker_endpoints.size(); ++i) {
    auto w = std::make_unique<worker_link>();
    w->endpoint = ccfg_.worker_endpoints[i];
    w->band = ccfg_.bands[i];
    w->index = static_cast<std::uint32_t>(i);
    links_.push_back(std::move(w));
  }
}

coordinator::~coordinator() {
  // Quiesce while the vtable still points here: the base destructor would
  // otherwise run queued requests against a half-destroyed coordinator.
  stop();
  wait();
}

void coordinator::start() {
  for (const auto& w : links_) {
    std::lock_guard lk(w->mu);
    w->cli.connect(w->endpoint);
    const frame pong = w->cli.request(msg_type::ping, 0);
    if (!client::ok(pong)) {
      throw std::runtime_error("worker " + w->endpoint + " ping: " + client::status_line(pong));
    }
    std::ostringstream os;
    os << w->index << ' ' << links_.size() << ' ' << w->band.x_min << ' ' << w->band.y_min
       << ' ' << w->band.x_max << ' ' << w->band.y_max;
    const frame resp = w->cli.request(msg_type::shard, 0, os.str());
    if (!client::ok(resp)) {
      throw std::runtime_error("worker " + w->endpoint +
                               " shard: " + client::status_line(resp));
    }
  }
  server::start();
}

std::vector<coordinator::leg_result> coordinator::scatter(msg_type t, std::uint32_t session,
                                                          const std::string& payload,
                                                          const std::vector<bool>* pick) {
  trace::span ts("coord", "scatter", "type", static_cast<std::int64_t>(t), "legs",
                 static_cast<std::int64_t>(links_.size()));
  std::vector<leg_result> results(links_.size());
  // Run one step of leg i; a transport failure ends the leg and marks the
  // link unhealthy.
  auto step = [&](std::size_t i, auto&& fn) {
    worker_link& w = *links_[i];
    try {
      fn(w);
      return true;
    } catch (const std::exception& e) {
      w.failures.fetch_add(1);
      w.healthy.store(false);
      results[i].error = "shard " + std::to_string(w.index) + " (" + w.endpoint + "): " + e.what();
      return false;
    }
  };
  // Lock the picked links in index order, the same order every scatter
  // uses, keep them for the whole scatter, and put each leg's request on
  // the wire.
  std::vector<std::unique_lock<std::mutex>> locks;
  std::vector<std::uint16_t> seqs(links_.size());
  std::vector<std::size_t> sent;  // legs whose request is on the wire
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (pick != nullptr && !(*pick)[i]) {
      results[i].error = "skipped";
      continue;
    }
    locks.emplace_back(links_[i]->mu);
    if (step(i, [&](worker_link& w) { seqs[i] = w.cli.send(t, session, payload); })) {
      sent.push_back(i);
    }
  }

  // Every worker runs its leg concurrently; read the replies in leg order.
  // A worker whose own queue is full answers "error busy": the leg fails.
  for (const std::size_t i : sent) {
    step(i, [&](worker_link& w) {
      const frame resp = w.cli.receive(seqs[i]);
      w.legs.fetch_add(1);
      leg_result& out = results[i];
      if (!client::ok(resp)) {
        const std::string line = client::status_line(resp);
        if (line.rfind("error busy", 0) == 0) {
          w.shed.fetch_add(1);
          trace::counter("coord", "legs_shed", static_cast<std::int64_t>(w.shed.load()));
        }
        out.error = "shard " + std::to_string(w.index) + ": " + line;
        return;
      }
      out.ok = true;
      out.payload = resp.payload;
    });
  }
  return results;
}

std::string coordinator::do_check(const frame& f) {
  const bool want_keys = f.payload.find("keys") != std::string::npos;
  std::lock_guard sc(scatter_mu_);
  // Baseline for the subscribers' delta: the reconciled key set before this
  // check rebuilds the ownership map.
  const std::vector<std::string> baseline = current_keys();
  const std::vector<leg_result> legs = scatter(msg_type::check, f.header.session, "keys");

  // Rebuild ownership per succeeded worker even when a sibling failed: each
  // worker's report is the truth about its own band.
  std::string first_error;
  {
    std::lock_guard lk(keys_mu_);
    for (std::size_t i = 0; i < legs.size(); ++i) {
      if (!legs[i].ok) {
        if (first_error.empty()) first_error = legs[i].error;
        continue;
      }
      const std::uint64_t bit = 1ull << i;
      for (auto it = key_mask_.begin(); it != key_mask_.end();) {
        it->second &= ~bit;
        it = it->second == 0 ? key_mask_.erase(it) : std::next(it);
      }
      for (const std::string& k : tagged_lines(legs[i].payload, "v")) key_mask_[k] |= bit;
    }
  }
  if (!first_error.empty()) return "error " + first_error;

  const std::vector<std::string> keys = current_keys();
  {
    std::lock_guard lk(keys_mu_);
    last_diff_ = report::key_diff{};
  }
  // Subscribers still get a delta for the check (diffed against the previous
  // reconciled key set) so their reconstructed view never silently shifts
  // baseline; scatter_mu_ orders it against neighboring rechecks. The `diff`
  // verb keeps its meaning — "the last RECHECK's diff" — unchanged.
  const std::uint32_t sid = f.header.session == 0 ? 1 : f.header.session;
  subs_.publish(sid, report::diff_keys(baseline, keys));
  return summarize_keys(keys, want_keys);
}

std::string coordinator::gather_keys(const frame& f, const char* verb, bool by_band) {
  std::istringstream args(f.payload);
  const rect w = parse_window_args(args, verb);
  std::string flag;
  args >> flag;
  const bool want_keys = flag == "keys";

  // check_region asks the bands overlapping the window. query asks EVERY
  // worker: an entry is stored where an offending EDGE touches the band,
  // but its marker box (the joined MBR of both edges) can overlap a window
  // the band itself misses; a scan of the worker's stored violations costs
  // it almost nothing.
  std::vector<bool> pick(links_.size(), true);
  if (by_band) {
    for (std::size_t i = 0; i < links_.size(); ++i) pick[i] = links_[i]->band.overlaps(w);
    if (std::ranges::find(pick, true) == pick.end()) return "ok total 0";
  }

  std::vector<leg_result> legs;
  {
    // Hold scatter_mu_ across the scatter so an edit/recheck broadcast
    // cannot land between legs — otherwise some workers would answer
    // pre-edit and others post-edit, and the union would describe a fleet
    // state that never existed.
    std::lock_guard sc(scatter_mu_);
    legs = scatter(static_cast<msg_type>(f.header.type), f.header.session,
                   f.payload + (want_keys ? "" : " keys"), &pick);
  }
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < legs.size(); ++i) {
    if (!pick[i]) continue;
    if (!legs[i].ok) return "error " + legs[i].error;
    const std::vector<std::string> ks = tagged_lines(legs[i].payload, "v");
    keys.insert(keys.end(), ks.begin(), ks.end());
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());  // seam dedup
  return summarize_keys(keys, want_keys);
}

std::string coordinator::do_edit(const frame& f) {
  std::lock_guard sc(scatter_mu_);
  const std::vector<leg_result> legs = scatter(msg_type::edit, f.header.session, f.payload);
  for (const leg_result& r : legs) {
    if (!r.ok) return "error " + r.error;
  }
  return first_line(legs.front().payload);  // replicas answer identically
}

std::string coordinator::do_recheck(const frame& f) {
  const bool want_keys = f.payload.find("keys") != std::string::npos;
  std::lock_guard sc(scatter_mu_);
  const std::vector<leg_result> legs =
      scatter(msg_type::recheck, f.header.session, "keys");

  std::vector<std::string> fixed, introduced;
  std::uint64_t windows = 0, plans = 0, purged = 0, inserted = 0;
  bool full = false;
  std::string first_error, reply;
  {
    std::lock_guard lk(keys_mu_);
    for (std::size_t i = 0; i < legs.size(); ++i) {
      if (!legs[i].ok) {
        if (first_error.empty()) first_error = legs[i].error;
        continue;
      }
      const std::uint64_t bit = 1ull << i;
      const std::string status = first_line(legs[i].payload);
      windows += status_field(status, "windows");
      plans += status_field(status, "plans");
      purged += status_field(status, "purged");
      inserted += status_field(status, "inserted");
      full = full || status_field(status, "full") != 0;
      // A key is globally fixed when its LAST owner drops it, globally new
      // when its FIRST owner reports it.
      for (const std::string& k : tagged_lines(legs[i].payload, "fixed")) {
        auto it = key_mask_.find(k);
        if (it == key_mask_.end()) continue;
        it->second &= ~bit;
        if (it->second == 0) {
          key_mask_.erase(it);
          fixed.push_back(k);
        }
      }
      for (const std::string& k : tagged_lines(legs[i].payload, "new")) {
        std::uint64_t& mask = key_mask_[k];
        if (mask == 0) introduced.push_back(k);
        mask |= bit;
      }
    }
    std::sort(fixed.begin(), fixed.end());
    std::sort(introduced.begin(), introduced.end());
    last_diff_.fixed = fixed;
    last_diff_.introduced = introduced;
    last_diff_.unchanged.clear();
    for (const auto& [k, mask] : key_mask_) {
      (void)mask;
      if (!std::binary_search(introduced.begin(), introduced.end(), k)) {
        last_diff_.unchanged.push_back(k);
      }
    }
    std::sort(last_diff_.unchanged.begin(), last_diff_.unchanged.end());
    std::ostringstream tail;
    tail << " windows " << windows << " purged " << purged << " inserted " << inserted
         << " full " << (full ? 1 : 0) << " plans " << plans;
    reply = diff_reply(last_diff_, tail.str(), want_keys);
  }
  if (!first_error.empty()) return "error " + first_error;

  // One deduplicated delta per recheck: seam straddlers enter `fixed`/
  // `introduced` only on the last-owner-drops / first-owner-reports edge of
  // the bitmask reconciliation above, so a coordinator subscriber never sees
  // a key twice for one fleet recheck.
  {
    const std::uint32_t sid = f.header.session == 0 ? 1 : f.header.session;
    report::key_diff d;
    d.fixed = fixed;
    d.introduced = introduced;
    subs_.publish(sid, d);
  }
  return reply;
}

std::string coordinator::do_broadcast_status(const frame& f) {
  std::lock_guard sc(scatter_mu_);
  const std::vector<leg_result> legs =
      scatter(static_cast<msg_type>(f.header.type), f.header.session, f.payload);
  for (const leg_result& r : legs) {
    if (!r.ok) return "error " + r.error;
  }
  return first_line(legs.front().payload);
}

std::string coordinator::dispatch(const frame& f) {
  switch (static_cast<msg_type>(f.header.type)) {
    case msg_type::check: return do_check(f);
    case msg_type::check_region: return gather_keys(f, "check_region", true);
    case msg_type::query: return gather_keys(f, "query", false);
    case msg_type::edit: return do_edit(f);
    case msg_type::recheck: return do_recheck(f);
    case msg_type::reload: return do_broadcast_status(f);
    case msg_type::diff: {
      std::lock_guard lk(keys_mu_);
      return diff_reply(last_diff_, "", true);
    }
    case msg_type::stats: {
      std::string base = server::dispatch(f);
      std::ostringstream os;
      os << base;
      std::size_t i = 0;
      for (const worker_link_stats& w : worker_stats()) {
        os << "\nshard " << i++ << " endpoint " << w.endpoint << " band " << w.band.y_min << ' '
           << w.band.y_max << " legs " << w.legs << " shed " << w.shed << " failures "
           << w.failures << " healthy " << (w.healthy ? 1 : 0);
      }
      return os.str();
    }
    case msg_type::shutdown: {
      if (ccfg_.forward_shutdown) {
        std::lock_guard sc(scatter_mu_);
        (void)scatter(msg_type::shutdown, 0, {});
      }
      return "ok shutting down";  // base handle() stops us after responding
    }
    case msg_type::ping:
    case msg_type::health: return server::dispatch(f);
    case msg_type::open:
    case msg_type::close:
    case msg_type::shard:
      throw std::runtime_error(std::string(msg_type_name(f.header.type)) +
                               " is not a coordinator verb");
    default: break;
  }
  throw std::runtime_error("unknown request type " + msg_type_display(f.header.type));
}

std::vector<worker_link_stats> coordinator::worker_stats() const {
  std::vector<worker_link_stats> out;
  out.reserve(links_.size());
  for (const auto& w : links_) {
    worker_link_stats s;
    s.endpoint = w->endpoint;
    s.band = w->band;
    s.legs = w->legs.load();
    s.shed = w->shed.load();
    s.failures = w->failures.load();
    s.healthy = w->healthy.load();
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<std::string> coordinator::current_keys() const {
  std::lock_guard lk(keys_mu_);
  std::vector<std::string> keys;
  keys.reserve(key_mask_.size());
  for (const auto& [k, mask] : key_mask_) {
    (void)mask;
    keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace odrc::serve
