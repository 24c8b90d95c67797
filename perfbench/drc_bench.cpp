// drc_bench — the end-to-end DRC benchmark (see README.md here).
//
//   drc_bench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//
// One run generates a seeded layout and writes it as GDSII plus deck text,
// builds a .snap from the GDSII, boots an in-process server (or a 2-shard
// coordinator) from the .snap on Unix sockets, then for S seconds interleaves
// two kinds of closed-loop work:
//   - batch passes, `odrc check`-equivalent: gdsii::read -> parse deck ->
//     check_deck -> violation_db add + write_text, in seq and par mode;
//   - serve cycles over the socket: edit -> recheck -> windowed queries, with
//     a second connection subscribed to the delta pushes, and every edit
//     undone by the next cycle.
// A host-speed probe runs between operations every 200 ms, and end-to-end
// times are reported at a reference host speed (README.md, "Run-to-run
// spread"). The program only ever sees the files and frames written here. With
// --trace 1 the same loop runs twice: untraced, then with the trace recorder
// on, and the per-layer split comes from the recorded spans plus the
// engine's own phase and work counters.
//
// Output: one JSON object on stdout with every metric (value, unit, sample
// count), the correctness gate's verdict, and the input and host facts.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/deck_parser.hpp"
#include "engine/engine.hpp"
#include "engine/shard.hpp"
#include "engine/snapshot.hpp"
#include "engine/snapshot_store.hpp"
#include "gdsii/reader.hpp"
#include "gdsii/writer.hpp"
#include "infra/simd.hpp"
#include "infra/trace.hpp"
#include "report/violation_db.hpp"
#include "serve/client.hpp"
#include "serve/coord.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "sweep/device_sweep.hpp"
#include "trace_split.hpp"
#include "workload/workload.hpp"

extern char** environ;

namespace {

using namespace odrc;
using clk = std::chrono::steady_clock;
using perfbench::span_rec;

// decks/asap7.deck, copied so the benchmark's inputs stay fixed when the
// repository's sample deck changes.
constexpr const char* deck_text = R"(# ASAP7-like BEOL rule deck (distances in nm = dbu)
rule SHAPES      rectilinear
rule M1.W.1      width       layer=19 min=18
rule M2.W.1      width       layer=20 min=18
rule M3.W.1      width       layer=30 min=18
rule M1.S.1      spacing     layer=19 min=18
rule M2.S.1      spacing     layer=20 min=18
rule M3.S.1      spacing     layer=30 min=18
rule M1.A.1      area        layer=19 min=1000
rule V1.M1.EN.1  enclosure   inner=21 outer=19 min=5
rule V2.M2.EN.1  enclosure   inner=25 outer=20 min=5
rule V2.M3.EN.1  enclosure   inner=25 outer=30 min=5
rule V1.M1.OV    overlap     layer=21 with=19 min_area=64
)";

// Every workload runs seq passes, par passes and serve cycles; the shares
// are of measured time, serve cycles get the rest. Why each workload exists
// is in README.md.
struct workload_def {
  const char* name;
  const char* design;
  double scale;
  bool cluster;
  double seq_share;
  double par_share;
};

constexpr workload_def workloads[] = {
    {"jpeg-cluster2", "jpeg", 1.0, true, 0.15, 0.45},
    {"aes-deck", "aes", 2.0, false, 0.15, 0.45},
};

constexpr int setup_repeats = 3;
constexpr int queries_per_cycle = 3;
constexpr int check_every_undos = 2;  // full `check` after every 2nd undo
constexpr coord_t query_side = 3000;  // windowed query edge, nm
constexpr double probe_every_ms = 200;  // host-speed probe cadence while measuring
constexpr double probe_ref_ms = 6.0;    // the probe's median on the README's machine

double ms_between(clk::time_point a, clk::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(v.size() - 1, lo + 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

std::uint64_t status_field(const std::string& line, const std::string& label) {
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    if (tok == label) {
      std::uint64_t v = 0;
      is >> v;
      return v;
    }
  }
  return 0;
}

std::vector<std::string> tagged_lines(const std::string& payload, const std::string& tag) {
  std::vector<std::string> out;
  std::istringstream is(payload);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind(tag + ' ', 0) == 0) out.push_back(line.substr(tag.size() + 1));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Correctness gate: every operation is attempted once; an operation with any
// problem counts as one failed operation, and the first problems are kept
// verbatim with the operation that hit them.
// ---------------------------------------------------------------------------

struct gate_log {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> details;

  void record(const std::string& op, const std::vector<std::string>& problems) {
    ++attempted;
    if (problems.empty()) return;
    ++failed;
    for (const std::string& p : problems) {
      if (details.size() < 20) details.push_back(op + ": " + p);
    }
  }
};

std::string key_set_problem(const std::vector<std::string>& got,
                            const std::vector<std::string>& want) {
  if (got == want) return {};
  const report::key_diff d = report::diff_keys(want, got);
  return "key set differs from the reference: " + std::to_string(d.fixed.size()) + " missing, " +
         std::to_string(d.introduced.size()) + " extra";
}

// ---------------------------------------------------------------------------
// Inputs: seeded generation, written as files the program reads back.
// ---------------------------------------------------------------------------

struct inputs {
  workload::generated gen;
  std::string gds, deck, snap, report_path;
  std::uint64_t gds_bytes = 0;
  std::uint64_t snap_bytes = 0;
  std::vector<rules::rule> rules;  // the benchmark's own parse, for the site gate
};

void write_inputs(inputs& in, const workload_def& w, std::uint64_t seed, const std::string& dir) {
  workload::design_spec spec = workload::spec_for(w.design, w.scale);
  spec.seed = seed;
  spec.inject = {2, 2, 2, 2};
  in.gen = workload::generate(spec);
  in.gds = dir + "/layout.gds";
  in.deck = dir + "/rules.deck";
  in.snap = dir + "/layout.snap";
  in.report_path = dir + "/report.txt";
  gdsii::write(in.gen.lib, in.gds);
  std::ofstream(in.deck) << deck_text;
  in.gds_bytes = std::filesystem::file_size(in.gds);
  in.rules = rules::parse_deck(std::string(deck_text));
}

// Every injected site whose rule is in the deck must be covered by a
// violation of that rule.
std::vector<std::string> site_problems(const inputs& in, const engine::deck_report& dr) {
  std::vector<std::string> out;
  for (const workload::site& s : in.gen.sites) {
    bool has_rule = false, covered = false;
    for (std::size_t i = 0; i < in.rules.size() && !covered; ++i) {
      const rules::rule& r = in.rules[i];
      if (r.kind != s.kind || r.layer1 != s.layer1) continue;
      if (s.kind == checks::rule_kind::enclosure && r.layer2 != s.layer2) continue;
      has_rule = true;
      for (const checks::violation& v : dr.per_rule[i].violations) {
        if (report::marker_box(v).overlaps(s.marker)) {
          covered = true;
          break;
        }
      }
    }
    if (has_rule && !covered) {
      out.push_back("injected " + std::string(checks::rule_kind_name(s.kind)) + " site on layer " +
                    std::to_string(s.layer1) + " not reported");
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Batch pass: what `odrc check <gds> <deck> --mode=M --report=F` does.
// ---------------------------------------------------------------------------

struct pass_result {
  double total_s = 0, read_s = 0, parse_s = 0, report_s = 0;
  double index_s = -1;  // layout_snapshot constructor, traced runs only
  engine::check_report total;
  double rules_edge_check_s = 0;  // edge_check carried by the per-rule reports
  std::vector<std::string> keys;
  std::vector<std::string> problems;
};

pass_result run_pass(const inputs& in, engine::mode m, std::int64_t op, bool traced) {
  pass_result pr;
  trace::span ts("bench", m == engine::mode::sequential ? "seq.pass" : "par.pass", "op", op);
  const clk::time_point t0 = clk::now();
  db::library lib;
  {
    trace::span s("bench", "gdsii.read", "op", op);
    lib = gdsii::read(in.gds);
  }
  const clk::time_point t1 = clk::now();
  std::vector<rules::rule> deck;
  {
    trace::span s("bench", "deck.parse", "op", op);
    deck = rules::parse_deck_file(in.deck);
  }
  const clk::time_point t2 = clk::now();
  engine::engine_config cfg;
  cfg.run_mode = m;
  drc_engine eng(cfg);
  eng.add_rules(deck);
  engine::deck_report dr = eng.check_deck(lib);
  const clk::time_point t3 = clk::now();
  report::violation_db db(lib.name());
  {
    trace::span s("bench", "report", "op", op);
    for (std::size_t i = 0; i < deck.size(); ++i) db.add(deck[i].name, dr.per_rule[i].violations);
    std::ofstream out(in.report_path);
    db.write_text(out);
  }
  const clk::time_point t4 = clk::now();
  pr.read_s = ms_between(t0, t1) / 1e3;
  pr.parse_s = ms_between(t1, t2) / 1e3;
  pr.report_s = ms_between(t3, t4) / 1e3;
  pr.total_s = ms_between(t0, t4) / 1e3;

  if (traced) {
    trace::span s("bench", "snapshot.index", "op", op);
    const clk::time_point a = clk::now();
    const engine::layout_snapshot snap(lib);
    pr.index_s = ms_between(a, clk::now()) / 1e3;
  }
  for (const engine::check_report& r : dr.per_rule) {
    const auto ph = r.phases.phases();
    if (auto it = ph.find("edge_check"); it != ph.end()) pr.rules_edge_check_s += it->second;
  }
  pr.keys = db.keys();
  pr.problems = site_problems(in, dr);
  pr.total = std::move(dr.total);
  return pr;
}

// ---------------------------------------------------------------------------
// Serving side: an in-process server or a 2-shard coordinator, booted from
// the .snap file.
// ---------------------------------------------------------------------------

struct fleet {
  std::vector<std::unique_ptr<serve::session_manager>> managers;
  std::vector<std::unique_ptr<serve::server>> servers;
  std::unique_ptr<serve::coordinator> coord;
  std::string endpoint;
  double boot_ms = 0;  // mean over the shards

  fleet(const inputs& in, bool cluster, const std::string& dir) {
    const std::size_t n = cluster ? 2 : 1;
    std::vector<rect> bands;
    for (std::size_t i = 0; i < n; ++i) {
      const clk::time_point t0 = clk::now();
      std::shared_ptr<const engine::frozen_snapshot> fs = engine::frozen_snapshot::load(in.snap);
      db::library lib = fs->make_library();
      boot_ms += ms_between(t0, clk::now()) / static_cast<double>(n);
      if (cluster && i == 0) bands = engine::plan_shards(lib, n);
      managers.push_back(std::make_unique<serve::session_manager>());
      managers.back()->create_frozen(std::move(fs), std::move(lib),
                                     rules::parse_deck_file(in.deck));
      serve::server_config sc;
      sc.socket_path = dir + "/w" + std::to_string(i) + ".sock";
      std::filesystem::remove(sc.socket_path);
      servers.push_back(std::make_unique<serve::server>(sc, *managers.back()));
      servers.back()->start();
    }
    if (!cluster) {
      endpoint = servers.front()->bound_endpoint();
      return;
    }
    if (bands.size() != n) throw std::runtime_error("layout yields fewer than 2 shard bands");
    serve::coord_config cc;
    cc.listen.socket_path = dir + "/coord.sock";
    std::filesystem::remove(cc.listen.socket_path);
    for (const auto& s : servers) cc.worker_endpoints.push_back(s->bound_endpoint());
    cc.bands = bands;
    coord = std::make_unique<serve::coordinator>(std::move(cc));
    coord->start();
    endpoint = coord->bound_endpoint();
  }

  ~fleet() {
    if (coord) {
      coord->stop();
      coord->wait();
    }
    for (auto& s : servers) {
      s->stop();
      s->wait();
    }
  }

  fleet(const fleet&) = delete;
  fleet& operator=(const fleet&) = delete;

  // Slowest session's compute for the last recheck / full check (ms).
  [[nodiscard]] double session_ms(bool recheck) const {
    double worst = 0;
    for (const auto& m : managers) {
      const serve::session_stats st = m->get(1)->stats();
      worst = std::max(worst, 1e3 * (recheck ? st.last_recheck_seconds : st.last_check_seconds));
    }
    return worst;
  }

  [[nodiscard]] std::uint64_t legs_shed() const {
    std::uint64_t shed = 0;
    if (coord) {
      for (const serve::worker_link_stats& w : coord->worker_stats()) shed += w.shed;
    }
    return shed;
  }
};

// The second connection: subscribed to the session's deltas, it records
// each pushed frame's arrival time on its own thread.
class subscriber {
 public:
  struct arrival {
    clk::time_point at;
    std::uint64_t seq = 0;
    bool gap = false;
    bool parsed = false;
    std::size_t fixed = 0, introduced = 0;
  };

  explicit subscriber(const std::string& endpoint) {
    cli_.connect(endpoint);
    const serve::frame r = cli_.request(serve::msg_type::subscribe, 0);
    if (!serve::client::ok(r)) {
      throw std::runtime_error("subscribe: " + serve::client::status_line(r));
    }
    thread_ = std::thread([this] { run(); });
  }

  ~subscriber() {
    stop_.store(true);
    thread_.join();
  }

  subscriber(const subscriber&) = delete;
  subscriber& operator=(const subscriber&) = delete;

  /// Block until `n` frames arrived in total or `timeout_ms` passed; returns
  /// all arrivals so far.
  std::vector<arrival> wait_for(std::size_t n, int timeout_ms) {
    std::unique_lock lk(mu_);
    cv_.wait_for(lk, std::chrono::milliseconds(timeout_ms),
                 [&] { return arrivals_.size() >= n || closed_; });
    return arrivals_;
  }

 private:
  void run() {
    while (!stop_.load()) {
      const clk::time_point t0 = clk::now();
      std::optional<serve::frame> f;
      try {
        f = cli_.wait_push(20);
      } catch (const std::exception&) {
        // A malformed stream: stop reading; the delta gate reports the
        // frames that never arrived.
        close();
        return;
      }
      if (!f) {
        if (ms_between(t0, clk::now()) < 10) {  // returned early: connection gone
          close();
          return;
        }
        continue;
      }
      arrival a;
      a.at = clk::now();
      if (const std::optional<serve::delta_frame> d = serve::parse_delta(*f)) {
        a.parsed = true;
        a.seq = d->seq;
        a.gap = d->gap;
        a.fixed = d->fixed.size();
        a.introduced = d->introduced.size();
      }
      std::lock_guard lk(mu_);
      arrivals_.push_back(a);
      cv_.notify_all();
    }
  }

  void close() {
    std::lock_guard lk(mu_);
    closed_ = true;
    cv_.notify_all();
  }

  serve::client cli_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<arrival> arrivals_;
  bool closed_ = false;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: started after everything it touches exists
};

// ---------------------------------------------------------------------------
// Seeded edit mix. Each pair is an edit and its exact undo.
// ---------------------------------------------------------------------------

enum class edit_kind { wire, inst, master };
constexpr const char* edit_kind_name[] = {"wire", "inst", "master"};

struct edit_pair {
  edit_kind kind;
  std::string apply, undo;
};

class edit_mix {
 public:
  edit_mix(const db::library& lib, std::uint64_t seed) : rng_(seed ^ 0x5EED5EEDull) {
    const db::cell& top = lib.at(lib.top_cells().front());
    top_ = top.name();
    std::uint32_t m2 = 0;
    for (const db::polygon_elem& p : top.polygons()) {
      if (p.layer != workload::layers::M2) continue;
      if (p.poly.mbr().y_min >= 0) wires_.push_back(m2);  // routing, not injected sites
      ++m2;
    }
    // Placements live in the AREF'd block cell when the design has one.
    const std::optional<db::cell_id> block = lib.find(lib.name() + "_block");
    const db::cell& holder = lib.at(block ? *block : lib.top_cells().front());
    holder_ = holder.name();
    inst_count_ = holder.refs().size();
    // One fixed master keeps the master-edit latency a narrow cluster, so
    // p90 does not depend on which master the RNG happened to pick.
    if (const std::optional<db::cell_id> m = lib.find(master_name)) {
      for (const db::polygon_elem& p : lib.at(*m).polygons()) master_m1_ += p.layer == workload::layers::M1;
    }
    if (wires_.empty() || inst_count_ == 0 || master_m1_ == 0) {
      throw std::runtime_error("layout has no edit targets");
    }
  }

  edit_pair next() {
    // Kinds come from a shuffled block with the exact mix, so every run sees
    // the same proportions and p50/p90 stay inside their groups.
    if (kinds_.empty()) {
      kinds_.insert(kinds_.end(), wire_per_block, edit_kind::wire);
      kinds_.insert(kinds_.end(), inst_per_block, edit_kind::inst);
      kinds_.insert(kinds_.end(), master_per_block, edit_kind::master);
      std::shuffle(kinds_.begin(), kinds_.end(), rng_);
    }
    const edit_kind kind = kinds_.back();
    kinds_.pop_back();
    const int sign = pick(2) == 0 ? -1 : 1;
    std::ostringstream a, b;
    edit_pair e{};
    if (kind == edit_kind::wire) {
      // Nudge one routed M2 wire off its track: spacing and via enclosure
      // change in a small window.
      e.kind = edit_kind::wire;
      const std::uint32_t idx = wires_[pick(wires_.size())];
      const int dy = sign * (4 + 2 * static_cast<int>(pick(3)));
      a << "move_poly " << top_ << ' ' << workload::layers::M2 << ' ' << idx << " 0 " << dy;
      b << "move_poly " << top_ << ' ' << workload::layers::M2 << ' ' << idx << " 0 " << -dy;
    } else if (kind == edit_kind::inst) {
      // Move one placed cell sideways inside the (arrayed) block.
      e.kind = edit_kind::inst;
      const std::size_t idx = pick(inst_count_);
      const int dx = sign * 9 * (1 + static_cast<int>(pick(3)));
      a << "move_inst " << holder_ << ' ' << idx << ' ' << dx << " 0";
      b << "move_inst " << holder_ << ' ' << idx << ' ' << -dx << " 0";
    } else {
      // Shift one M1 finger of a standard-cell master: every placement of
      // the master is dirty.
      e.kind = edit_kind::master;
      const std::uint32_t idx = static_cast<std::uint32_t>(pick(master_m1_));
      const int dx = sign * 4;
      a << "move_poly " << master_name << ' ' << workload::layers::M1 << ' ' << idx << ' ' << dx
        << " 0";
      b << "move_poly " << master_name << ' ' << workload::layers::M1 << ' ' << idx << ' ' << -dx
        << " 0";
    }
    e.apply = a.str() + "\n";
    e.undo = b.str() + "\n";
    return e;
  }

  rect random_window(const rect& die) {
    const coord_t w = std::max<coord_t>(1, die.x_max - die.x_min - query_side);
    const coord_t h = std::max<coord_t>(1, die.y_max - die.y_min - query_side);
    const coord_t x = die.x_min + static_cast<coord_t>(pick(static_cast<std::size_t>(w)));
    const coord_t y = die.y_min + static_cast<coord_t>(pick(static_cast<std::size_t>(h)));
    return {x, y, static_cast<coord_t>(x + query_side), static_cast<coord_t>(y + query_side)};
  }

  // 40% / 30% / 30% of edits: p50 sits inside the wire/instance group and
  // p90 inside the master-edit group (README.md).
  static constexpr std::size_t wire_per_block = 4;
  static constexpr std::size_t inst_per_block = 3;
  static constexpr std::size_t master_per_block = 3;
  static constexpr const char* master_name = "FILLERx1";  // the most-placed master

 private:
  std::size_t pick(std::size_t n) { return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_); }

  std::mt19937_64 rng_;
  std::string top_, holder_;
  std::vector<std::uint32_t> wires_;
  std::size_t inst_count_ = 0;
  std::uint32_t master_m1_ = 0;
  std::vector<edit_kind> kinds_;
};

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

// Named sample lists of one measured half (untraced or traced).
struct samples {
  std::map<std::string, std::vector<double>> v;
  std::map<std::string, double> last;  // exact work counters of the latest pass
  perfbench::self_table selfs;

  void add(const std::string& k, double x) { v[k].push_back(x); }
  [[nodiscard]] const std::vector<double>& get(const std::string& k) const {
    static const std::vector<double> none;
    auto it = v.find(k);
    return it == v.end() ? none : it->second;
  }
  [[nodiscard]] double q(const std::string& k, double p) const { return quantile(get(k), p); }
  [[nodiscard]] std::size_t n(const std::string& k) const { return get(k).size(); }
};

// One publish the subscriber must see: the send time of the operation that
// caused it, and the diff sizes the response reported (-1: not reported).
struct publish {
  clk::time_point sent;
  long fixed = -1, introduced = -1;
  bool timed = false;  // counts toward push latency
  samples* half = nullptr;
};

struct run_state {
  const workload_def& w;
  inputs& in;
  fleet& fl;
  serve::client& editor;
  edit_mix& mix;
  rect die;
  std::vector<std::string> baseline;  // key set of a fresh full check
  std::vector<publish> publishes{};
  gate_log gate{};
  std::int64_t next_op = 1;
  std::size_t undos = 0;
  bool batch_keys_checked = false;
  std::vector<std::string> batch_reference{};
  std::map<std::string, std::string> trace_files{};  // kind -> written Chrome JSON
  std::string out_dir;
};

// Runs `body` with the recorder on when `traced`, then folds the recorded
// spans into `h` and returns them.
std::vector<span_rec> traced_op(run_state& st, samples& h, bool traced, const char* kind,
                                const std::function<void()>& body) {
  if (!traced) {
    body();
    return {};
  }
  trace::recorder& rec = trace::recorder::instance();
  rec.enable();
  body();
  rec.disable();
  std::vector<span_rec> spans = perfbench::build_spans(rec.snapshot());
  h.selfs.add(spans);
  if (!st.trace_files.contains(kind)) {
    const std::string path = st.out_dir + "/trace-" + st.w.name + "-" + kind + ".json";
    std::ofstream out(path);
    rec.write_chrome_json(out);
    st.trace_files[kind] = path;
  }
  return spans;
}

void batch_pass(run_state& st, samples& h, engine::mode m, bool traced) {
  const bool seq = m == engine::mode::sequential;
  const std::string p = seq ? "seq." : "par.";
  const std::int64_t op = st.next_op++;
  pass_result r;
  const std::vector<span_rec> spans =
      traced_op(st, h, traced, seq ? "seq" : "par", [&] { r = run_pass(st.in, m, op, traced); });

  std::vector<std::string> problems = r.problems;
  if (st.batch_reference.empty()) {
    st.batch_reference = r.keys;
  } else if (std::string pr = key_set_problem(r.keys, st.batch_reference); !pr.empty()) {
    problems.push_back(pr);
  }
  if (!st.batch_keys_checked) {
    st.batch_keys_checked = true;
    if (std::string pr = key_set_problem(r.keys, st.baseline); !pr.empty()) {
      problems.push_back("vs serve session: " + pr);
    }
  }
  st.gate.record(p + "pass", problems);

  h.add(p + "check_s", r.total_s);
  h.add(p + "read_s", r.read_s);
  h.add(p + "parse_s", r.parse_s);
  h.add(p + "report_s", r.report_s);
  if (r.index_s >= 0) h.add("index_s", r.index_s);
  const auto ph = r.total.phases.phases();
  const auto phase = [&](const char* name) {
    auto it = ph.find(name);
    return it == ph.end() ? 0.0 : it->second;
  };
  for (const char* name : {"partition", "sweepline", "edge_check", "pack", "device", "boolean"}) {
    h.add(p + name + "_s", phase(name));
  }
  h.add(p + "containment_s", phase("edge_check") - r.rules_edge_check_s);

  const engine::check_report& t = r.total;
  if (seq) {
    h.last["seq.edge_pairs_tested"] = static_cast<double>(t.check_stats.edge_pairs_tested);
    h.last["sweep.candidate_pairs"] = static_cast<double>(t.sweep_stats.pairs_reported);
    const auto frac = [](std::uint64_t reused, std::uint64_t computed) {
      return reused + computed == 0 ? 0.0
                                    : static_cast<double>(reused) /
                                          static_cast<double>(reused + computed);
    };
    h.last["prune.intra_reuse_frac"] = frac(t.prune.intra_reused, t.prune.intra_computed);
    h.last["prune.pair_reuse_frac"] = frac(t.prune.pairs_reused, t.prune.pairs_computed);
    h.last["prune.pairs_pruned_mbr"] = static_cast<double>(t.prune.pairs_pruned_mbr);
    h.last["partition.rows"] = static_cast<double>(t.rows);
    h.last["partition.clips"] = static_cast<double>(t.clips);
    h.last["engine.check_objects"] = static_cast<double>(t.instances);
  } else {
    const sweep::device_check_stats& d = t.device_stats;
    h.last["par.edge_pairs_tested"] =
        static_cast<double>(d.edge_pairs_tested + t.check_stats.edge_pairs_tested);
    h.last["par.edges_uploaded"] = static_cast<double>(d.edges_uploaded);
    h.last["par.bytes_h2d"] =
        static_cast<double>(d.edges_uploaded * sizeof(sweep::packed_edge));
    h.last["par.kernel_launches"] = static_cast<double>(d.sweep_launches + d.brute_launches);
    h.last["par.overflow_retries"] = static_cast<double>(d.overflow_retries);
  }

  if (!traced) return;
  // Rule-class split from the engine's spans under this pass (inclusive
  // time on the calling thread's track); global = check_deck minus the groups.
  double spacing = 0, enclosure = 0, intra = 0, deck = 0, two_layer_self = 0;
  for (const span_rec& s : spans) {
    if (s.key == "engine:run_pair_group") {
      (s.arg0 == s.arg1 ? spacing : enclosure) += s.ms();
      if (s.arg0 != s.arg1) two_layer_self += s.self_ms();
    } else if (s.key == "engine:run_intra_plan") {
      intra += s.ms();
    } else if (s.key == "engine:check_deck") {
      deck += s.ms();
    }
  }
  h.add(p + "spacing_s", spacing / 1e3);
  h.add(p + "enclosure_s", enclosure / 1e3);
  h.add(p + "intra_s", intra / 1e3);
  h.add(p + "global_s", (deck - spacing - enclosure - intra) / 1e3);
  if (!seq) {
    h.add("par.containment_span_s", two_layer_self / 1e3);
    h.add("par.stream_busy_frac", perfbench::union_busy_ms(spans, "stream") / (r.total_s * 1e3));
  }
}

serve::frame request(run_state& st, serve::msg_type t, const std::string& payload,
                     const char* span_name, std::int64_t op) {
  trace::span s("bench", span_name, "op", op);
  return st.editor.request(t, 0, payload);
}

// One edit -> recheck -> queries cycle; undo cycles also run the stored-set
// gate and, every few undos, a timed full check.
void serve_cycle(run_state& st, samples& h, const std::string& script, edit_kind kind, bool undo,
                 bool traced) {
  const std::int64_t op = st.next_op++;
  const std::string p = edit_kind_name[static_cast<int>(kind)];
  const std::vector<span_rec> spans = traced_op(st, h, traced, "serve", [&] {
    trace::span cyc("bench", "serve.cycle", "op", op);
    const clk::time_point t0 = clk::now();
    const serve::frame e = request(st, serve::msg_type::edit, script, "serve.edit", op);
    const clk::time_point t1 = clk::now();
    st.gate.record("edit", serve::client::ok(e) ? std::vector<std::string>{}
                                               : std::vector<std::string>{serve::client::status_line(e)});
    const serve::frame r = request(st, serve::msg_type::recheck, "", "serve.recheck", op);
    const clk::time_point t2 = clk::now();
    const std::string line = serve::client::status_line(r);
    st.gate.record("recheck", serve::client::ok(r) ? std::vector<std::string>{}
                                                  : std::vector<std::string>{line});
    const double compute = st.fl.session_ms(true);
    h.add("edit_rtt_ms", ms_between(t0, t1));
    h.add("recheck_rtt_ms", ms_between(t1, t2));
    h.add("edit_recheck_ms", ms_between(t0, t2));
    h.add("recheck." + p + "_ms", ms_between(t0, t2));
    h.add("session.recheck_ms", compute);
    h.add("overhead_ms", ms_between(t1, t2) - compute);
    h.add("recheck.windows", static_cast<double>(status_field(line, "windows")));
    h.add("recheck.purged", static_cast<double>(status_field(line, "purged")));
    h.add("recheck.inserted", static_cast<double>(status_field(line, "inserted")));
    st.publishes.push_back({t0, static_cast<long>(status_field(line, "fixed")),
                            static_cast<long>(status_field(line, "new")), true, &h});

    for (int k = 0; k < queries_per_cycle; ++k) {
      const rect q = st.mix.random_window(st.die);
      std::ostringstream os;
      os << q.x_min << ' ' << q.y_min << ' ' << q.x_max << ' ' << q.y_max;
      const clk::time_point a = clk::now();
      const serve::frame qr = request(st, serve::msg_type::query, os.str(), "serve.query", op);
      h.add("query_ms", ms_between(a, clk::now()));
      st.gate.record("query", serve::client::ok(qr) ? std::vector<std::string>{}
                                                   : std::vector<std::string>{serve::client::status_line(qr)});
    }
    if (!undo) return;

    // The layout is back to its generated state: the stored key set must
    // equal a fresh full check of it.
    const serve::frame all = request(st, serve::msg_type::query,
                                     "-1000000000 -1000000000 1000000000 1000000000 keys",
                                     "serve.query_all", op);
    std::vector<std::string> problems;
    if (!serve::client::ok(all)) {
      problems.push_back(serve::client::status_line(all));
    } else if (std::string pr = key_set_problem(tagged_lines(all.payload, "v"), st.baseline);
               !pr.empty()) {
      problems.push_back("stored set after undo: " + pr);
    }
    st.gate.record("query_all", problems);
    if (++st.undos % check_every_undos != 0) return;
    const clk::time_point a = clk::now();
    const serve::frame c = request(st, serve::msg_type::check, "keys", "serve.check", op);
    h.add("full_check_ms", ms_between(a, clk::now()));
    h.add("session.check_ms", st.fl.session_ms(false));
    problems.clear();
    if (!serve::client::ok(c)) {
      problems.push_back(serve::client::status_line(c));
    } else if (std::string pr = key_set_problem(tagged_lines(c.payload, "v"), st.baseline);
               !pr.empty()) {
      problems.push_back(pr);
    }
    st.gate.record("check", problems);
    st.publishes.push_back({a, -1, -1, false, &h});
  });
  if (!traced) return;

  // Recheck split from the sessions' spans: pair / intra plan groups, and
  // the global plans as the rest of their check_deck_plans calls.
  double pair = 0, intra = 0, deck = 0, scatter = 0;
  std::size_t scatters = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const span_rec& s = spans[i];
    if (s.key == "coord:scatter" && s.arg0 == static_cast<std::int64_t>(serve::msg_type::recheck)) {
      scatter += s.ms();
      ++scatters;
    }
    if (!perfbench::has_ancestor(spans, i, "serve:recheck")) continue;
    if (s.key == "engine:run_pair_group") pair += s.ms();
    if (s.key == "engine:run_intra_plan") intra += s.ms();
    if (s.key == "engine:check_deck_plans") deck += s.ms();
  }
  // Per shard, so the split compares with session.recheck_ms.
  const double shards = static_cast<double>(st.fl.managers.size());
  h.add("recheck.pair_ms", pair / shards);
  h.add("recheck.intra_ms", intra / shards);
  h.add("recheck.global_ms", (deck - pair - intra) / shards);
  if (scatters > 0) h.add("coord.scatter_ms", scatter / static_cast<double>(scatters));
}

// Host-speed probe: a fixed job that touches none of the engine's code
// (xorshift fill, sort, ordered-map inserts over 512 KiB; about 6 ms). The
// shared host's speed drifts by tens of percent over minutes, the same for
// every metric at once; end-to-end times are scaled by probe_ref_ms over this
// run's median probe, so runs made at different host speeds compare.
double probe_ms() {
  static std::vector<std::uint64_t> buf(1 << 16);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const clk::time_point t0 = clk::now();
  for (std::uint64_t& v : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = x;
  }
  std::sort(buf.begin(), buf.end());
  std::map<std::uint64_t, std::uint32_t> m;
  for (std::size_t i = 0; i < 4096; ++i) ++m[buf[(i * 7919) % buf.size()] >> 20];
  return ms_between(t0, clk::now());
}

// Interleave seq passes, par passes and serve cycle pairs for `seconds`,
// always running the kind furthest behind its share of the time spent so
// far. Machine speed drifts over seconds; spreading every kind's samples
// evenly over the run keeps its median from riding one slow stretch.
void measure(run_state& st, samples& h, double seconds, bool traced) {
  const double share[3] = {st.w.seq_share, st.w.par_share,
                           1.0 - st.w.seq_share - st.w.par_share};
  double spent[3] = {0, 0, 0};  // ms: seq, par, serve
  std::size_t done[3] = {0, 0, 0};
  const clk::time_point start = clk::now();
  clk::time_point last_probe{};  // probe on the first iteration
  for (;;) {
    if (ms_between(last_probe, clk::now()) >= probe_every_ms) {
      h.add("probe_ms", probe_ms());
      last_probe = clk::now();
    }
    const bool enough = done[0] >= 3 && done[1] >= 3 && done[2] >= 10;
    if (enough && ms_between(start, clk::now()) >= seconds * 1e3) break;
    const double total = spent[0] + spent[1] + spent[2];
    int kind = 0;
    for (int k = 1; k < 3; ++k) {
      if (share[k] * total - spent[k] > share[kind] * total - spent[kind]) kind = k;
    }
    const clk::time_point t0 = clk::now();
    if (kind < 2) {
      batch_pass(st, h, kind == 0 ? engine::mode::sequential : engine::mode::parallel, traced);
    } else {
      const edit_pair e = st.mix.next();
      serve_cycle(st, h, e.apply, e.kind, false, traced);
      serve_cycle(st, h, e.undo, e.kind, true, traced);
    }
    spent[kind] += ms_between(t0, clk::now());
    ++done[kind];
  }
}

// A seq pass, a par pass and two serve cycle pairs, untimed: the first par
// pass and the first rechecks through a fresh coordinator run far above
// their later medians.
void warm_up(run_state& st, samples& h) {
  batch_pass(st, h, engine::mode::sequential, false);
  batch_pass(st, h, engine::mode::parallel, false);
  for (int k = 0; k < 2; ++k) {
    const edit_pair e = st.mix.next();
    serve_cycle(st, h, e.apply, e.kind, false, false);
    serve_cycle(st, h, e.undo, e.kind, true, false);
  }
}

// ---------------------------------------------------------------------------
// Set-up: generation, files, .snap build, boot, server start, subscribe,
// first full check.
// ---------------------------------------------------------------------------

struct setup_result {
  std::unique_ptr<fleet> fl;
  std::unique_ptr<serve::client> editor;
  std::unique_ptr<subscriber> sub;
  std::vector<std::string> baseline;
  double setup_s = 0, build_s = 0, boot_ms = 0, first_check_ms = 0;

  /// Clients first, then the servers they talk to.
  void tear_down() {
    sub.reset();
    editor.reset();
    fl.reset();
  }
};

setup_result set_up(inputs& in, const workload_def& w, std::uint64_t seed, const std::string& dir) {
  setup_result s;
  const clk::time_point t0 = clk::now();
  write_inputs(in, w, seed, dir);
  {
    const clk::time_point a = clk::now();
    const db::library lib = gdsii::read(in.gds);
    in.snap_bytes = engine::build_snapshot_file(lib, in.snap).file_bytes;
    s.build_s = ms_between(a, clk::now()) / 1e3;
  }
  s.fl = std::make_unique<fleet>(in, w.cluster, dir);
  s.boot_ms = s.fl->boot_ms;
  s.editor = std::make_unique<serve::client>();
  s.editor->connect(s.fl->endpoint);
  s.sub = std::make_unique<subscriber>(s.fl->endpoint);
  const clk::time_point c0 = clk::now();
  const serve::frame c = s.editor->request(serve::msg_type::check, 0, "keys");
  s.first_check_ms = ms_between(c0, clk::now());
  if (!serve::client::ok(c)) throw std::runtime_error("first check: " + c.payload);
  s.baseline = tagged_lines(c.payload, "v");
  s.setup_s = ms_between(t0, clk::now()) / 1e3;
  return s;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct metric_out {
  double value = 0;
  std::string unit;
  std::size_t n = 0;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string odrc_env() {
  std::string out;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "ODRC_", 5) != 0) continue;
    if (!out.empty()) out += ' ';
    out += *e;
  }
  return out;
}

struct args {
  std::string workload, out = ".bench_out";
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

args parse_args(int argc, char** argv) {
  args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--out") {
      a.out = v;
    } else {
      throw std::runtime_error("unknown option " + k);
    }
  }
  return a;
}

int run(const args& a) {
  const workload_def* wp = nullptr;
  for (const workload_def& w : workloads) {
    if (a.workload == w.name) wp = &w;
  }
  if (wp == nullptr) throw std::runtime_error("unknown workload '" + a.workload + "'");
  const workload_def& w = *wp;
  const std::string dir = a.out + "/" + w.name + "-" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);

  // Set up several times; the last set-up stays up for the measurement.
  inputs in;
  std::vector<double> setup_s, build_s, boot_ms, first_ms;
  setup_result su;
  for (int k = 0; k < setup_repeats; ++k) {
    su.tear_down();
    su = set_up(in, w, a.seed, dir);
    setup_s.push_back(su.setup_s);
    build_s.push_back(su.build_s);
    boot_ms.push_back(su.boot_ms);
    first_ms.push_back(su.first_check_ms);
  }

  edit_mix mix(in.gen.lib, a.seed);
  const rect die{0, 0, static_cast<coord_t>(in.gen.spec.cols * workload::tech::cpp),
                 static_cast<coord_t>(in.gen.spec.rows * workload::tech::cell_height)};
  run_state st{.w = w,
               .in = in,
               .fl = *su.fl,
               .editor = *su.editor,
               .mix = mix,
               .die = die,
               .baseline = su.baseline,
               .out_dir = dir};

  samples warm, plain, traced;  // `warm` outlives the delta gate, which fills it too
  warm_up(st, warm);
  measure(st, plain, a.seconds * (a.trace ? 0.5 : 1.0), false);
  if (a.trace) measure(st, traced, a.seconds * 0.5, true);

  // Delta gate: one frame per publish, consecutive sequence numbers, no gap
  // marker, and the same diff sizes the recheck responses reported.
  const std::size_t expected = 1 + st.publishes.size();  // +1: the set-up check
  std::vector<subscriber::arrival> got = su.sub->wait_for(expected, 5000);
  std::size_t gaps = 0;
  {
    std::vector<std::string> problems;
    if (got.size() != expected) {
      problems.push_back("received " + std::to_string(got.size()) + " delta frames, expected " +
                         std::to_string(expected));
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (!got[i].parsed) problems.push_back("unparsable delta frame");
      if (got[i].gap) ++gaps;
      if (i > 0 && got[i].seq != got[i - 1].seq + 1) ++gaps;
    }
    if (gaps > 0) problems.push_back(std::to_string(gaps) + " delta gaps");
    for (std::size_t i = 0; i + 1 < got.size() && i < st.publishes.size(); ++i) {
      const publish& p = st.publishes[i];
      const subscriber::arrival& d = got[i + 1];
      if (p.fixed >= 0 && (static_cast<long>(d.fixed) != p.fixed ||
                           static_cast<long>(d.introduced) != p.introduced)) {
        problems.push_back("delta " + std::to_string(d.seq) + " disagrees with its recheck");
      }
      if (p.timed) p.half->add("push_ms", ms_between(p.sent, d.at));
    }
    st.gate.record("deltas", problems);
  }

  // Server-side subscription counters, read after the loop.
  const serve::frame stats = su.editor->request(serve::msg_type::stats, 0);
  const double delivered = static_cast<double>(status_field(stats.payload, "subs_delivered"));
  const double dropped = static_cast<double>(status_field(stats.payload, "subs_dropped"));
  const double shed = static_cast<double>(su.fl->legs_shed());
  const double rss = peak_rss_mb();

  std::map<std::string, metric_out> m;
  const auto put = [&](const std::string& name, double value, const char* unit, std::size_t n) {
    m[name] = {value, unit, n};
  };
  const samples& e = plain;
  // --- end-to-end (always from the untraced half), times at reference host speed
  const double probe = e.q("probe_ms", 0.5);
  const double speed = probe_ref_ms / probe;
  put("seq.check_s", speed * e.q("seq.check_s", 0.5), "s", e.n("seq.check_s"));
  put("par.check_s", speed * e.q("par.check_s", 0.5), "s", e.n("par.check_s"));
  put("edit_recheck_p50_ms", speed * e.q("edit_recheck_ms", 0.5), "ms", e.n("edit_recheck_ms"));
  put("edit_recheck_p90_ms", speed * e.q("edit_recheck_ms", 0.9), "ms", e.n("edit_recheck_ms"));
  put("push_p90_ms", speed * e.q("push_ms", 0.9), "ms", e.n("push_ms"));
  put("query_p50_ms", speed * e.q("query_ms", 0.5), "ms", e.n("query_ms"));
  put("full_check_ms", speed * e.q("full_check_ms", 0.5), "ms", e.n("full_check_ms"));
  put("setup_s", speed * quantile(setup_s, 0.5), "s", setup_s.size());
  put("peak_rss_mb", rss, "MB", 1);
  put("failed_frac",
      st.gate.attempted == 0 ? 0 : static_cast<double>(st.gate.failed) /
                                       static_cast<double>(st.gate.attempted),
      "frac", st.gate.attempted);

  // --- per layer (traced runs): work counters and phase times from the
  // untraced half, span-derived splits from the traced half; times as
  // measured, not scaled.
  if (a.trace) {
    const samples& t = traced;
    put("host.probe_ms", probe, "ms", e.n("probe_ms"));
    put("gdsii.read_s", e.q("seq.read_s", 0.5), "s", e.n("seq.read_s"));
    put("gdsii.file_mb", static_cast<double>(in.gds_bytes) / 1e6, "MB", 1);
    put("deck.parse_s", e.q("seq.parse_s", 0.5), "s", e.n("seq.parse_s"));
    put("report.write_s", e.q("seq.report_s", 0.5), "s", e.n("seq.report_s"));
    put("snapshot.index_s", t.q("index_s", 0.5), "s", t.n("index_s"));
    for (const char* mode : {"seq.", "par."}) {
      for (const char* ph : {"partition_s", "boolean_s"}) {
        const std::string k = std::string(mode) + ph;
        put(k, e.q(k, 0.5), "s", e.n(k));
      }
      for (const char* cls : {"spacing_s", "enclosure_s", "intra_s", "global_s"}) {
        const std::string k = std::string(mode) + cls;
        put(k, t.q(k, 0.5), "s", t.n(k));
      }
    }
    for (const char* k : {"seq.sweepline_s", "seq.edge_check_s", "par.pack_s", "par.device_s",
                          "par.containment_s"}) {
      put(k, e.q(k, 0.5), "s", e.n(k));
    }
    put("par.containment_span_s", t.q("par.containment_span_s", 0.5), "s",
        t.n("par.containment_span_s"));
    put("par.stream_busy_frac", t.q("par.stream_busy_frac", 0.5), "frac",
        t.n("par.stream_busy_frac"));
    for (const auto& [k, v] : e.last) {
      const bool frac = k.find("_frac") != std::string::npos;
      const bool bytes = k == "par.bytes_h2d";
      put(k, v, frac ? "frac" : bytes ? "B" : "count", 1);
    }
    put("snapshot_store.build_s", quantile(build_s, 0.5), "s", build_s.size());
    put("snapshot_store.file_mb", static_cast<double>(in.snap_bytes) / 1e6, "MB", 1);
    put("snapshot_store.boot_ms", quantile(boot_ms, 0.5), "ms", boot_ms.size());
    put("session.first_check_ms", quantile(first_ms, 0.5), "ms", first_ms.size());
    put("serve.edit_rtt_ms", e.q("edit_rtt_ms", 0.5), "ms", e.n("edit_rtt_ms"));
    put("serve.recheck_rtt_ms", e.q("recheck_rtt_ms", 0.5), "ms", e.n("recheck_rtt_ms"));
    put("session.recheck_ms", e.q("session.recheck_ms", 0.5), "ms", e.n("session.recheck_ms"));
    put("serve.overhead_ms", e.q("overhead_ms", 0.5), "ms", e.n("overhead_ms"));
    for (const char* k : {"wire", "inst", "master"}) {
      const std::string key = std::string("recheck.") + k + "_ms";
      put(std::string("recheck.") + k + "_p50_ms", e.q(key, 0.5), "ms", e.n(key));
    }
    for (const char* k : {"recheck.windows", "recheck.purged", "recheck.inserted"}) {
      put(k, mean(e.get(k)), "count", e.n(k));
    }
    const double full = e.q("session.check_ms", 0.5);
    put("recheck.full_frac", full > 0 ? e.q("session.recheck_ms", 0.5) / full : 0, "frac",
        e.n("session.recheck_ms"));
    for (const char* k : {"recheck.pair_ms", "recheck.intra_ms", "recheck.global_ms"}) {
      put(k, t.q(k, 0.5), "ms", t.n(k));
    }
    put("subs.delivered", delivered, "count", 1);
    put("subs.dropped", dropped, "count", 1);
    put("subs.gaps", static_cast<double>(gaps), "count", 1);
    put("coord.scatter_ms", t.q("coord.scatter_ms", 0.5), "ms", t.n("coord.scatter_ms"));
    put("coord.overhead_ms", w.cluster ? e.q("overhead_ms", 0.5) : 0, "ms",
        w.cluster ? e.n("overhead_ms") : 0);
    put("coord.legs_shed", shed, "count", 1);
    // Relative cost of tracing, averaged over the three headline latencies.
    double over = 0;
    int terms = 0;
    for (const char* k : {"seq.check_s", "par.check_s", "edit_recheck_ms"}) {
      const double base = e.q(k, 0.5), with = t.q(k, 0.5);
      if (base > 0 && with > 0) {
        over += with / base - 1;
        ++terms;
      }
    }
    put("trace.overhead_frac", terms > 0 ? over / terms : 0, "frac", static_cast<std::size_t>(terms));
  }

  // The self-time table of the traced half, per layer then per span.
  if (a.trace) {
    const std::string path = dir + "/layers-" + w.name + ".txt";
    std::ofstream out(path);
    out << "# self time (ms) summed over the traced half, by layer\n";
    for (const auto& [layer, ms] : traced.selfs.by_layer) out << "layer " << layer << ' ' << ms << '\n';
    out << "# by span (self ms, count)\n";
    for (const auto& [key, ms] : traced.selfs.by_key) {
      out << "span " << key << ' ' << ms << ' ' << traced.selfs.count_by_key.at(key) << '\n';
    }
    st.trace_files["layers"] = path;
  }

  su.tear_down();

  std::ostringstream os;
  os.precision(10);
  os << "{\"workload\":" << json_str(w.name) << ",\"seed\":" << a.seed
     << ",\"correct\":" << (st.gate.failed == 0 ? "true" : "false")
     << ",\"attempted\":" << st.gate.attempted << ",\"failed\":" << st.gate.failed
     << ",\"failures\":[";
  for (std::size_t i = 0; i < st.gate.details.size(); ++i) {
    os << (i ? "," : "") << json_str(st.gate.details[i]);
  }
  os << "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, mo] : m) {
    os << (first ? "" : ",") << json_str(name) << ":{\"value\":" << mo.value
       << ",\"unit\":" << json_str(mo.unit) << ",\"n\":" << mo.n << "}";
    first = false;
  }
  os << "},\"info\":{\"design\":" << json_str(w.design) << ",\"scale\":" << w.scale
     << ",\"cells\":" << in.gen.lib.cell_count()
     << ",\"flat_polygons\":" << in.gen.lib.expanded_polygon_count()
     << ",\"gds_bytes\":" << in.gds_bytes << ",\"snap_bytes\":" << in.snap_bytes
     << ",\"probe_ms\":" << probe << ",\"probe_ref_ms\":" << probe_ref_ms
     << ",\"sites\":" << in.gen.sites.size() << ",\"violations\":" << su.baseline.size()
     << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"simd\":" << json_str(simd::describe())
     << ",\"build_type\":" << json_str(ODRC_BUILD_TYPE) << ",\"odrc_env\":" << json_str(odrc_env())
     << ",\"files\":{";
  first = true;
  for (const auto& [k, path] : st.trace_files) {
    os << (first ? "" : ",") << json_str(k) << ":" << json_str(path);
    first = false;
  }
  os << "}}}";
  std::cout << os.str() << std::endl;
  std::filesystem::remove(in.snap);
  std::filesystem::remove(in.gds);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "drc_bench: %s\n", e.what());
    return 1;
  }
}
