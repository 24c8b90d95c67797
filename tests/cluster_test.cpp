// Sharded scatter-gather cluster tests (DESIGN.md §10): an in-process fleet
// of serve workers behind a coordinator must produce exactly the violation
// set of a single-process session — including spacing violations straddling
// a band seam, which both adjacent workers report and the coordinator dedups
// by key. Also covers the shard planner, worker-death propagation, a busy
// worker's refusal reaching the client, scatter legs in flight together, and
// the TCP transport. Suite names start with
// "Cluster"/"Coord" so the TSan CI job picks them up.
#include "serve/coord.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "db/layout.hpp"
#include "engine/rule.hpp"
#include "engine/shard.hpp"
#include "serve/client.hpp"
#include "serve/session.hpp"
#include "serve/transport.hpp"

namespace odrc::serve {
namespace {

constexpr db::layer_t M1 = 19;

// Violations in both band interiors plus one spacing pair whose two edges
// sit on opposite sides of y = 500 (the manual seam): rect A tops out at
// y=498, rect B starts at y=503, gap 5 < min 25.
db::library make_cluster_lib() {
  db::library lib("cluster_test");
  const db::cell_id top = lib.add_cell("top");
  // lower band interior
  lib.at(top).add_rect(M1, {0, 0, 400, 10});       // width 10 < 18
  lib.at(top).add_rect(M1, {600, 0, 610, 10});     // 10x10: width + area
  lib.at(top).add_rect(M1, {0, 100, 200, 130});
  lib.at(top).add_rect(M1, {0, 140, 200, 170});    // spacing 10 < 25
  // seam straddler
  lib.at(top).add_rect(M1, {100, 460, 300, 498});
  lib.at(top).add_rect(M1, {100, 503, 300, 540});  // spacing 5 < 25, across the seam
  // upper band interior
  lib.at(top).add_rect(M1, {0, 800, 400, 815});    // width 15 < 18
  lib.at(top).add_rect(M1, {600, 900, 800, 930});
  lib.at(top).add_rect(M1, {600, 940, 800, 970});  // spacing 10 < 25
  // hierarchy in both bands
  const db::cell_id unit = lib.add_cell("unit");
  lib.at(unit).add_rect(M1, {0, 0, 200, 30});
  lib.at(top).add_ref({unit, transform{{1000, 50}, 0, false, 1}});
  lib.at(top).add_ref({unit, transform{{1000, 850}, 0, false, 1}});
  return lib;
}

std::vector<rules::rule> make_deck() {
  return {
      rules::layer(M1).width().greater_than(18).named("M1.W"),
      rules::layer(M1).spacing().greater_than(25).named("M1.S"),
      rules::layer(M1).area().greater_than(800).named("M1.A"),
  };
}

long field(const std::string& line, const std::string& word) {
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) {
    if (tok == word) {
      long v = -1;
      in >> v;
      return v;
    }
  }
  return -1;
}

// Two bands split at y = 500, tiling the plane.
std::vector<rect> manual_bands() {
  using engine::shard_clamp_max;
  using engine::shard_clamp_min;
  return {{shard_clamp_min, shard_clamp_min, shard_clamp_max, 500},
          {shard_clamp_min, 501, shard_clamp_max, shard_clamp_max}};
}

struct Cluster : ::testing::Test {
  std::vector<std::unique_ptr<session_manager>> wsessions;
  std::vector<std::unique_ptr<server>> workers;
  std::vector<std::string> wpaths;
  std::unique_ptr<coordinator> coord;
  std::string cpath;

  void start_cluster(std::vector<rect> bands) {
    const std::string stem =
        "/tmp/odrc_cl_" + std::to_string(::getpid()) + "_" + std::to_string(counter_.fetch_add(1));
    for (std::size_t i = 0; i < bands.size(); ++i) {
      wpaths.push_back(stem + "_w" + std::to_string(i) + ".sock");
      wsessions.push_back(std::make_unique<session_manager>());
      wsessions.back()->create(make_cluster_lib(), make_deck());
      server_config wc;
      wc.socket_path = wpaths.back();
      wc.workers = 2;
      workers.push_back(std::make_unique<server>(wc, *wsessions.back()));
      workers.back()->start();
    }
    cpath = stem + "_coord.sock";
    coord_config cc;
    cc.listen.socket_path = cpath;
    cc.listen.workers = 2;
    cc.worker_endpoints = wpaths;
    cc.bands = std::move(bands);
    coord = std::make_unique<coordinator>(std::move(cc));
    coord->start();
  }

  void TearDown() override {
    if (coord) {
      coord->stop();
      coord->wait();
    }
    for (auto& w : workers) {
      w->stop();
      w->wait();
    }
  }

  static inline std::atomic<int> counter_{0};
};

std::vector<std::string> single_process_keys() {
  session s(make_cluster_lib(), make_deck());
  s.check_full();
  return s.keys();
}

TEST_F(Cluster, ClusterShardedCheckMatchesSingleProcess) {
  start_cluster(manual_bands());
  const std::vector<std::string> expected = single_process_keys();
  ASSERT_FALSE(expected.empty());

  client c;
  c.connect(cpath);
  const frame chk = c.request(msg_type::check, 0);
  ASSERT_TRUE(client::ok(chk)) << chk.payload;
  EXPECT_EQ(field(client::status_line(chk), "total"), static_cast<long>(expected.size()));
  EXPECT_EQ(coord->current_keys(), expected);

  // The seam straddler really was reported by BOTH workers (and deduped):
  // some key must be in both per-worker stores.
  const std::vector<std::string> k0 = wsessions[0]->get(1)->keys();
  const std::vector<std::string> k1 = wsessions[1]->get(1)->keys();
  std::vector<std::string> both;
  std::set_intersection(k0.begin(), k0.end(), k1.begin(), k1.end(), std::back_inserter(both));
  EXPECT_FALSE(both.empty()) << "no seam-straddling violation was exercised";
  EXPECT_LT(both.size() + expected.size(), k0.size() + k1.size() + 1);  // dedup happened

  for (const worker_link_stats& w : coord->worker_stats()) {
    EXPECT_GE(w.legs, 1u);
    EXPECT_TRUE(w.healthy);
  }
}

TEST_F(Cluster, ClusterPlannedBandsAlsoMatchSingleProcess) {
  const db::library lib = make_cluster_lib();
  std::vector<rect> bands = engine::plan_shards(lib, 2);
  ASSERT_EQ(bands.size(), 2u);
  start_cluster(std::move(bands));

  client c;
  c.connect(cpath);
  const frame chk = c.request(msg_type::check, 0);
  ASSERT_TRUE(client::ok(chk)) << chk.payload;
  EXPECT_EQ(coord->current_keys(), single_process_keys());
}

TEST_F(Cluster, ClusterCheckRegionMatchesSingleProcess) {
  start_cluster(manual_bands());
  client c;
  c.connect(cpath);
  ASSERT_TRUE(client::ok(c.request(msg_type::check, 0)));

  // Window across the seam: the straddler must be reported exactly once.
  const rect w{0, 400, 1000, 600};
  session single(make_cluster_lib(), make_deck());
  const session::window_result expected = single.check_window(w);

  std::ostringstream payload;
  payload << w.x_min << ' ' << w.y_min << ' ' << w.x_max << ' ' << w.y_max << " keys";
  const frame r = c.request(msg_type::check_region, 0, payload.str());
  ASSERT_TRUE(client::ok(r)) << r.payload;
  EXPECT_EQ(field(client::status_line(r), "total"), static_cast<long>(expected.keys.size()));

  std::vector<std::string> got;
  std::istringstream body(r.payload);
  std::string line;
  while (std::getline(body, line)) {
    if (line.rfind("v ", 0) == 0) got.push_back(line.substr(2));
  }
  EXPECT_EQ(got, expected.keys);
}

// A malformed or inverted window draws the same error from the coordinator
// as from a worker server: both parse it through parse_window_args.
TEST_F(Cluster, WindowErrorsMatchServer) {
  start_cluster(manual_bands());
  client via_coord, via_worker;
  via_coord.connect(cpath);
  via_worker.connect(wpaths[0]);
  for (const msg_type t : {msg_type::check_region, msg_type::query}) {
    for (const char* payload : {"1 2 3", "5 5 1 1 keys", "a b c d"}) {
      const frame fc = via_coord.request(t, 0, payload);
      const frame fw = via_worker.request(t, 0, payload);
      EXPECT_FALSE(client::ok(fc)) << payload;
      EXPECT_EQ(client::status_line(fc), client::status_line(fw)) << payload;
    }
  }
}

// Broadcast edit + scattered recheck reconcile to the same keys as a
// single-process session performing the same edit + recheck — including a
// seam-straddling violation being globally fixed only when its LAST owner
// drops it (the owner-bitmask path).
TEST_F(Cluster, ClusterEditRecheckMatchesSingleProcess) {
  start_cluster(manual_bands());
  client c;
  c.connect(cpath);
  ASSERT_TRUE(client::ok(c.request(msg_type::check, 0)));

  session single(make_cluster_lib(), make_deck());
  single.check_full();

  // Move the upper straddler rect (M1 polygon index 5) up by 100: the seam
  // spacing violation is fixed on both workers; new geometry stays clear.
  const std::string script = "move_poly top 19 5 0 100\n";
  const frame ed = c.request(msg_type::edit, 0, script);
  ASSERT_TRUE(client::ok(ed)) << ed.payload;
  const auto ops = parse_edit_script(script);
  (void)single.apply(ops);

  const frame rc = c.request(msg_type::recheck, 0);
  ASSERT_TRUE(client::ok(rc)) << rc.payload;
  const recheck_result rr = single.recheck();

  EXPECT_EQ(field(client::status_line(rc), "fixed"), static_cast<long>(rr.diff.fixed.size()));
  EXPECT_EQ(field(client::status_line(rc), "new"),
            static_cast<long>(rr.diff.introduced.size()));
  EXPECT_GE(rr.diff.fixed.size(), 1u);  // the straddler was fixed
  EXPECT_EQ(coord->current_keys(), single.keys());

  // And a fresh scattered full check agrees with the incremental state.
  const frame chk2 = c.request(msg_type::check, 0);
  ASSERT_TRUE(client::ok(chk2));
  EXPECT_EQ(coord->current_keys(), single.keys());
}

TEST_F(Cluster, ClusterWorkerDeathPropagatesAsError) {
  start_cluster(manual_bands());
  client c;
  c.connect(cpath);
  ASSERT_TRUE(client::ok(c.request(msg_type::check, 0)));

  workers[1]->stop();
  workers[1]->wait();

  const frame chk = c.request(msg_type::check, 0);
  EXPECT_FALSE(client::ok(chk));
  EXPECT_EQ(chk.payload.rfind("error", 0), 0u) << chk.payload;
  const std::vector<worker_link_stats> ws = coord->worker_stats();
  EXPECT_GE(ws[1].failures, 1u);
  EXPECT_FALSE(ws[1].healthy);
  // The coordinator itself survives: local verbs still answer.
  EXPECT_TRUE(client::ok(c.request(msg_type::ping, 0)));
}

TEST_F(Cluster, ClusterStatsReportPerShardRouting) {
  start_cluster(manual_bands());
  client c;
  c.connect(cpath);
  ASSERT_TRUE(client::ok(c.request(msg_type::check, 0)));
  const frame st = c.request(msg_type::stats, 0);
  ASSERT_TRUE(client::ok(st));
  EXPECT_NE(st.payload.find("shard 0 "), std::string::npos) << st.payload;
  EXPECT_NE(st.payload.find("shard 1 "), std::string::npos);
  EXPECT_NE(st.payload.find("legs"), std::string::npos);
}

// The whole scatter-gather path over TCP framing: workers and coordinator
// listen on tcp:127.0.0.1:0, the kernel-resolved ports flow through
// bound_endpoint(), and the sharded check still matches single-process.
TEST_F(Cluster, CoordTcpTransportEndToEnd) {
  std::vector<rect> bands = manual_bands();
  for (std::size_t i = 0; i < bands.size(); ++i) {
    wsessions.push_back(std::make_unique<session_manager>());
    wsessions.back()->create(make_cluster_lib(), make_deck());
    server_config wc;
    wc.endpoint = "tcp:127.0.0.1:0";
    wc.workers = 2;
    workers.push_back(std::make_unique<server>(wc, *wsessions.back()));
    workers.back()->start();
    wpaths.push_back(workers.back()->bound_endpoint());
    EXPECT_NE(wpaths.back(), "tcp:127.0.0.1:0");  // port resolved
  }
  coord_config cc;
  cc.listen.endpoint = "tcp:127.0.0.1:0";
  cc.listen.workers = 2;
  cc.worker_endpoints = wpaths;
  cc.bands = bands;
  coord = std::make_unique<coordinator>(std::move(cc));
  coord->start();

  client c;
  c.connect(coord->bound_endpoint());
  EXPECT_TRUE(client::ok(c.request(msg_type::ping, 0)));
  const frame chk = c.request(msg_type::check, 0);
  ASSERT_TRUE(client::ok(chk)) << chk.payload;
  EXPECT_EQ(coord->current_keys(), single_process_keys());
}

// Counts the `check` frames the fake workers below have received.
struct check_rendezvous {
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
};

// A stand-in worker speaking raw frames: it answers ping and shard itself
// and replies to `check` only once both fakes have received their `check`
// frame. The wait is bounded: a coordinator that runs its legs one at a time
// gets "error stalled" instead of hanging the test. A `busy` fake answers
// `check` at once with "error busy", as a worker whose queue is full does.
class fake_worker {
 public:
  fake_worker(const std::string& path, check_rendezvous& rv, bool busy = false)
      : rv_(rv), busy_(busy) {
    lis_.open(path);
    thread_ = std::thread([this] { run(); });
  }
  ~fake_worker() {
    {
      std::lock_guard lk(mu_);
      stop_ = true;
      if (conn_ >= 0) ::shutdown(conn_, SHUT_RDWR);
    }
    thread_.join();
  }

  [[nodiscard]] const std::string& endpoint() const { return lis_.bound(); }

 private:
  void run() {
    pollfd pfd{lis_.fd(), POLLIN, 0};
    for (;;) {
      {
        std::lock_guard lk(mu_);
        if (stop_) return;
      }
      if (::poll(&pfd, 1, 20) > 0) break;
    }
    const int fd = ::accept(lis_.fd(), nullptr, nullptr);
    if (fd < 0) return;
    {
      std::lock_guard lk(mu_);
      conn_ = fd;
      if (stop_) ::shutdown(fd, SHUT_RDWR);
    }
    while (std::optional<frame> f = read_frame(fd)) {
      if (!write_frame(fd, make_response(*f, reply(*f)))) break;
    }
    std::lock_guard lk(mu_);
    ::close(fd);
    conn_ = -1;
  }

  std::string reply(const frame& f) {
    switch (static_cast<msg_type>(f.header.type)) {
      case msg_type::ping: return "ok pong";
      case msg_type::shard: return "ok shard";
      case msg_type::check: {
        if (busy_) return "error busy";
        std::unique_lock lk(rv_.mu);
        ++rv_.arrived;
        rv_.cv.notify_all();
        const bool together =
            rv_.cv.wait_for(lk, std::chrono::seconds(5), [&] { return rv_.arrived >= 2; });
        return together ? "ok total 0" : "error stalled";
      }
      default: return "error unsupported";
    }
  }

  check_rendezvous& rv_;
  const bool busy_;
  transport::listener lis_;
  std::mutex mu_;
  bool stop_ = false;
  int conn_ = -1;
  std::thread thread_;
};

// The coordinator's scatter has both legs of one check in flight at once:
// each fake answers only after the other has received its request too.
TEST_F(Cluster, ScatterLegsRunConcurrently) {
  const std::string stem =
      "/tmp/odrc_cl_" + std::to_string(::getpid()) + "_" + std::to_string(counter_.fetch_add(1));
  check_rendezvous rv;
  fake_worker f0(stem + "_f0.sock", rv);
  fake_worker f1(stem + "_f1.sock", rv);

  coord_config cc;
  cc.listen.socket_path = stem + "_coord.sock";
  cc.listen.workers = 2;
  cc.worker_endpoints = {f0.endpoint(), f1.endpoint()};
  cc.bands = manual_bands();
  coord = std::make_unique<coordinator>(std::move(cc));
  coord->start();

  client c;
  c.connect(stem + "_coord.sock");
  const frame chk = c.request(msg_type::check, 0);
  EXPECT_TRUE(client::ok(chk)) << chk.payload;
  {
    std::lock_guard lk(rv.mu);
    EXPECT_EQ(rv.arrived, 2);
  }
  for (const worker_link_stats& w : coord->worker_stats()) {
    EXPECT_EQ(w.legs, 1u);
    EXPECT_TRUE(w.healthy);
  }
}

// A worker whose own queue is full answers "error busy": the coordinator
// fails that leg, the client sees the refusal, and the link counts it shed.
TEST_F(Cluster, ClusterBackpressureShedsWhenOverloaded) {
  const std::string stem =
      "/tmp/odrc_cl_" + std::to_string(::getpid()) + "_" + std::to_string(counter_.fetch_add(1));
  check_rendezvous rv;
  fake_worker f0(stem + "_f0.sock", rv, true);
  fake_worker f1(stem + "_f1.sock", rv, true);

  coord_config cc;
  cc.listen.socket_path = stem + "_coord.sock";
  cc.listen.workers = 2;
  cc.worker_endpoints = {f0.endpoint(), f1.endpoint()};
  cc.bands = manual_bands();
  coord = std::make_unique<coordinator>(std::move(cc));
  coord->start();

  client c;
  c.connect(stem + "_coord.sock");
  const frame chk = c.request(msg_type::check, 0);
  EXPECT_FALSE(client::ok(chk));
  EXPECT_NE(chk.payload.find("busy"), std::string::npos) << chk.payload;
  std::uint64_t shed = 0;
  for (const worker_link_stats& w : coord->worker_stats()) {
    shed += w.shed;
    EXPECT_TRUE(w.healthy);
  }
  EXPECT_GE(shed, 1u);
  // The coordinator's own verbs still answer.
  EXPECT_TRUE(client::ok(c.request(msg_type::stats, 0)));
}

// A sharded session's full check is the band-filtered subset of the
// unsharded check (the per-worker half of the union-of-bands argument).
TEST(ClusterShardedSession, CheckFullIsBandFilteredSubset) {
  session whole(make_cluster_lib(), make_deck());
  whole.check_full();
  const std::vector<std::string> all = whole.keys();

  session s(make_cluster_lib(), make_deck());
  s.set_shard({manual_bands()[0], 0, 2});
  s.check_full();
  const std::vector<std::string> banded = s.keys();
  ASSERT_FALSE(banded.empty());
  EXPECT_LT(banded.size(), all.size());  // upper-band violations filtered out
  for (const std::string& k : banded) {
    EXPECT_TRUE(std::binary_search(all.begin(), all.end(), k)) << k;
  }
}

// --- shard planner -----------------------------------------------------------

TEST(CoordShardPlanner, SingleShardCoversThePlane) {
  const std::vector<rect> mbrs = {{0, 0, 10, 10}, {0, 100, 10, 110}};
  const std::vector<rect> bands = engine::plan_shards(mbrs, 1);
  ASSERT_EQ(bands.size(), 1u);
  EXPECT_EQ(bands[0].y_min, engine::shard_clamp_min);
  EXPECT_EQ(bands[0].y_max, engine::shard_clamp_max);
}

TEST(CoordShardPlanner, BandsTileAndBalance) {
  // 8 well-separated rows of one object each.
  std::vector<rect> mbrs;
  for (int i = 0; i < 8; ++i) {
    mbrs.push_back({0, i * 1000, 100, i * 1000 + 100});
  }
  const std::vector<rect> bands = engine::plan_shards(mbrs, 4);
  ASSERT_EQ(bands.size(), 4u);
  EXPECT_EQ(bands.front().y_min, engine::shard_clamp_min);
  EXPECT_EQ(bands.back().y_max, engine::shard_clamp_max);
  for (std::size_t i = 0; i + 1 < bands.size(); ++i) {
    EXPECT_EQ(static_cast<long>(bands[i].y_max) + 1, static_cast<long>(bands[i + 1].y_min))
        << "bands must tile without gap or overlap";
  }
  // Balanced: each band covers exactly two of the eight rows.
  for (std::size_t b = 0; b < bands.size(); ++b) {
    int covered = 0;
    for (const rect& m : mbrs) {
      if (bands[b].overlaps(m)) ++covered;
    }
    EXPECT_EQ(covered, 2) << "band " << b;
  }
}

TEST(CoordShardPlanner, SkewedLightRowsFirstNeverCutsLastRow) {
  // Light row below a heavy row, under its fair share: the fair-share test
  // only fires at the final row. Regression: the cut loop used to pick the
  // last row as a cut and read rows[cut + 1] out of bounds, then emit an
  // empty final band.
  std::vector<rect> mbrs;
  mbrs.push_back({0, 0, 10, 10});  // 1-member row
  for (int i = 0; i < 5; ++i) {
    mbrs.push_back({i * 100, 1000, i * 100 + 10, 1010});  // 5-member row
  }
  const std::vector<rect> bands = engine::plan_shards(mbrs, 2);
  ASSERT_EQ(bands.size(), 2u);
  EXPECT_EQ(bands.front().y_min, engine::shard_clamp_min);
  EXPECT_EQ(bands.back().y_max, engine::shard_clamp_max);
  EXPECT_EQ(static_cast<long>(bands[0].y_max) + 1, static_cast<long>(bands[1].y_min));
  // Both bands are non-empty: the cut falls between the two object rows.
  EXPECT_TRUE(bands[0].overlaps(mbrs[0]));
  EXPECT_FALSE(bands[0].overlaps(mbrs[1]));
  EXPECT_TRUE(bands[1].overlaps(mbrs[1]));
}

TEST(CoordShardPlanner, SkewedManyLightRowsBeforeHeavyRow) {
  // Several light rows then one heavy row, n=3: forced cuts must leave the
  // heavy last row to the final band instead of cutting at it.
  std::vector<rect> mbrs;
  for (int r = 0; r < 3; ++r) mbrs.push_back({0, r * 1000, 10, r * 1000 + 10});
  for (int i = 0; i < 9; ++i) {
    mbrs.push_back({i * 100, 3000, i * 100 + 10, 3010});
  }
  const std::vector<rect> bands = engine::plan_shards(mbrs, 3);
  ASSERT_EQ(bands.size(), 3u);
  for (std::size_t i = 0; i + 1 < bands.size(); ++i) {
    EXPECT_EQ(static_cast<long>(bands[i].y_max) + 1, static_cast<long>(bands[i + 1].y_min));
  }
  // Every band covers at least one object row.
  for (const rect& b : bands) {
    bool covered = false;
    for (const rect& m : mbrs) covered = covered || b.overlaps(m);
    EXPECT_TRUE(covered);
  }
}

TEST(CoordShardPlanner, MoreShardsThanRowsDegradesGracefully) {
  const std::vector<rect> mbrs = {{0, 0, 10, 10}, {0, 5, 10, 15}};  // one merged row
  const std::vector<rect> bands = engine::plan_shards(mbrs, 4);
  ASSERT_EQ(bands.size(), 1u);
}

TEST(CoordShardPlanner, LibraryOverloadUsesHierarchy) {
  const db::library lib = make_cluster_lib();
  const std::vector<rect> bands = engine::plan_shards(lib, 2);
  ASSERT_EQ(bands.size(), 2u);
  EXPECT_EQ(bands.front().y_min, engine::shard_clamp_min);
  EXPECT_EQ(bands.back().y_max, engine::shard_clamp_max);
  EXPECT_EQ(static_cast<long>(bands[0].y_max) + 1, static_cast<long>(bands[1].y_min));
  // The cut lands strictly inside the layout's y extent.
  EXPECT_GT(bands[0].y_max, 0);
  EXPECT_LT(bands[1].y_min, 1000);
}

}  // namespace
}  // namespace odrc::serve
