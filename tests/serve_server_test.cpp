// Server/transport tests for odrc::serve: end-to-end request flow over a real
// Unix socket, interleaved requests from concurrent clients, and the
// connection-level handling of malformed frames. Suite names start with
// "Serve" so the TSan CI job picks them up.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "db/layout.hpp"
#include "engine/rule.hpp"
#include "serve/client.hpp"

namespace odrc::serve {
namespace {

constexpr db::layer_t M1 = 19;

db::library make_lib() {
  db::library lib("serve_srv_test");
  const db::cell_id unit = lib.add_cell("unit");
  lib.at(unit).add_rect(M1, {0, 0, 200, 30});
  const db::cell_id top = lib.add_cell("top");
  lib.at(top).add_rect(M1, {0, 500, 2000, 530});
  lib.at(top).add_ref({unit, transform{{0, 0}, 0, false, 1}});
  lib.at(top).add_ref({unit, transform{{600, 0}, 0, false, 1}});
  return lib;
}

std::vector<rules::rule> make_deck() {
  return {
      rules::layer(M1).width().greater_than(18).named("M1.W"),
      rules::layer(M1).spacing().greater_than(25).named("M1.S"),
      rules::layer(M1).area().greater_than(800).named("M1.A"),
  };
}

// Pull the integer following `word` out of a status line like
// "ok fixed 0 new 3 unchanged 56".
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

struct ServeServer : ::testing::Test {
  session_manager sessions;
  std::unique_ptr<server> srv;
  std::string path;

  void SetUp() override {
    path = "/tmp/odrc_sv_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter_.fetch_add(1)) + ".sock";
    sessions.create(make_lib(), make_deck());
    server_config cfg;
    cfg.socket_path = path;
    cfg.workers = 2;
    srv = std::make_unique<server>(cfg, sessions);
    srv->start();
  }

  void TearDown() override {
    srv->stop();
    srv->wait();
  }

  static inline std::atomic<int> counter_{0};
};

TEST_F(ServeServer, PingAndStats) {
  client c;
  c.connect(path);
  const frame pong = c.request(msg_type::ping, 0);
  EXPECT_TRUE(client::ok(pong));
  EXPECT_EQ(pong.payload, "ok pong");
  const frame st = c.request(msg_type::stats, 0);
  EXPECT_TRUE(client::ok(st));
  EXPECT_NE(st.payload.find("requests_total"), std::string::npos);
}

// The acceptance flow of the PR: full check -> localized edit -> incremental
// recheck -> a fresh full check agrees key-for-key (diff comes back clean).
TEST_F(ServeServer, EndToEndEditRecheckMatchesFullCheck) {
  client c;
  c.connect(path);
  const frame chk = c.request(msg_type::check, 0);
  ASSERT_TRUE(client::ok(chk)) << chk.payload;
  const long total0 = field(client::status_line(chk), "total");
  ASSERT_GE(total0, 0);

  const frame ed =
      c.request(msg_type::edit, 0, "add_poly top 19 5000 5000 5010 5010\n");
  ASSERT_TRUE(client::ok(ed)) << ed.payload;
  EXPECT_EQ(field(client::status_line(ed), "applied"), 1);

  const frame rc = c.request(msg_type::recheck, 0);
  ASSERT_TRUE(client::ok(rc)) << rc.payload;
  EXPECT_EQ(field(client::status_line(rc), "full"), 0);
  const long introduced = field(client::status_line(rc), "new");
  EXPECT_GT(introduced, 0);
  EXPECT_EQ(field(client::status_line(rc), "fixed"), 0);
  EXPECT_EQ(field(client::status_line(rc), "unchanged"), total0);

  const frame dif = c.request(msg_type::diff, 0);
  ASSERT_TRUE(client::ok(dif));
  EXPECT_EQ(field(client::status_line(dif), "new"), introduced);

  // Fresh full check over the edited layout: if the incremental pass was
  // exact, the key set is identical and the new diff is clean.
  const frame chk2 = c.request(msg_type::check, 0);
  ASSERT_TRUE(client::ok(chk2));
  EXPECT_EQ(field(client::status_line(chk2), "total"), total0 + introduced);
  const frame dif2 = c.request(msg_type::diff, 0);
  ASSERT_TRUE(client::ok(dif2));
  EXPECT_EQ(field(client::status_line(dif2), "fixed"), 0);
  EXPECT_EQ(field(client::status_line(dif2), "new"), 0);
}

// check, check_region and query share one reply body: "ok total N", one
// "rule <name> <count>" line per deck rule that has violations, then one
// "v <key>" line per violation only when the request asks for keys. With a
// window covering the layout all three report the same rule rows.
TEST_F(ServeServer, CheckRegionAndQueryShareReplyBody) {
  client c;
  c.connect(path);
  // A 10x10 square on an otherwise clean layout: two width violations (one
  // per axis) and one area violation.
  ASSERT_TRUE(client::ok(c.request(msg_type::edit, 0, "add_poly top 19 5000 5000 5010 5010\n")));
  const std::map<std::string, long> want_rows = {{"M1.W", 2}, {"M1.A", 1}};
  const std::string window = "0 0 6000 6000";
  const std::pair<msg_type, std::string> verbs[] = {
      {msg_type::check, ""}, {msg_type::check_region, window}, {msg_type::query, window}};
  for (const auto& [type, args] : verbs) {
    for (const bool keys : {false, true}) {
      const std::string payload = keys ? (args.empty() ? "keys" : args + " keys") : args;
      const frame f = c.request(type, 0, payload);
      ASSERT_TRUE(client::ok(f)) << f.payload;
      std::istringstream body(f.payload);
      std::string line;
      ASSERT_TRUE(std::getline(body, line));
      EXPECT_EQ(line.rfind("ok total ", 0), 0u) << line;
      const long total = field(line, "total");
      std::map<std::string, long> rows;
      long key_lines = 0;
      while (std::getline(body, line)) {
        std::istringstream row(line);
        std::string tag, name;
        row >> tag >> name;
        if (tag == "rule") {
          EXPECT_EQ(key_lines, 0) << "rule line after a key line: " << line;
          row >> rows[name];
        } else {
          EXPECT_EQ(tag, "v") << line;
          ++key_lines;
        }
      }
      EXPECT_EQ(rows, want_rows) << payload;
      EXPECT_EQ(total, 3) << payload;
      EXPECT_EQ(key_lines, keys ? total : 0) << payload;
    }
  }
}

TEST_F(ServeServer, ErrorsAreRepliesNotDisconnects) {
  client c;
  c.connect(path);
  const frame bad = c.request(msg_type::edit, 0, "add_poly nosuchcell 19 0 0 1 1\n");
  EXPECT_FALSE(client::ok(bad));
  EXPECT_EQ(bad.payload.rfind("error", 0), 0u);
  // The connection survives a failed request.
  EXPECT_TRUE(client::ok(c.request(msg_type::ping, 0)));
}

TEST_F(ServeServer, UnknownSessionIsAnError) {
  client c;
  c.connect(path);
  const frame r = c.request(msg_type::check, 42);
  EXPECT_FALSE(client::ok(r));
}

TEST_F(ServeServer, GarbageFrameClosesOnlyThatConnection) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  const char garbage[32] = "this is not a frame header....";
  ASSERT_TRUE(write_all(fd, garbage, sizeof garbage));
  // Server closes the poisoned connection: read drains to EOF.
  char buf[256];
  while (::read(fd, buf, sizeof buf) > 0) {
  }
  ::close(fd);

  client c;
  c.connect(path);
  EXPECT_TRUE(client::ok(c.request(msg_type::ping, 0)));
  EXPECT_GE(srv->stats().protocol_errors, 1u);
}

TEST_F(ServeServer, TruncatedHeaderThenDisconnectIsHarmless) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  unsigned char hdr[header_size];
  encode_header(frame_header{}, hdr);
  ASSERT_TRUE(write_all(fd, hdr, 9));  // partial header, then vanish
  ::close(fd);

  client c;
  c.connect(path);
  EXPECT_TRUE(client::ok(c.request(msg_type::ping, 0)));
}

TEST_F(ServeServer, SessionOpenAndClose) {
  client c;
  c.connect(path);
  const frame r = c.request(msg_type::close, 1);
  EXPECT_TRUE(client::ok(r));
  EXPECT_FALSE(client::ok(c.request(msg_type::check, 1)));
}

// Interleaved requests from two concurrent clients, each pipelining several
// verbs against the shared session; every response must be well-framed, match
// its request seq (the client enforces this) and be individually sane. Run
// under TSan in CI.
TEST_F(ServeServer, ServeConcurrentClientsInterleave) {
  constexpr int kClients = 4;
  constexpr int kRequests = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      client c;
      c.connect(path);
      for (int i = 0; i < kRequests; ++i) {
        const frame r = (i + t) % 3 == 0 ? c.request(msg_type::stats, 0)
                        : (i + t) % 3 == 1 ? c.request(msg_type::ping, 0)
                                           : c.request(msg_type::check, 0);
        if (!client::ok(r)) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(srv->stats().requests_total,
            static_cast<std::uint64_t>(kClients * kRequests));
}

// Concurrent edit/recheck/check traffic against one session: the session
// mutex must serialize mutation, and every client still sees a coherent
// response stream.
TEST_F(ServeServer, ServeConcurrentEditAndCheck) {
  std::atomic<int> failures{0};
  std::thread editor([&] {
    client c;
    c.connect(path);
    for (int i = 0; i < 10; ++i) {
      const int x = 4000 + i * 40;
      std::ostringstream s;
      s << "add_poly top 19 " << x << " 4000 " << (x + 10) << " 4010\n";
      if (!client::ok(c.request(msg_type::edit, 0, s.str()))) failures.fetch_add(1);
      if (!client::ok(c.request(msg_type::recheck, 0))) failures.fetch_add(1);
    }
  });
  std::thread checker([&] {
    client c;
    c.connect(path);
    for (int i = 0; i < 10; ++i) {
      if (!client::ok(c.request(msg_type::check, 0))) failures.fetch_add(1);
      if (!client::ok(c.request(msg_type::stats, 0))) failures.fetch_add(1);
    }
  });
  editor.join();
  checker.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ServeServer, ShutdownVerbStopsTheServer) {
  client c;
  c.connect(path);
  const frame r = c.request(msg_type::shutdown, 0);
  EXPECT_TRUE(client::ok(r));
  srv->wait();  // returns promptly because the verb triggered stop()
  // TearDown's stop()/wait() are now no-ops.
}

}  // namespace
}  // namespace odrc::serve
