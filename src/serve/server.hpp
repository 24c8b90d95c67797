// Socket server of odrc::serve (DESIGN.md §8, §10).
//
// Topology: one accept thread (poll on the listen fd + self-pipes for
// shutdown and reader reaping), one reader thread per connection decoding
// frames, and a bounded admission queue drained by `workers` dedicated
// request threads. Requests deliberately do NOT run on the engine's shared
// thread_pool::global(): a request handler may itself block — on a check
// that parallelizes over that very pool, or (in the cluster coordinator) on
// responses from sibling servers in the same process — and borrowing the
// compute pool for such IO-bound work deadlocks it on small machines. A
// reader that finds the queue full answers "error busy" immediately —
// overload sheds at admission instead of queueing unboundedly. Responses go out under a per-connection write mutex,
// so concurrent workers answering interleaved requests from one client never
// interleave bytes.
//
// Connection lifecycle: client EOF half-closes the READ side only; the write
// side stays open until every request the connection had already pipelined
// has been answered (a per-connection in-flight count), then the last
// responder shuts it down and the accept thread reaps the reader thread and
// closes the fd. Transient accept() failures (EMFILE/ENFILE/ECONNABORTED)
// back off briefly and retry — the accept loop only exits on stop().
//
// Transport: the listen endpoint is either a Unix socket or TCP
// (serve/transport.hpp), same framing on both, so cluster workers can live
// on other hosts.
//
// Every request runs inside a trace span ("serve":"request" with type and
// session args) and bumps the request counters; `stats` reports session and
// queue depth, worker occupancy, reject/error/accept-error totals, live
// reader-thread and connection counts, and p50/p95 latency over a
// recent-request ring.
//
// `dispatch` is virtual: the cluster coordinator (serve/coord.hpp) reuses the
// whole accept/reader/queue machinery and overrides only the verb table.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <istream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "serve/subscribe.hpp"
#include "serve/transport.hpp"

namespace odrc::serve {

struct server_config {
  std::string socket_path;      ///< unix path (back-compat spelling)
  std::string endpoint;         ///< transport endpoint; overrides socket_path
  std::size_t workers = 2;      ///< dedicated request worker threads
  std::size_t queue_limit = 64; ///< admission queue bound
  engine::engine_config engine; ///< config for sessions opened via `open`
  subscribe_config subs;        ///< subscription queue bounds + rate limits
  /// Per-frame push deadline: a subscriber whose socket buffer stays full
  /// this long is declared wedged and its connection is force-closed.
  int push_timeout_ms = 2000;

  [[nodiscard]] const std::string& effective_endpoint() const {
    return endpoint.empty() ? socket_path : endpoint;
  }
};

struct server_stats_snapshot {
  std::uint64_t accepted_connections = 0;
  std::uint64_t accept_errors = 0;
  std::uint64_t requests_total = 0;
  std::uint64_t requests_rejected = 0;
  std::uint64_t protocol_errors = 0;
  std::size_t queue_depth = 0;
  std::size_t active_workers = 0;
  std::size_t reader_threads = 0;  ///< live (not yet reaped) reader threads
  std::size_t connections = 0;     ///< live connections
  std::size_t sessions = 0;
  double p50_ms = 0;
  double p95_ms = 0;
};

/// "x1 y1 x2 y2" prefix of a request payload -> rect, leaving `args` after
/// the coordinates for trailing flags ("keys"). Throws "<verb> expects ..."
/// on a malformed or inverted window. The server and the coordinator parse
/// every windowed verb through it.
[[nodiscard]] rect parse_window_args(std::istream& args, const char* verb);

/// Reply body of recheck and diff: "ok fixed F new N unchanged U", then
/// `status_tail` on the same line, then — with `keys` — one "fixed <key>"
/// line per fixed key and one "new <key>" line per introduced key.
[[nodiscard]] std::string diff_reply(const report::key_diff& d, const std::string& status_tail,
                                     bool keys);

class server {
 public:
  server(server_config cfg, session_manager& sessions);
  virtual ~server();

  server(const server&) = delete;
  server& operator=(const server&) = delete;

  /// Bind + listen + start the accept thread. Throws std::runtime_error on
  /// socket errors (path too long for sockaddr_un, bind failure, ...).
  /// Virtual so the cluster coordinator can prepend its worker handshake —
  /// starting a coordinator through a server& must not skip it.
  virtual void start();

  /// Initiate shutdown: stop accepting, wake readers, let queued requests
  /// drain. Safe from any thread, including a request worker (the shutdown
  /// verb responds first, then calls this).
  void stop();

  /// Block until stop() was called and all readers and workers finished.
  void wait();

  [[nodiscard]] server_stats_snapshot stats();

  [[nodiscard]] const std::string& socket_path() const { return cfg_.socket_path; }

  /// Endpoint actually listening ("unix:/p" or "tcp:host:port" with the
  /// kernel-resolved port). Valid after start().
  [[nodiscard]] const std::string& bound_endpoint() const { return bound_endpoint_; }

 protected:
  /// Returns the response payload for one request frame. Overridden by the
  /// cluster coordinator; the base implementation is the session verb table.
  virtual std::string dispatch(const frame& f);

  server_config cfg_;
  session_manager& sessions_;
  /// Streaming subscriptions (DESIGN.md §12). Lives in the base server so
  /// subscribe/unsubscribe — intercepted in handle(), where the connection
  /// identity is known — work identically for the cluster coordinator; the
  /// coordinator publishes its reconciled deltas through it too.
  subscription_manager subs_;

 private:
  struct connection {
    int fd = -1;
    std::mutex write_mu;
    /// Requests read off this connection and not yet answered. The write
    /// side closes only when this drains after read EOF — pipelined
    /// responses are never dropped.
    std::atomic<std::size_t> pending{0};
    std::atomic<bool> read_closed{false};
    std::atomic<bool> finished{false};  ///< write side shut down after drain
  };

  struct reader_slot {
    std::shared_ptr<connection> conn;
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };

  struct request {
    std::shared_ptr<connection> conn;
    frame f;
  };

  /// push_sink writing delta frames onto a live connection under its write
  /// mutex (defined in server.cpp — it needs the connection internals).
  struct conn_sink;

  void accept_loop();
  void reader_loop(std::shared_ptr<connection> conn,
                   std::shared_ptr<std::atomic<bool>> done);
  void worker_loop();
  void handle(request& rq);
  /// subscribe/unsubscribe need the requesting connection (the push target),
  /// which dispatch() never sees — handle() routes them here instead.
  std::string do_subscribe(request& rq);
  std::string do_unsubscribe(const frame& f);
  void respond(connection& conn, const frame& req, std::string payload);
  void record_latency(double ms);
  /// Close the write side once read EOF was seen and every pipelined
  /// request drained; idempotent, callable from readers and workers.
  void finish_if_drained(connection& conn);
  /// Join exited reader threads and close fully-drained connections
  /// (accept-thread only). Long-lived coordinator-facing processes see heavy
  /// connection churn; without this, one thread handle per connection ever
  /// accepted would accumulate until shutdown.
  void reap_readers();
  void wake_reaper();

  transport::listener listener_;
  std::string bound_endpoint_;
  int stop_pipe_[2] = {-1, -1};
  int reap_pipe_[2] = {-1, -1};
  std::thread accept_thread_;
  std::vector<std::thread> worker_threads_;
  std::atomic<bool> stopping_{false};

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<connection>> conns_;
  std::vector<reader_slot> readers_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<request> queue_;
  std::size_t active_workers_ = 0;  ///< request threads inside handle()
  bool queue_stop_ = false;         ///< set by wait() once readers exited

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> accept_errors_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> proto_errors_{0};

  std::mutex lat_mu_;
  std::vector<double> latencies_ms_;  ///< ring, newest overwrites oldest
  std::size_t lat_next_ = 0;
};

}  // namespace odrc::serve
