#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <sstream>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "engine/deck_parser.hpp"
#include "engine/snapshot_store.hpp"
#include "gdsii/reader.hpp"
#include "infra/trace.hpp"

namespace odrc::serve {

namespace {

constexpr std::size_t latency_ring_size = 256;

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

// Reply body of check, check_region and query: "ok total N", one
// "rule <name> <count>" line per rule with violations, then one "v <key>"
// line per violation when the caller asked for keys (`keys` non-null).
std::string summary_reply(const std::vector<report::summary_row>& rows,
                          const std::vector<std::string>* keys) {
  std::size_t total = 0;
  for (const auto& r : rows) total += r.count;
  std::ostringstream os;
  os << "ok total " << total;
  for (const auto& r : rows) os << "\nrule " << r.rule << ' ' << r.count;
  if (keys) {
    for (const std::string& k : *keys) os << "\nv " << k;
  }
  return os.str();
}

}  // namespace

rect parse_window_args(std::istream& args, const char* verb) {
  rect w;
  if (!(args >> w.x_min >> w.y_min >> w.x_max >> w.y_max) || w.empty()) {
    throw std::runtime_error(std::string(verb) + " expects 'x1 y1 x2 y2' with x1<=x2, y1<=y2");
  }
  return w;
}

std::string diff_reply(const report::key_diff& d, const std::string& status_tail, bool keys) {
  std::ostringstream os;
  os << "ok fixed " << d.fixed.size() << " new " << d.introduced.size() << " unchanged "
     << d.unchanged.size() << status_tail;
  if (keys) {
    for (const std::string& k : d.fixed) os << "\nfixed " << k;
    for (const std::string& k : d.introduced) os << "\nnew " << k;
  }
  return os.str();
}

// Pushes a delta under the connection's write mutex — interleaved with the
// workers' responses, never interleaving bytes with them. A failed or
// timed-out write force-closes the socket (a partial frame cannot be
// resynchronized); the reader then sees EOF and the normal lifecycle
// machinery reaps the connection and its subscriptions.
struct server::conn_sink : push_sink {
  std::shared_ptr<connection> conn;
  int timeout_ms;

  conn_sink(std::shared_ptr<connection> c, int t) : conn(std::move(c)), timeout_ms(t) {}

  bool push(const frame& f) override {
    std::lock_guard lk(conn->write_mu);
    if (conn->fd < 0 || conn->finished.load()) return false;
    if (write_frame_deadline(conn->fd, f, timeout_ms)) return true;
    ::shutdown(conn->fd, SHUT_RDWR);
    return false;
  }
};

server::server(server_config cfg, session_manager& sessions)
    : cfg_(std::move(cfg)), sessions_(sessions), subs_(cfg_.subs) {
  latencies_ms_.reserve(latency_ring_size);
}

server::~server() {
  stop();
  wait();
}

void server::start() {
  // A worker answering a vanished client must get EPIPE, not SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);

  listener_.open(cfg_.effective_endpoint());
  bound_endpoint_ = listener_.bound();
  if (::pipe(stop_pipe_) != 0) {
    listener_.close();
    throw std::runtime_error("pipe(): " + std::string(std::strerror(errno)));
  }
  if (::pipe(reap_pipe_) != 0) {
    close_fd(stop_pipe_[0]);
    close_fd(stop_pipe_[1]);
    listener_.close();
    throw std::runtime_error("pipe(): " + std::string(std::strerror(errno)));
  }
  // Reap tickles coalesce; a blocking drain of an exactly-full read would
  // stall the accept loop.
  ::fcntl(reap_pipe_[0], F_SETFL, O_NONBLOCK);
  worker_threads_.reserve(cfg_.workers);
  for (std::size_t i = 0; i < cfg_.workers; ++i) {
    worker_threads_.emplace_back([this] { worker_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void server::stop() {
  if (stopping_.exchange(true)) return;
  if (stop_pipe_[1] >= 0) {
    const char byte = 1;
    (void)!::write(stop_pipe_[1], &byte, 1);
  }
}

void server::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::vector<std::thread> threads;
    {
      std::lock_guard lk(conns_mu_);
      for (reader_slot& slot : readers_) threads.push_back(std::move(slot.thread));
      readers_.clear();
    }
    for (std::thread& t : threads) {
      if (t.joinable()) t.join();
    }
  }
  // Readers are gone, so no more enqueues: release the request threads once
  // they finish draining what is already queued.
  {
    std::lock_guard lk(queue_mu_);
    queue_stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : worker_threads_) {
    if (t.joinable()) t.join();
  }
  worker_threads_.clear();
  // Stop the push flusher BEFORE closing the remaining fds: a push racing a
  // bare close() could write into a recycled descriptor.
  subs_.stop();
  {
    std::lock_guard lk(conns_mu_);
    for (const auto& c : conns_) close_fd(c->fd);
    conns_.clear();
  }
  close_fd(stop_pipe_[0]);
  close_fd(stop_pipe_[1]);
  close_fd(reap_pipe_[0]);
  close_fd(reap_pipe_[1]);
}

void server::wake_reaper() {
  if (reap_pipe_[1] >= 0) {
    const char byte = 1;
    (void)!::write(reap_pipe_[1], &byte, 1);
  }
}

void server::reap_readers() {
  std::vector<std::thread> joinable;
  {
    std::lock_guard lk(conns_mu_);
    std::erase_if(readers_, [&](reader_slot& slot) {
      if (!slot.done->load() || !slot.conn->finished.load()) return false;
      joinable.push_back(std::move(slot.thread));
      return true;
    });
    std::erase_if(conns_, [](const std::shared_ptr<connection>& c) {
      if (!c->finished.load()) return false;
      std::lock_guard wl(c->write_mu);
      close_fd(c->fd);
      return true;
    });
  }
  for (std::thread& t : joinable) {
    if (t.joinable()) t.join();
  }
}

void server::accept_loop() {
  trace::recorder::instance().name_this_thread("serve accept");
  while (!stopping_.load()) {
    pollfd fds[3] = {{listener_.fd(), POLLIN, 0},
                     {stop_pipe_[0], POLLIN, 0},
                     {reap_pipe_[0], POLLIN, 0}};
    const int pr = ::poll(fds, 3, -1);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0 || stopping_.load()) break;
    if (fds[2].revents != 0) {
      char buf[64];
      while (::read(reap_pipe_[0], buf, sizeof buf) > 0) {
      }
      reap_readers();
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int cfd = ::accept(listener_.fd(), nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      // Transient failure — EMFILE/ENFILE (fd exhaustion), ECONNABORTED (the
      // peer gave up while queued), EAGAIN. The listen socket itself is
      // fine; breaking out here would permanently stop accepting, so count
      // it, back off briefly (reaping may free fds), and retry. The stop
      // pipe keeps shutdown responsive during the backoff.
      accept_errors_.fetch_add(1);
      trace::counter("serve", "accept_errors",
                     static_cast<std::int64_t>(accept_errors_.load()));
      reap_readers();
      pollfd stop_fd{stop_pipe_[0], POLLIN, 0};
      (void)::poll(&stop_fd, 1, 10);
      continue;
    }
    accepted_.fetch_add(1);
    auto conn = std::make_shared<connection>();
    conn->fd = cfd;
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::lock_guard lk(conns_mu_);
    conns_.push_back(conn);
    readers_.push_back({conn, std::thread([this, conn, done] { reader_loop(conn, done); }), done});
  }
  listener_.close();
  // Wake every blocked reader: they see EOF and exit; queued work drains.
  std::lock_guard lk(conns_mu_);
  for (const auto& c : conns_) {
    if (c->fd >= 0) ::shutdown(c->fd, SHUT_RDWR);
  }
}

void server::finish_if_drained(connection& conn) {
  if (!conn.read_closed.load() || conn.pending.load() != 0) return;
  if (conn.finished.exchange(true)) return;
  {
    std::lock_guard lk(conn.write_mu);
    if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_WR);
  }
  wake_reaper();
}

void server::reader_loop(std::shared_ptr<connection> conn,
                         std::shared_ptr<std::atomic<bool>> done) {
  trace::recorder::instance().name_this_thread("serve reader");
  for (;;) {
    std::optional<frame> f;
    try {
      f = read_frame(conn->fd);
    } catch (const protocol_error& e) {
      // Unsynchronizable stream: answer once on a best-effort basis, close.
      proto_errors_.fetch_add(1);
      frame err;
      err.header.type = response_bit;
      respond(*conn, err, std::string("error ") + e.what());
      break;
    }
    if (!f) break;  // EOF or truncation
    conn->pending.fetch_add(1);
    bool admitted = true;
    {
      std::lock_guard lk(queue_mu_);
      if (queue_.size() >= cfg_.queue_limit) {
        admitted = false;
      } else {
        queue_.push_back({conn, *f});
      }
    }
    if (admitted) queue_cv_.notify_one();
    if (!admitted) {
      rejected_.fetch_add(1);
      respond(*conn, *f, "error busy");
      conn->pending.fetch_sub(1);
    }
  }
  // Reader is done (EOF or unsynchronizable stream). Half-close the READ
  // side only: responses to requests this connection already pipelined may
  // still be in flight, and SHUT_RDWR here would silently drop them. The
  // write side closes via finish_if_drained() once the last of them is
  // answered, and the accept thread then reaps the fd and this thread.
  ::shutdown(conn->fd, SHUT_RD);
  conn->read_closed.store(true);
  // A half-closed subscriber cannot ack anything and its write side is about
  // to drain away — tear its subscriptions down instead of pushing into a
  // dying socket until the deadline writer notices.
  subs_.drop_owner(reinterpret_cast<std::uintptr_t>(conn.get()));
  finish_if_drained(*conn);
  done->store(true);
  wake_reaper();
}

void server::worker_loop() {
  trace::recorder::instance().name_this_thread("serve worker");
  for (;;) {
    request rq;
    {
      std::unique_lock lk(queue_mu_);
      queue_cv_.wait(lk, [this] { return !queue_.empty() || queue_stop_; });
      if (queue_.empty()) return;  // queue_stop_ and fully drained
      rq = std::move(queue_.front());
      queue_.pop_front();
      ++active_workers_;
    }
    handle(rq);
    {
      std::lock_guard lk(queue_mu_);
      --active_workers_;
    }
  }
}

void server::handle(request& rq) {
  trace::span ts("serve", "request", "type", rq.f.header.type, "session", rq.f.header.session);
  requests_.fetch_add(1);
  trace::counter("serve", "requests_total",
                 static_cast<std::int64_t>(requests_.load()));
  const auto t0 = std::chrono::steady_clock::now();
  std::string payload;
  try {
    // subscribe/unsubscribe are resolved here, not in dispatch(): they bind
    // to the requesting CONNECTION (the push target), which the virtual verb
    // table never sees. Intercepting before the virtual call also gives the
    // cluster coordinator working subscriptions for free.
    switch (static_cast<msg_type>(rq.f.header.type)) {
      case msg_type::subscribe: payload = do_subscribe(rq); break;
      case msg_type::unsubscribe: payload = do_unsubscribe(rq.f); break;
      default: payload = dispatch(rq.f); break;
    }
  } catch (const std::exception& e) {
    payload = std::string("error ") + e.what();
  }
  record_latency(std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                     .count());
  respond(*rq.conn, rq.f, std::move(payload));
  rq.conn->pending.fetch_sub(1);
  finish_if_drained(*rq.conn);
  if (static_cast<msg_type>(rq.f.header.type) == msg_type::shutdown) stop();
}

std::string server::do_subscribe(request& rq) {
  const std::uint32_t sid = rq.f.header.session == 0 ? 1 : rq.f.header.session;
  // Lenient on session existence: the coordinator serves sessions that live
  // in its workers, and a subscription may legitimately predate `open`.
  std::optional<rect> window;
  std::istringstream args(rq.f.payload);
  rect w;
  if (args >> w.x_min) {
    if (!(args >> w.y_min >> w.x_max >> w.y_max) || w.empty()) {
      throw std::runtime_error(
          "subscribe expects no payload or 'x1 y1 x2 y2' with x1<=x2, y1<=y2");
    }
    window = w;
  }
  auto sink = std::make_shared<conn_sink>(rq.conn, cfg_.push_timeout_ms);
  const std::uint64_t id = subs_.subscribe(sid, window, std::move(sink),
                                           reinterpret_cast<std::uintptr_t>(rq.conn.get()));
  return "ok subscribed " + std::to_string(id);
}

std::string server::do_unsubscribe(const frame& f) {
  std::istringstream args(f.payload);
  std::uint64_t id = 0;
  if (!(args >> id)) throw std::runtime_error("unsubscribe expects '<sub_id>'");
  if (!subs_.unsubscribe(id)) {
    throw std::runtime_error("unknown subscription " + std::to_string(id));
  }
  return "ok unsubscribed " + std::to_string(id);
}

std::string server::dispatch(const frame& f) {
  // Session 0 addresses the server default (the session the CLI creates at
  // startup, id 1).
  const std::uint32_t sid = f.header.session == 0 ? 1 : f.header.session;
  const auto need_session = [&]() -> std::shared_ptr<session> {
    auto s = sessions_.get(sid);
    if (!s) throw std::runtime_error("unknown session " + std::to_string(sid));
    return s;
  };

  switch (static_cast<msg_type>(f.header.type)) {
    case msg_type::ping: return "ok pong";
    case msg_type::open: {
      std::istringstream args(f.payload);
      std::string gds, deck_path;
      if (!(args >> gds >> deck_path)) {
        throw std::runtime_error("open expects '<gds_path> <deck_path>'");
      }
      db::library lib = gdsii::read(gds);
      auto deck = rules::parse_deck_file(deck_path);
      const std::uint32_t id = sessions_.create(std::move(lib), std::move(deck), cfg_.engine);
      return "ok session " + std::to_string(id);
    }
    case msg_type::check: {
      auto s = need_session();
      const bool want_keys = f.payload.find("keys") != std::string::npos;
      // Publish from inside the session lock: a subscriber's delta stream is
      // totally ordered with the checks that produced it, even when two
      // workers hit one session concurrently.
      const auto rows =
          s->check_full([&](const report::key_diff& d) { subs_.publish(sid, d); });
      const std::vector<std::string> keys = want_keys ? s->keys() : std::vector<std::string>{};
      return summary_reply(rows, want_keys ? &keys : nullptr);
    }
    case msg_type::check_region: {
      auto s = need_session();
      std::istringstream args(f.payload);
      const rect w = parse_window_args(args, "check_region");
      std::string flag;
      args >> flag;
      const session::window_result r = s->check_window(w);
      return summary_reply(r.rows, flag == "keys" ? &r.keys : nullptr);
    }
    case msg_type::query: {
      auto s = need_session();
      std::istringstream args(f.payload);
      const rect w = parse_window_args(args, "query");
      std::string flag;
      args >> flag;
      const session::window_result r = s->query_stored(w);
      return summary_reply(r.rows, flag == "keys" ? &r.keys : nullptr);
    }
    case msg_type::shard: {
      auto s = need_session();
      std::istringstream args(f.payload);
      std::uint32_t idx = 0, count = 0;
      if (!(args >> idx >> count)) {
        throw std::runtime_error("shard expects '<idx> <count> x1 y1 x2 y2'");
      }
      const rect band = parse_window_args(args, "shard");
      if (count == 0 || idx >= count) throw std::runtime_error("shard index out of range");
      s->set_shard(session::shard_info{band, idx, count});
      return "ok shard " + std::to_string(idx) + "/" + std::to_string(count);
    }
    case msg_type::health: {
      const server_stats_snapshot st = stats();
      std::ostringstream os;
      os << "ok depth " << st.queue_depth << " inflight " << st.active_workers << " workers "
         << cfg_.workers << " readers " << st.reader_threads << " sessions " << st.sessions;
      return os.str();
    }
    case msg_type::edit: {
      auto s = need_session();
      const std::vector<edit_op> ops = parse_edit_script(f.payload);
      const edit_result r = s->apply(ops);
      std::ostringstream os;
      os << "ok applied " << r.applied << " dirty " << r.dirty.size();
      if (r.tops_changed) os << " tops_changed";
      return os.str();
    }
    case msg_type::recheck: {
      auto s = need_session();
      const bool want_keys = f.payload.find("keys") != std::string::npos;
      const recheck_result r =
          s->recheck([&](const report::key_diff& d) { subs_.publish(sid, d); });
      std::ostringstream tail;
      tail << " windows " << r.windows << " purged " << r.purged << " inserted " << r.inserted
           << " full " << (r.full ? 1 : 0) << " plans " << r.plans;
      return diff_reply(r.diff, tail.str(), want_keys);
    }
    case msg_type::diff: return diff_reply(need_session()->last_diff(), "", true);
    case msg_type::stats: {
      const server_stats_snapshot st = stats();
      std::ostringstream os;
      os << "ok"
         << "\nsessions " << st.sessions << "\nqueue_depth " << st.queue_depth
         << "\nactive_workers " << st.active_workers << "\nworkers " << cfg_.workers
         << "\nrequests_total " << st.requests_total << "\nrequests_rejected "
         << st.requests_rejected << "\nprotocol_errors " << st.protocol_errors
         << "\naccepted_connections " << st.accepted_connections << "\naccept_errors "
         << st.accept_errors << "\nreader_threads " << st.reader_threads << "\nconnections "
         << st.connections << "\np50_ms " << st.p50_ms << "\np95_ms " << st.p95_ms;
      const subscription_stats sub = subs_.stats();
      os << "\nsubs_active " << sub.active << "\nsubs_queue_depth " << sub.queue_depth
         << "\nsubs_published " << sub.published << "\nsubs_delivered " << sub.delivered
         << "\nsubs_dropped " << sub.dropped << "\nsubs_torn_down " << sub.torn_down;
      const auto s = sessions_.get(sid);
      if (s) {
        const session_stats ss = s->stats();
        os << "\nsession_checks " << ss.checks << "\nsession_edits " << ss.edits
           << "\nsession_rechecks " << ss.rechecks << "\nsession_violations " << ss.violations
           << "\nsession_pending_dirty " << ss.pending_dirty;
      }
      return os.str();
    }
    case msg_type::reload: {
      auto s = need_session();
      std::istringstream args(f.payload);
      std::string path;
      if (!(args >> path)) throw std::runtime_error("reload expects '<path.snap>'");
      auto fs = engine::frozen_snapshot::load(path);
      db::library lib = fs->make_library();
      const std::uint64_t bytes = fs->mapped_bytes();
      const std::size_t sections = fs->section_count();
      s->reload(std::move(fs), std::move(lib));
      return "ok reloaded bytes " + std::to_string(bytes) + " sections " +
             std::to_string(sections);
    }
    case msg_type::close: {
      if (!sessions_.close(sid)) throw std::runtime_error("unknown session " + std::to_string(sid));
      return "ok closed " + std::to_string(sid);
    }
    case msg_type::shutdown: return "ok shutting down";  // handle() stops after responding
    default: break;
  }
  // Names the offending byte ("unknown(99)") for out-of-enum types; in-enum
  // but unsupported-as-a-request types (a client sending `delta`) get their
  // verb name back.
  throw std::runtime_error("unknown request type " + msg_type_display(f.header.type));
}

void server::respond(connection& conn, const frame& req, std::string payload) {
  std::lock_guard lk(conn.write_mu);
  if (conn.fd < 0) return;
  (void)write_frame(conn.fd, make_response(req, std::move(payload)));
}

void server::record_latency(double ms) {
  std::lock_guard lk(lat_mu_);
  if (latencies_ms_.size() < latency_ring_size) {
    latencies_ms_.push_back(ms);
  } else {
    latencies_ms_[lat_next_] = ms;
  }
  lat_next_ = (lat_next_ + 1) % latency_ring_size;
}

server_stats_snapshot server::stats() {
  server_stats_snapshot st;
  st.accepted_connections = accepted_.load();
  st.accept_errors = accept_errors_.load();
  st.requests_total = requests_.load();
  st.requests_rejected = rejected_.load();
  st.protocol_errors = proto_errors_.load();
  st.sessions = sessions_.count();
  {
    std::lock_guard lk(queue_mu_);
    st.queue_depth = queue_.size();
    st.active_workers = active_workers_;
  }
  {
    std::lock_guard lk(conns_mu_);
    st.reader_threads = readers_.size();
    st.connections = conns_.size();
  }
  std::vector<double> lat;
  {
    std::lock_guard lk(lat_mu_);
    lat = latencies_ms_;
  }
  if (!lat.empty()) {
    std::sort(lat.begin(), lat.end());
    st.p50_ms = lat[lat.size() / 2];
    st.p95_ms = lat[std::min(lat.size() - 1, (lat.size() * 95) / 100)];
  }
  return st;
}

}  // namespace odrc::serve
