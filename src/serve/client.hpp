// Synchronous client for the odrc::serve protocol: connect to the server's
// endpoint ("unix:/path", a bare path, or "tcp:host:port" —
// serve/transport.hpp), send one request frame, block for the matching
// response (seq echo). The CLI's `odrc client` verbs, the coordinator's
// worker links, and the e2e tests are built on it; the framing edge-case
// tests drive raw fds instead.
//
// A request can also be split into send() and receive(seq), so one thread
// can have a request outstanding on several connections at once (the
// coordinator's scatter).
//
// Full duplex: after `subscribe`, server-initiated `delta` frames arrive
// interleaved with responses. receive() recognizes them by the missing
// response_bit and stashes them; poll_push()/wait_push() hand them out in
// arrival order, so a caller can pump requests and consume pushes on one
// connection without a second thread.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>

#include "serve/protocol.hpp"

namespace odrc::serve {

class client {
 public:
  client() = default;
  ~client();

  client(const client&) = delete;
  client& operator=(const client&) = delete;

  /// Connect to a transport endpoint spec. Throws std::runtime_error on
  /// failure.
  void connect(const std::string& endpoint);

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// Send a request, block for its response. Throws std::runtime_error on
  /// I/O failure (connection closed mid-request) and protocol_error on a
  /// malformed response stream. Pushed `delta` frames read while waiting are
  /// stashed for poll_push()/wait_push(), never lost.
  frame request(msg_type type, std::uint32_t session, const std::string& payload = {}) {
    return receive(send(type, session, payload));
  }

  /// Write a request frame without waiting; returns its seq for receive().
  /// Throws std::runtime_error when not connected or on write failure.
  std::uint16_t send(msg_type type, std::uint32_t session, const std::string& payload = {});

  /// Block for the response to the request sent with `seq`, stashing pushed
  /// frames read on the way and skipping responses to other seqs. Throws
  /// like request().
  frame receive(std::uint16_t seq);

  /// Next pushed frame if one is already stashed or readable without
  /// blocking; nullopt otherwise.
  [[nodiscard]] std::optional<frame> poll_push();

  /// Block up to `timeout_ms` (< 0 = forever) for a pushed frame. nullopt on
  /// timeout or connection close.
  [[nodiscard]] std::optional<frame> wait_push(int timeout_ms);

  void close();

  /// First line of a response payload.
  [[nodiscard]] static std::string status_line(const frame& resp);

  /// True when the response's status line starts with "ok".
  [[nodiscard]] static bool ok(const frame& resp);

 private:
  int fd_ = -1;
  std::uint16_t next_seq_ = 1;
  std::deque<frame> pushed_;  ///< deltas read while waiting for a response
};

}  // namespace odrc::serve
