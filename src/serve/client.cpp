#include "serve/client.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <stdexcept>

#include <poll.h>
#include <unistd.h>

#include "serve/transport.hpp"

namespace odrc::serve {

client::~client() { close(); }

void client::connect(const std::string& endpoint) {
  ::signal(SIGPIPE, SIG_IGN);
  close();
  fd_ = transport::connect_endpoint(endpoint);
}

std::uint16_t client::send(msg_type type, std::uint32_t session, const std::string& payload) {
  if (fd_ < 0) throw std::runtime_error("client not connected");
  frame req;
  req.header.type = static_cast<std::uint8_t>(type);
  req.header.seq = next_seq_++;
  req.header.session = session;
  req.payload = payload;
  if (!write_frame(fd_, req)) {
    throw std::runtime_error("request write failed: " + std::string(std::strerror(errno)));
  }
  return req.header.seq;
}

frame client::receive(std::uint16_t seq) {
  if (fd_ < 0) throw std::runtime_error("client not connected");
  for (;;) {
    std::optional<frame> resp = read_frame(fd_);  // protocol_error propagates
    if (!resp) throw std::runtime_error("connection closed before response");
    if ((resp->header.type & response_bit) == 0) {
      // Server-initiated push interleaved with the response stream; a push
      // header's seq can collide with a request seq, so the response_bit is
      // the discriminator. Stash for poll_push()/wait_push().
      pushed_.push_back(*std::move(resp));
      continue;
    }
    if (resp->header.seq == seq) return *std::move(resp);
    // A response to an earlier request whose reply was never received:
    // tolerate it.
  }
}

std::optional<frame> client::poll_push() { return wait_push(0); }

std::optional<frame> client::wait_push(int timeout_ms) {
  if (!pushed_.empty()) {
    frame f = std::move(pushed_.front());
    pushed_.pop_front();
    return f;
  }
  if (fd_ < 0) return std::nullopt;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    int wait = -1;
    if (timeout_ms >= 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      wait = static_cast<int>(std::max<long long>(0, left.count()));
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, wait);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    if (pr == 0) return std::nullopt;  // timeout
    std::optional<frame> f = read_frame(fd_);  // protocol_error propagates
    if (!f) return std::nullopt;               // connection closed
    if ((f->header.type & response_bit) == 0) return f;
    // A stray response (to a request whose reply receive() skipped): drop
    // it.
  }
}

void client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::string client::status_line(const frame& resp) {
  const auto nl = resp.payload.find('\n');
  return resp.payload.substr(0, nl);
}

bool client::ok(const frame& resp) {
  return resp.payload.rfind("ok", 0) == 0 &&
         (resp.payload.size() == 2 || resp.payload[2] == ' ' || resp.payload[2] == '\n');
}

}  // namespace odrc::serve
