// odrc::serve wire protocol (interface layer; DESIGN.md §8).
//
// Length-prefixed binary frames over a Unix-domain stream socket — no
// external serialization dependency. Every frame is a fixed 16-byte
// little-endian header followed by `length` payload bytes:
//
//   offset  size  field
//        0     4  magic    0x4352444F ("ODRC" as bytes O D R C)
//        4     1  version  protocol_version (1)
//        5     1  type     msg_type; responses set response_bit (0x80)
//        6     2  seq      request sequence number, echoed in the response
//        8     4  session  target session id (0 = the server default)
//       12     4  length   payload byte count, <= max_payload_bytes
//
// Payloads are UTF-8 text: requests carry verb arguments (an edit script,
// open paths), responses start with a status line — "ok[ <details>]" or
// "error <message>" — followed by optional body lines. Text payloads keep
// the protocol greppable under strace/socat while the framing stays binary
// and length-checked; a malformed header kills the connection, a malformed
// payload only fails the request.
//
// Full duplex (DESIGN.md §12): a connection that issued `subscribe` carries
// SERVER-INITIATED `delta` frames interleaved with its own request/response
// traffic. Responses are distinguished by `response_bit`; a pushed frame has
// a bare request type (`delta`) and is never a request — its header seq is
// the low 16 bits of the subscription's push sequence, and the payload's
// first line ("delta sub <id> seq <n> fixed <f> new <k> gap <g>") carries
// the full 64-bit sequence so clients detect dropped frames.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace odrc::serve {

inline constexpr std::uint32_t protocol_magic = 0x4352444Fu;  // "ODRC"
inline constexpr std::uint8_t protocol_version = 1;
inline constexpr std::uint32_t max_payload_bytes = 64u << 20;
inline constexpr std::size_t header_size = 16;
inline constexpr std::uint8_t response_bit = 0x80;

enum class msg_type : std::uint8_t {
  open = 1,      ///< payload "<gds_path> <deck_path>" -> "ok session <id>"
  check = 2,     ///< full deck check -> "ok total <n>" + per-rule lines
  edit = 3,      ///< payload: edit script -> "ok applied <n> dirty <k>"
  recheck = 4,   ///< incremental recheck -> "ok fixed <f> new <n> unchanged <u> ..."
  diff = 5,      ///< last recheck's key diff -> status + key lines
  stats = 6,     ///< server/session/queue/latency metrics
  close = 7,     ///< drop the addressed session
  shutdown = 8,  ///< orderly server shutdown (responds before stopping)
  ping = 9,      ///< liveness -> "ok pong"
  reload = 10,   ///< payload "<path.snap>": hot-swap the session's snapshot

  // Cluster verbs (DESIGN.md §10). A worker is an ordinary server that was
  // handed a shard assignment; the coordinator speaks the same frames.
  shard = 11,         ///< payload "<idx> <count> x1 y1 x2 y2": own this band
  check_region = 12,  ///< payload "x1 y1 x2 y2 [keys]": windowed query
  health = 13,        ///< cheap admission probe -> "ok depth D inflight I ..."

  // Streaming subscriptions + stored-violation queries (DESIGN.md §12).
  subscribe = 14,    ///< payload "[x1 y1 x2 y2]": push me this session's
                     ///< recheck deltas (optionally clipped to the window)
                     ///< -> "ok subscribed <sub_id>"
  unsubscribe = 15,  ///< payload "<sub_id>" -> "ok unsubscribed <sub_id>"
  delta = 16,        ///< SERVER-INITIATED push frame, never a request; see
                     ///< the full-duplex note above for the payload format
  query = 17,        ///< payload "x1 y1 x2 y2 [keys]": windowed lookup over
                     ///< the STORED violations (a linear scan, no recheck)
};

[[nodiscard]] const char* msg_type_name(std::uint8_t type);

/// msg_type_name, but out-of-enum types render as "unknown(<n>)" so error
/// responses name the offending byte instead of a bare "unknown".
[[nodiscard]] std::string msg_type_display(std::uint8_t type);

struct frame_header {
  std::uint32_t magic = protocol_magic;
  std::uint8_t version = protocol_version;
  std::uint8_t type = 0;
  std::uint16_t seq = 0;
  std::uint32_t session = 0;
  std::uint32_t length = 0;
};

struct frame {
  frame_header header;
  std::string payload;
};

/// Framing violation: bad magic, unknown version, oversized length. The
/// connection that produced it cannot be resynchronized and must be closed.
class protocol_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Serialize a header into its 16-byte little-endian wire form.
void encode_header(const frame_header& h, unsigned char out[header_size]);

/// Parse and validate 16 wire bytes. Throws protocol_error on bad magic,
/// version mismatch, or length > max_payload_bytes.
[[nodiscard]] frame_header decode_header(const unsigned char in[header_size]);

/// Full frame -> wire bytes (header + payload). Throws protocol_error when
/// the payload exceeds max_payload_bytes.
[[nodiscard]] std::string encode_frame(const frame& f);

/// Incremental frame decoder: feed arbitrary byte chunks, complete frames
/// are appended to `out`. Carries partial frames across feed() calls — the
/// server read loop and the framing edge-case tests both drive this. Throws
/// protocol_error exactly where decode_header would.
class frame_reader {
 public:
  void feed(const char* data, std::size_t n, std::vector<frame>& out);

  /// Bytes of an incomplete frame currently buffered (0 at frame boundary).
  [[nodiscard]] std::size_t pending() const { return buf_.size(); }

 private:
  std::string buf_;
};

// --- blocking fd I/O (EINTR-safe) ------------------------------------------

/// Read exactly `n` bytes. False on EOF or error (errno preserved).
bool read_exact(int fd, void* buf, std::size_t n);

/// Write all `n` bytes. False on error.
bool write_all(int fd, const void* buf, std::size_t n);

/// Write one frame (header + payload) atomically with respect to other
/// write_frame calls only if the caller serializes; the server holds a
/// per-connection write mutex.
bool write_frame(int fd, const frame& f);

/// write_frame with a wall-clock deadline: non-blocking sends interleaved
/// with POLLOUT waits. False on error OR when the peer's socket buffer stays
/// full past `timeout_ms` — the push flusher uses this so one wedged
/// subscriber can only ever stall delivery for a bounded time. May leave a
/// partial frame on the wire on timeout; the caller must treat the
/// connection as unusable (it cannot be resynchronized).
bool write_frame_deadline(int fd, const frame& f, int timeout_ms);

/// Read one frame. nullopt on clean EOF at a frame boundary; throws
/// protocol_error on a malformed header; nullopt (with errno) on truncation.
std::optional<frame> read_frame(int fd);

/// Build a response frame for `req`: same seq/session, type | response_bit.
[[nodiscard]] frame make_response(const frame& req, std::string payload);

// --- delta push frames ------------------------------------------------------

/// Parsed form of one pushed `delta` frame.
struct delta_frame {
  std::uint64_t sub = 0;  ///< subscription id
  std::uint64_t seq = 0;  ///< push sequence within the subscription
  bool gap = false;       ///< >=1 delta was dropped since the previous frame
  std::vector<std::string> fixed;       ///< violation keys fixed
  std::vector<std::string> introduced;  ///< violation keys introduced
};

/// Parse a pushed delta payload. nullopt when the frame is not a delta push
/// or the payload is malformed.
[[nodiscard]] std::optional<delta_frame> parse_delta(const frame& f);

}  // namespace odrc::serve
