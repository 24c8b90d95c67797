// Cluster coordinator of odrc::serve (DESIGN.md §10).
//
// A coordinator is a server whose verb table scatters to a fleet of ordinary
// serve workers instead of running checks itself. Each worker owns one
// horizontal band of the layout (engine/shard.hpp plans the bands; the
// `shard` verb hands the assignment over) and keeps a full copy of the
// library, so edits broadcast and checks scatter. Violations whose edges
// straddle a band seam are found by every adjacent worker; the coordinator
// reconciles them with a key -> owner-bitmask map (violation_db keys are
// content-addressed, so the same geometric violation has the same key on
// every worker) and reports each exactly once.
//
// Incremental rechecks reconcile by bitmask update: a worker reporting a key
// "fixed" clears its bit — the violation is globally fixed only when the last
// owner drops it; a key reported "new" is globally new only when no other
// worker already owned it.
//
// Backpressure: the one admission point is each worker's own bounded
// request queue. A worker whose queue is full answers "error busy"; that leg
// fails, the client sees the error, and the link counts it as shed. The
// coordinator serializes every scatter (scatter_mu_), so its own traffic
// keeps at most one request queued per worker.
//
// The coordinator reuses the whole server socket machinery (accept/reader/
// queue/lifecycle) by overriding only dispatch(); it listens on the same
// transports (unix/tcp) workers do, so tiers can be stacked.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "report/violation_db.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace odrc::serve {

namespace detail {
/// Base-from-member holder: the coordinator has no local sessions, but the
/// server base wants a session_manager&; this base is initialized first.
struct sessions_holder {
  session_manager sessions;
};
}  // namespace detail

struct coord_config {
  server_config listen;  ///< the coordinator's own endpoint/queue/workers
  std::vector<std::string> worker_endpoints;
  std::vector<rect> bands;  ///< parallel to worker_endpoints; plane-tiling
  bool forward_shutdown = true;  ///< `shutdown` also stops the workers
};

/// Per-worker link counters (stats verb, tests).
struct worker_link_stats {
  std::string endpoint;
  rect band;
  std::uint64_t legs = 0;      ///< scatter legs completed
  std::uint64_t shed = 0;      ///< legs the worker answered "error busy"
  std::uint64_t failures = 0;  ///< transport failures (worker died, ...)
  bool healthy = true;
};

class coordinator : private detail::sessions_holder, public server {
 public:
  explicit coordinator(coord_config cfg);
  ~coordinator() override;

  /// Connect every worker link, push the shard assignments, then start the
  /// listening server. Throws when a worker is unreachable or rejects its
  /// shard.
  void start() override;

  [[nodiscard]] std::vector<worker_link_stats> worker_stats() const;

  /// Sorted reconciled violation keys (after the last check/recheck).
  [[nodiscard]] std::vector<std::string> current_keys() const;

 protected:
  std::string dispatch(const frame& f) override;

 private:
  struct worker_link {
    std::string endpoint;
    rect band;
    std::uint32_t index = 0;
    std::mutex mu;  ///< serializes the synchronous client
    client cli;
    std::atomic<std::uint64_t> legs{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> failures{0};
    std::atomic<bool> healthy{true};
  };

  struct leg_result {
    bool ok = false;
    std::string payload;  ///< worker response payload when ok
    std::string error;    ///< message otherwise
  };

  /// Scatter `t` to the links selected by `pick` (null = all) and gather,
  /// on the calling thread: write the request on every picked leg, then
  /// read the replies in leg order, so the workers run their legs
  /// concurrently. Results align with links_ (unpicked legs are default
  /// leg_result with ok=false, error="skipped").
  std::vector<leg_result> scatter(msg_type t, std::uint32_t session, const std::string& payload,
                                  const std::vector<bool>* pick = nullptr);

  std::string do_check(const frame& f);
  /// check_region (`by_band`: the bands overlapping the window) and query
  /// (every band): parse the window as the server does, scatter, merge the
  /// legs' keys with seam dedup, answer like the server.
  std::string gather_keys(const frame& f, const char* verb, bool by_band);
  std::string do_edit(const frame& f);
  std::string do_recheck(const frame& f);
  std::string do_broadcast_status(const frame& f);  ///< reload: first ok line

  coord_config ccfg_;
  std::vector<std::unique_ptr<worker_link>> links_;

  /// Serializes mutating verbs (check/edit/recheck/reload): the fleet's
  /// replicas move through the same state sequence.
  std::mutex scatter_mu_;

  mutable std::mutex keys_mu_;
  /// Reconciliation state: violation key -> bitmask of owning shards.
  std::unordered_map<std::string, std::uint64_t> key_mask_;
  report::key_diff last_diff_;
};

}  // namespace odrc::serve
