// Span analysis for the benchmark's traced pass: rebuilds begin/end pairs
// from a trace::recorder snapshot with their per-track nesting, so the
// benchmark can sum inclusive and self time by span and by layer, and busy
// time over sets of tracks.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "infra/trace.hpp"

namespace perfbench {

struct span_rec {
  std::string key;  ///< "cat:name"
  std::string thread;  ///< track name (may be empty)
  std::uint64_t t0 = 0, t1 = 0;  ///< ns since the recorder was enabled
  std::int64_t arg0 = 0, arg1 = 0;
  int parent = -1;  ///< enclosing span on the same track, -1 at top level
  std::uint64_t child_ns = 0;  ///< time covered by direct children

  [[nodiscard]] double ms() const { return static_cast<double>(t1 - t0) / 1e6; }
  [[nodiscard]] double self_ms() const { return static_cast<double>(t1 - t0 - child_ns) / 1e6; }
};

/// Pair begin/end events per track. Spans still open at snapshot time, and
/// ends without a begin (recorder toggled mid-span), are dropped.
[[nodiscard]] std::vector<span_rec> build_spans(
    const std::vector<odrc::trace::tagged_event>& events);

/// True when span `i` has an ancestor with key `key` on its track.
[[nodiscard]] bool has_ancestor(const std::vector<span_rec>& spans, std::size_t i,
                                const std::string& key);

/// Length (ms) of the union of all spans on tracks whose name starts with
/// `prefix` — busy time of that set of tracks, overlap counted once.
[[nodiscard]] double union_busy_ms(const std::vector<span_rec>& spans, const std::string& prefix);

/// Layer (module group) a span key belongs to, for the self-time table.
[[nodiscard]] std::string layer_of(const std::string& key);

/// Self time (ms) summed per layer and per span key.
struct self_table {
  std::map<std::string, double> by_layer;
  std::map<std::string, double> by_key;
  std::map<std::string, std::size_t> count_by_key;

  void add(const std::vector<span_rec>& spans);
};

}  // namespace perfbench
