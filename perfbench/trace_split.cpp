#include "trace_split.hpp"

#include <algorithm>
#include <utility>

namespace perfbench {

using odrc::trace::event;
using odrc::trace::tagged_event;

std::vector<span_rec> build_spans(const std::vector<tagged_event>& events) {
  std::vector<span_rec> out;
  std::vector<bool> closed;
  // Events arrive grouped by track, in time order within each track.
  std::vector<int> open;
  std::uint32_t track = ~0u;
  for (const tagged_event& te : events) {
    if (te.tid != track) {
      open.clear();
      track = te.tid;
    }
    if (te.e.k == event::kind::begin) {
      span_rec s;
      s.key = std::string(te.e.cat) + ":" + te.e.name;
      s.thread = *te.thread_name;
      s.t0 = te.e.ts_ns;
      s.arg0 = te.e.arg0;
      s.arg1 = te.e.arg1;
      s.parent = open.empty() ? -1 : open.back();
      out.push_back(std::move(s));
      closed.push_back(false);
      open.push_back(static_cast<int>(out.size() - 1));
    } else if (te.e.k == event::kind::end) {
      if (open.empty()) continue;
      span_rec& s = out[static_cast<std::size_t>(open.back())];
      s.t1 = std::max(te.e.ts_ns, s.t0);
      closed[static_cast<std::size_t>(open.back())] = true;
      open.pop_back();
      if (s.parent >= 0) out[static_cast<std::size_t>(s.parent)].child_ns += s.t1 - s.t0;
    }
  }
  // Unclosed spans have no duration; drop them so callers never count a
  // placeholder as a sample.
  std::vector<int> remap(out.size(), -1);
  std::vector<span_rec> kept;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!closed[i]) continue;
    remap[i] = static_cast<int>(kept.size());
    kept.push_back(out[i]);
  }
  for (span_rec& s : kept) {
    // A dropped parent is an unclosed span: lift the child to its grandparent.
    int p = s.parent;
    while (p >= 0 && remap[static_cast<std::size_t>(p)] < 0) p = out[static_cast<std::size_t>(p)].parent;
    s.parent = p < 0 ? -1 : remap[static_cast<std::size_t>(p)];
  }
  return kept;
}

bool has_ancestor(const std::vector<span_rec>& spans, std::size_t i, const std::string& key) {
  for (int p = spans[i].parent; p >= 0; p = spans[static_cast<std::size_t>(p)].parent) {
    if (spans[static_cast<std::size_t>(p)].key == key) return true;
  }
  return false;
}

double union_busy_ms(const std::vector<span_rec>& spans, const std::string& prefix) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
  for (const span_rec& s : spans) {
    if (s.thread.rfind(prefix, 0) == 0) iv.emplace_back(s.t0, s.t1);
  }
  std::sort(iv.begin(), iv.end());
  std::uint64_t busy = 0, lo = 0, hi = 0;
  bool have = false;
  for (const auto& [a, b] : iv) {
    if (have && a <= hi) {
      hi = std::max(hi, b);
      continue;
    }
    if (have) busy += hi - lo;
    lo = a;
    hi = b;
    have = true;
  }
  if (have) busy += hi - lo;
  return static_cast<double>(busy) / 1e6;
}

std::string layer_of(const std::string& key) {
  static const std::pair<const char*, const char*> exact[] = {
      {"bench:gdsii.read", "gdsii"},
      {"bench:deck.parse", "engine"},
      {"bench:snapshot.index", "db"},
      {"bench:report", "report"},
      {"pipeline:partition", "partition"},
      {"pipeline:sweepline", "sweep"},
      {"pipeline:pack", "sweep"},
      {"pipeline:clip", "checks"},
      {"pipeline:device_wait", "device"},
  };
  for (const auto& [k, layer] : exact) {
    if (key == k) return layer;
  }
  static const std::pair<const char*, const char*> prefix[] = {
      {"bench:serve.", "client"}, {"bench:", "bench"},   {"engine:", "engine"},
      {"sweep:", "sweep"},       {"simd:", "sweep"},    {"device:", "device"},
      {"snapshot:", "snapshot_store"}, {"serve:", "serve"}, {"subs:", "serve"},
      {"coord:", "coord"},
  };
  for (const auto& [p, layer] : prefix) {
    if (key.rfind(p, 0) == 0) return layer;
  }
  return "other";
}

void self_table::add(const std::vector<span_rec>& spans) {
  for (const span_rec& s : spans) {
    by_layer[layer_of(s.key)] += s.self_ms();
    by_key[s.key] += s.self_ms();
    ++count_by_key[s.key];
  }
}

}  // namespace perfbench
