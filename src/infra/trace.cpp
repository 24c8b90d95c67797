#include "infra/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <ostream>
#include <string_view>

namespace odrc::trace {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// Minimal JSON string escaping; names are static literals but thread names
// are caller-provided.
void write_escaped(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      os << c;
    }
  }
}

}  // namespace

std::atomic<bool> recorder::enabled_{false};

recorder& recorder::instance() {
  // Never destroyed: threads owned by other statics (a device stream's
  // dispatcher) may still record or register during static destruction.
  static recorder* const r = new recorder;
  return *r;
}

recorder::thread_buf& recorder::local_buf() {
  // The shared_ptr keeps the buffer alive past thread exit: the registry
  // holds a reference, so the exporter never reads freed memory.
  thread_local std::shared_ptr<thread_buf> buf = [this] {
    auto b = std::make_shared<thread_buf>();
    std::lock_guard lk(registry_mu_);
    b->tid = next_tid_++;
    buffers_.push_back(b);
    return b;
  }();
  return *buf;
}

void recorder::enable() {
  clear();
  epoch_ns_.store(now_ns(), std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void recorder::disable() { enabled_.store(false, std::memory_order_release); }

void recorder::clear() {
  std::lock_guard lk(registry_mu_);
  for (const auto& b : buffers_) {
    std::lock_guard blk(b->mu);
    b->events.clear();
  }
}

void recorder::name_this_thread(std::string name) {
  thread_buf& b = local_buf();
  std::lock_guard lk(b.mu);
  b.name = std::move(name);
}

void recorder::emit(const event& e) {
  thread_buf& b = local_buf();
  std::lock_guard lk(b.mu);
  b.events.push_back(e);
}

void recorder::begin(const char* cat, const char* name, const char* k0, std::int64_t a0,
                     const char* k1, std::int64_t a1) {
  const std::uint64_t ts = now_ns() - epoch_ns_.load(std::memory_order_relaxed);
  emit({ts, cat, name, event::kind::begin, k0, a0, k1, a1});
}

void recorder::end(const char* cat, const char* name, const char* k0, std::int64_t a0,
                   const char* k1, std::int64_t a1) {
  const std::uint64_t ts = now_ns() - epoch_ns_.load(std::memory_order_relaxed);
  emit({ts, cat, name, event::kind::end, k0, a0, k1, a1});
}

void recorder::counter(const char* cat, const char* name, std::int64_t value) {
  const std::uint64_t ts = now_ns() - epoch_ns_.load(std::memory_order_relaxed);
  emit({ts, cat, name, event::kind::counter, "value", value, nullptr, 0});
}

void recorder::instant(const char* cat, const char* name, const char* k0, std::int64_t a0) {
  const std::uint64_t ts = now_ns() - epoch_ns_.load(std::memory_order_relaxed);
  emit({ts, cat, name, event::kind::instant, k0, a0, nullptr, 0});
}

std::vector<tagged_event> recorder::snapshot() {
  std::vector<std::shared_ptr<thread_buf>> bufs;
  {
    std::lock_guard lk(registry_mu_);
    bufs = buffers_;
  }
  std::vector<tagged_event> out;
  for (const auto& b : bufs) {
    std::lock_guard blk(b->mu);
    out.reserve(out.size() + b->events.size());
    for (const event& e : b->events) out.push_back({e, b->tid, &b->name});
  }
  // Events are appended in time order per thread; a stable sort by tid keeps
  // that order inside each track. (thread_buf names are only rebound under
  // the buffer mutex we just held; the pointers stay valid — buffers never
  // die while the registry holds them.)
  std::stable_sort(out.begin(), out.end(),
                   [](const tagged_event& a, const tagged_event& b) { return a.tid < b.tid; });
  return out;
}

void recorder::write_chrome_json(std::ostream& os) {
  const std::vector<tagged_event> events = snapshot();
  os << "{\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  // Track-name metadata first, one per named thread.
  std::uint32_t last_tid = ~0u;
  for (const tagged_event& te : events) {
    if (te.tid == last_tid) continue;
    last_tid = te.tid;
    if (te.thread_name->empty()) continue;
    sep();
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << te.tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    write_escaped(os, *te.thread_name);
    os << "\"}}";
  }
  for (const tagged_event& te : events) {
    const event& e = te.e;
    const char* ph = "i";
    switch (e.k) {
      case event::kind::begin: ph = "B"; break;
      case event::kind::end: ph = "E"; break;
      case event::kind::counter: ph = "C"; break;
      case event::kind::instant: ph = "i"; break;
    }
    sep();
    // Chrome expects microsecond timestamps; keep ns resolution as decimals.
    os << "{\"ph\":\"" << ph << "\",\"pid\":1,\"tid\":" << te.tid << ",\"ts\":" << e.ts_ns / 1000
       << "." << (e.ts_ns % 1000) / 100 << ",\"cat\":\"" << e.cat << "\",\"name\":\"" << e.name
       << "\"";
    if (e.arg0_key) {
      os << ",\"args\":{\"" << e.arg0_key << "\":" << e.arg0;
      if (e.arg1_key) os << ",\"" << e.arg1_key << "\":" << e.arg1;
      os << "}";
    }
    os << "}";
  }
  os << "\n]}\n";
}

metrics_summary recorder::metrics() {
  const std::vector<tagged_event> events = snapshot();
  metrics_summary out;

  struct open_span {
    const char* cat;
    const char* name;
    std::uint64_t ts;
  };
  std::map<std::string, std::vector<double>> durations;  // key -> ms samples
  std::map<std::string, std::int64_t> counters;
  std::map<std::uint32_t, track_stats> tracks;

  std::vector<open_span> stack;
  std::uint32_t cur_tid = ~0u;
  std::uint64_t busy_start = 0;
  for (const tagged_event& te : events) {
    if (te.tid != cur_tid) {
      stack.clear();  // events are grouped by track; spans never cross tracks
      cur_tid = te.tid;
      auto& tr = tracks[cur_tid];
      tr.tid = cur_tid;
      tr.name = *te.thread_name;
    }
    const event& e = te.e;
    out.wall_ms = std::max(out.wall_ms, static_cast<double>(e.ts_ns) / 1e6);
    switch (e.k) {
      case event::kind::begin:
        if (stack.empty()) busy_start = e.ts_ns;
        stack.push_back({e.cat, e.name, e.ts_ns});
        break;
      case event::kind::end: {
        // Match the innermost open span with this cat/name; unmatched ends
        // (recording enabled mid-span) are dropped.
        for (std::size_t i = stack.size(); i-- > 0;) {
          if (std::string_view(stack[i].name) == e.name &&
              std::string_view(stack[i].cat) == e.cat) {
            const double ms = static_cast<double>(e.ts_ns - stack[i].ts) / 1e6;
            durations[std::string(e.cat) + ":" + e.name].push_back(ms);
            stack.erase(stack.begin() + static_cast<std::ptrdiff_t>(i));
            if (stack.empty()) {
              tracks[cur_tid].busy_ms += static_cast<double>(e.ts_ns - busy_start) / 1e6;
            }
            break;
          }
        }
        break;
      }
      case event::kind::counter:
        counters[std::string(e.cat) + ":" + e.name] =
            std::max(counters[std::string(e.cat) + ":" + e.name], e.arg0);
        break;
      case event::kind::instant:
        // Instants carrying a "delta" payload are summable counters (e.g.
        // the per-finish device_check_stats increments from device_sweep).
        if (e.arg0_key && std::string_view(e.arg0_key) == "delta") {
          counters[std::string(e.cat) + ":" + e.name] += e.arg0;
        }
        break;
    }
  }

  for (auto& [key, samples] : durations) {
    std::sort(samples.begin(), samples.end());
    span_stats s;
    s.key = key;
    s.count = samples.size();
    for (const double d : samples) s.total_ms += d;
    s.p50_ms = samples[samples.size() / 2];
    s.p95_ms = samples[(samples.size() * 95) / 100 == samples.size()
                           ? samples.size() - 1
                           : (samples.size() * 95) / 100];
    s.max_ms = samples.back();
    out.spans.push_back(std::move(s));
  }
  for (const auto& [key, v] : counters) out.counters.push_back({key, v});
  for (const auto& [_, tr] : tracks) out.tracks.push_back(tr);
  return out;
}

void recorder::write_metrics(std::ostream& os) {
  const metrics_summary m = metrics();
  os << "trace metrics (wall " << m.wall_ms << " ms)\n";
  os << "  spans:                              count    total_ms      p50_ms      p95_ms      max_ms\n";
  for (const span_stats& s : m.spans) {
    char line[256];
    std::snprintf(line, sizeof(line), "    %-32s %8zu %11.3f %11.4f %11.4f %11.4f\n",
                  s.key.c_str(), s.count, s.total_ms, s.p50_ms, s.p95_ms, s.max_ms);
    os << line;
  }
  os << "  counters (end-of-run totals):\n";
  for (const counter_stats& c : m.counters) {
    os << "    " << c.key << " = " << c.last << "\n";
  }
  os << "  tracks:\n";
  for (const track_stats& t : m.tracks) {
    char line[256];
    std::snprintf(line, sizeof(line), "    tid %-3u %-16s busy %.3f ms (%.1f%% of wall)\n", t.tid,
                  t.name.empty() ? "(host)" : t.name.c_str(), t.busy_ms,
                  m.wall_ms > 0 ? 100.0 * t.busy_ms / m.wall_ms : 0.0);
    os << line;
  }
}

}  // namespace odrc::trace
