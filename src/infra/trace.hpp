// Structured run telemetry (ROADMAP: observability toward production scale).
//
// The coarse phase_profiler (timer.hpp) can only say how much wall-clock each
// report spent per phase in total; it cannot show the paper's Section V-C
// claims — stream overlap, per-row pipelining, device queue behaviour. This
// module records *spans*: begin/end event pairs carrying the recording
// thread, a category, a static name, and up to two numeric labels (row index,
// clip count, rule id, byte counts...), plus counter samples. The recording
// is exported as Chrome trace-event JSON (chrome://tracing, Perfetto's
// legacy-JSON importer) and aggregated into a metrics summary (span count,
// p50/p95/max per category:name, device counter totals).
//
// Overhead contract:
//  - disabled (the default): every instrumentation site costs ONE relaxed
//    atomic load and a predictable branch;
//  - enabled: events append to per-thread buffers behind a per-buffer mutex
//    that only its owner thread and the exporter ever contend on.
//
// Device streams appear as their own tracks: each simulated stream's
// dispatcher thread names itself "stream N" (device.cpp), so kernel and copy
// spans land on per-stream rows in the viewer — the row-pipeline overlap is
// directly visible.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace odrc::trace {

/// One recorded event. `name`/`cat` and the argument keys must be string
/// literals (or otherwise outlive the recorder) — events store the pointers.
struct event {
  enum class kind : std::uint8_t { begin, end, counter, instant };

  std::uint64_t ts_ns = 0;  ///< nanoseconds since the recorder was enabled
  const char* cat = "";
  const char* name = "";
  kind k = kind::instant;
  const char* arg0_key = nullptr;
  std::int64_t arg0 = 0;
  const char* arg1_key = nullptr;
  std::int64_t arg1 = 0;
};

/// An event plus the track it was recorded on (filled in by snapshot()).
struct tagged_event {
  event e;
  std::uint32_t tid = 0;          ///< stable per-thread track id
  const std::string* thread_name; ///< may be empty, never null
};

/// Aggregated statistics of one span population (category:name).
struct span_stats {
  std::string key;  ///< "cat:name"
  std::size_t count = 0;
  double total_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double max_ms = 0;
};

/// Aggregated counter: the final (maximum) sampled value. Device counters
/// sample running totals, so the maximum is the end-of-run total.
struct counter_stats {
  std::string key;  ///< "cat:name"
  std::int64_t last = 0;
};

/// Per-track busy time: the union-length of the track's spans. For stream
/// tracks this is the occupancy numerator of the Section V-C overlap claim.
struct track_stats {
  std::string name;
  std::uint32_t tid = 0;
  double busy_ms = 0;
};

struct metrics_summary {
  std::vector<span_stats> spans;      ///< sorted by key
  std::vector<counter_stats> counters;///< sorted by key
  std::vector<track_stats> tracks;    ///< sorted by tid
  double wall_ms = 0;                 ///< last event ts (recording wall span)
};

/// The process-wide span recorder.
class recorder {
 public:
  static recorder& instance();

  /// True while recording. The disabled path is the hot path: one relaxed
  /// load.
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Start recording: clears previous events and resets the epoch.
  void enable();
  /// Stop recording. Buffers are kept for export.
  void disable();
  /// Drop all recorded events (thread registrations and names persist).
  void clear();

  /// Name the calling thread's track ("stream 0", "sm worker 3", ...).
  /// Cheap and unconditional — names persist across enable()/clear().
  void name_this_thread(std::string name);

  // --- event emission (call only when enabled(); span/counter below gate) --
  void begin(const char* cat, const char* name, const char* k0 = nullptr,
             std::int64_t a0 = 0, const char* k1 = nullptr, std::int64_t a1 = 0);
  void end(const char* cat, const char* name, const char* k0 = nullptr, std::int64_t a0 = 0,
           const char* k1 = nullptr, std::int64_t a1 = 0);
  void counter(const char* cat, const char* name, std::int64_t value);
  void instant(const char* cat, const char* name, const char* k0 = nullptr,
               std::int64_t a0 = 0);

  /// All events recorded so far, tagged with their track, sorted by (tid, ts).
  /// Safe to call while other threads record (they keep appending; the
  /// snapshot is a consistent prefix per thread).
  [[nodiscard]] std::vector<tagged_event> snapshot();

  /// Chrome trace-event JSON ("traceEvents" array of B/E/C/M records).
  void write_chrome_json(std::ostream& os);

  /// Aggregate the recording. Unbalanced spans (begin without end at
  /// snapshot time) are ignored.
  [[nodiscard]] metrics_summary metrics();

  /// Human-readable rendering of metrics() (the CLI's --metrics output).
  void write_metrics(std::ostream& os);

 private:
  struct thread_buf {
    std::mutex mu;
    std::uint32_t tid = 0;
    std::string name;
    std::vector<event> events;
  };

  recorder() = default;
  thread_buf& local_buf();
  void emit(const event& e);

  static std::atomic<bool> enabled_;
  std::atomic<std::uint64_t> epoch_ns_{0};
  std::mutex registry_mu_;
  std::vector<std::shared_ptr<thread_buf>> buffers_;
  std::uint32_t next_tid_ = 0;
};

/// RAII span: records begin on construction and end on destruction when the
/// recorder is enabled at construction time. Constructor arguments attach to
/// the begin event; set_end_args() attaches totals known only when the span
/// closes to the end event (the Chrome viewer merges both into the slice).
class span {
 public:
  span(const char* cat, const char* name, const char* k0 = nullptr, std::int64_t a0 = 0,
       const char* k1 = nullptr, std::int64_t a1 = 0)
      : cat_(cat), name_(name), active_(recorder::enabled()) {
    if (active_) recorder::instance().begin(cat_, name_, k0, a0, k1, a1);
  }
  ~span() {
    if (active_) recorder::instance().end(cat_, name_, end_k0_, end_a0_, end_k1_, end_a1_);
  }
  span(const span&) = delete;
  span& operator=(const span&) = delete;

  void set_end_args(const char* k0, std::int64_t a0, const char* k1 = nullptr,
                    std::int64_t a1 = 0) {
    end_k0_ = k0;
    end_a0_ = a0;
    end_k1_ = k1;
    end_a1_ = a1;
  }

 private:
  const char* cat_;
  const char* name_;
  bool active_;
  const char* end_k0_ = nullptr;
  std::int64_t end_a0_ = 0;
  const char* end_k1_ = nullptr;
  std::int64_t end_a1_ = 0;
};

/// Gated counter sample.
inline void counter(const char* cat, const char* name, std::int64_t value) {
  if (recorder::enabled()) recorder::instance().counter(cat, name, value);
}

/// Gated instant event.
inline void instant(const char* cat, const char* name, const char* k0 = nullptr,
                    std::int64_t a0 = 0) {
  if (recorder::enabled()) recorder::instance().instant(cat, name, k0, a0);
}

}  // namespace odrc::trace
