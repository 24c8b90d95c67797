// Wall-clock timers and the named phase profiler behind Fig. 4.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace odrc {

/// Simple monotonic stopwatch.
class timer {
 public:
  timer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Elapsed time in seconds since construction or last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  [[nodiscard]] std::uint64_t nanoseconds() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - start_).count());
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Accumulates named phase durations. The engine records the phases that
/// Fig. 4 of the paper breaks a sequential space check into: "partition",
/// "sweepline", and "edge_check".
///
/// Thread-safe: worker threads (drc_engine::check_concurrent's group tasks)
/// may add phases, so every access to the map is
/// serialized on an internal mutex. phases() therefore returns a snapshot by
/// value — holding a reference into a concurrently mutated map was the bug.
class phase_profiler {
 public:
  phase_profiler() = default;
  phase_profiler(const phase_profiler& o) : phases_(o.snapshot()) {}
  phase_profiler(phase_profiler&& o) noexcept : phases_(o.snapshot()) {}
  phase_profiler& operator=(const phase_profiler& o) {
    if (this != &o) {
      auto copy = o.snapshot();
      std::lock_guard lk(mu_);
      phases_ = std::move(copy);
    }
    return *this;
  }
  phase_profiler& operator=(phase_profiler&& o) noexcept {
    return *this = static_cast<const phase_profiler&>(o);
  }

  /// RAII scope: adds elapsed time to `name` on destruction.
  class scope {
   public:
    scope(phase_profiler& prof, std::string name) : prof_(prof), name_(std::move(name)) {}
    ~scope() { prof_.add(name_, t_.seconds()); }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

   private:
    phase_profiler& prof_;
    std::string name_;
    timer t_;
  };

  void add(const std::string& name, double seconds) {
    std::lock_guard lk(mu_);
    phases_[name] += seconds;
  }

  [[nodiscard]] scope measure(std::string name) { return scope{*this, std::move(name)}; }

  /// Snapshot of the accumulated phases (by value: the internal map keeps
  /// changing under concurrent recorders).
  [[nodiscard]] std::map<std::string, double> phases() const { return snapshot(); }

  [[nodiscard]] double total() const {
    std::lock_guard lk(mu_);
    double t = 0;
    for (const auto& [_, s] : phases_) t += s;
    return t;
  }

  /// Fraction of total time spent in `name` (0 when nothing recorded).
  [[nodiscard]] double fraction(const std::string& name) const {
    std::lock_guard lk(mu_);
    double t = 0;
    for (const auto& [_, s] : phases_) t += s;
    if (t <= 0) return 0;
    auto it = phases_.find(name);
    return it == phases_.end() ? 0 : it->second / t;
  }

  void clear() {
    std::lock_guard lk(mu_);
    phases_.clear();
  }

 private:
  [[nodiscard]] std::map<std::string, double> snapshot() const {
    std::lock_guard lk(mu_);
    return phases_;
  }

  mutable std::mutex mu_;
  std::map<std::string, double> phases_;
};

}  // namespace odrc
