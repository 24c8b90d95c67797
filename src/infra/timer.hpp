// Wall-clock timers and the phase ledger behind Fig. 4.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
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

  /// Elapsed seconds since construction, reset() or the previous lap();
  /// restarts the stopwatch at that same reading, so consecutive laps split
  /// a span of time with one clock read each.
  double lap() {
    const clock::time_point now = clock::now();
    const double s = std::chrono::duration<double>(now - start_).count();
    start_ = now;
    return s;
  }

  [[nodiscard]] std::uint64_t nanoseconds() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - start_).count());
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// The closed set of phases a check records. Fig. 4 of the paper breaks a
/// sequential space check into partition, sweepline and edge_check; parallel
/// mode adds pack (host edge packing) and device (waiting on device streams),
/// derived-area rules add boolean, and the flat baselines add flatten.
enum class phase : std::uint8_t { partition, sweepline, edge_check, pack, device, boolean, flatten };

inline constexpr std::size_t phase_count = static_cast<std::size_t>(phase::flatten) + 1;

/// The phase's report name ("partition", "edge_check", ...).
[[nodiscard]] constexpr const char* phase_name(phase p) {
  constexpr std::array<const char*, phase_count> names = {
      "partition", "sweepline", "edge_check", "pack", "device", "boolean", "flatten"};
  return names[static_cast<std::size_t>(p)];
}

/// Accumulated seconds per phase for one report. A report has one writer:
/// each concurrent task fills a report of its own and the reports are merged
/// after the join, so the ledger takes no lock.
class phase_profiler {
 public:
  /// RAII scope: adds elapsed time to its phase on destruction.
  class scope {
   public:
    scope(phase_profiler& prof, phase p) : prof_(prof), p_(p) {}
    ~scope() { prof_.add(p_, t_.seconds()); }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

   private:
    phase_profiler& prof_;
    phase p_;
    timer t_;
  };

  void add(phase p, double seconds) {
    const auto i = static_cast<std::size_t>(p);
    seconds_[i] += seconds;
    recorded_ |= 1u << i;
  }

  [[nodiscard]] scope measure(phase p) { return scope{*this, p}; }

  phase_profiler& operator+=(const phase_profiler& o) {
    for (std::size_t i = 0; i < phase_count; ++i) seconds_[i] += o.seconds_[i];
    recorded_ |= o.recorded_;
    return *this;
  }

  /// The recorded phases by name (a phase never measured has no key).
  [[nodiscard]] std::map<std::string, double> phases() const {
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < phase_count; ++i) {
      if (recorded_ & (1u << i)) out.emplace(phase_name(static_cast<phase>(i)), seconds_[i]);
    }
    return out;
  }

  [[nodiscard]] double total() const {
    double t = 0;
    for (const double s : seconds_) t += s;
    return t;
  }

  /// Fraction of total time spent in `p` (0 when nothing recorded).
  [[nodiscard]] double fraction(phase p) const {
    const double t = total();
    return t <= 0 ? 0 : seconds_[static_cast<std::size_t>(p)] / t;
  }

 private:
  std::array<double, phase_count> seconds_{};
  std::uint32_t recorded_ = 0;  ///< bit i: phase i was measured
};

}  // namespace odrc
