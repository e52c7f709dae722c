// In-memory span recorder for the traced benchmark run, written out at
// exit as Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// A span covers one call the benchmark makes into a maxwarp layer. It
// holds its name, host start and end, the span that encloses it and the
// request it belongs to (-1 for set-up), plus counters attached when it
// ends. A disabled tracer records nothing and costs one branch per call.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span nested in the innermost open one; returns its id, or
  /// -1 when disabled.
  std::int64_t begin(std::string name, std::int64_t request);

  /// Attaches a counter to an open span.
  void counter(std::int64_t id, std::string key, double value);

  /// Closes the innermost open span, which must be `id`.
  void end(std::int64_t id);

  std::size_t size() const { return spans_.size(); }

  /// {"traceEvents": [...]} with one complete ("X") event per span; the
  /// parent and request ids and the counters go in each event's args.
  void write_chrome_json(std::ostream& out) const;

 private:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    std::int64_t parent = -1;
    std::int64_t request = -1;
    std::vector<std::pair<std::string, double>> counters;
  };

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// Scope guard over Tracer::begin/end.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::int64_t request)
      : tracer_(tracer), id_(tracer.begin(std::move(name), request)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void counter(std::string key, double value) {
    tracer_.counter(id_, std::move(key), value);
  }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

}  // namespace perfbench
