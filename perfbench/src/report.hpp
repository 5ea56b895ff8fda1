// Shared pieces of the perfbench driver: the run report (metrics, operation
// counts, correctness verdict), order statistics, the input/output digest
// used by the self-test, and the benchmark's own span log.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for even sizes); 0 for
/// an empty sample.
double median(std::vector<double> v);

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// Process peak resident set size (getrusage), MiB.
double peak_rss_mb();

/// Milliseconds since `t0` on the steady clock.
inline double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Everything one run prints: named metrics with units, the operations it
/// attempted and failed, and whether every correctness check held.
class Report {
 public:
  /// Set (or overwrite) a metric; output keeps first-insertion order.
  void metric(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  void attempt(std::int64_t n = 1) { attempted_ += n; }
  /// A correctness check. A failure is logged, counts as one failed
  /// operation and makes the verdict incorrect. Returns `ok`.
  bool check(bool ok, const std::string& what);
  /// Failed operations that are not check failures (refused queries).
  void fail(std::int64_t n, const std::string& what);
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  void print_json(std::ostream& os) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  bool correct_ = true;
};

/// FNV-1a digest over raw bytes; two same-seed runs must agree on every
/// digest they log.
class Digest {
 public:
  void bytes(const void* p, std::size_t n);
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof(T));
  }
  template <typename T>
  void span(const std::vector<T>& v) {
    pod(v.size());
    bytes(v.data(), v.size() * sizeof(T));
  }
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// The benchmark's own spans around each probed library call: name,
/// start, duration and parent, kept in memory and written out at the end
/// as Chrome trace-event JSON. Disabled, a span records nothing.
/// Single-threaded: only the driver's main thread opens spans.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(SpanLog& log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::int64_t index_ = -1;
  };

  /// Chrome trace JSON; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name = nullptr;
    double start_us = 0.0;
    double dur_us = 0.0;
    std::int64_t parent = -1;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

/// Runs `fn` `reps` times, each inside a span named `name`, and returns
/// the median wall time in milliseconds.
template <typename F>
double probe_ms(SpanLog& log, const char* name, int reps, F&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    SpanLog::Scope scope(log, name);
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    ms.push_back(ms_since(t0));
  }
  return median(std::move(ms));
}

/// Sets the calling thread's OpenMP team width for a scope.
class OmpLanes {
 public:
  explicit OmpLanes(int lanes);
  ~OmpLanes();
  OmpLanes(const OmpLanes&) = delete;
  OmpLanes& operator=(const OmpLanes&) = delete;

 private:
  int saved_;
};

/// Logs one line to stderr, prefixed with the driver's tag.
void log_line(const std::string& line);

}  // namespace perfbench
