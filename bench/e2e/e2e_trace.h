// Span tracing and sample statistics for the end-to-end benchmark.
//
// A Span times one call into a layer from the outside. It always measures
// (the driver computes stage residuals from the durations), but it records
// only when tracing is on: each thread appends to its own in-memory buffer,
// so the hot path takes no lock, and the buffers are written once at exit
// as Chrome trace-event JSON plus a per-layer summary.
//
// Summary semantics: a span's self time is its duration minus the time its
// child spans cover. Spans that carry a request id are summed per (name,
// request) first, so a stage that runs twice for one answer (e.g. two
// Merkle replays) reports its per-answer total. Count() records a work
// count (settled nodes, tuples, RSA operations) at the same boundaries.
#ifndef SPAUTH_BENCH_E2E_E2E_TRACE_H_
#define SPAUTH_BENCH_E2E_E2E_TRACE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace spauth::e2e {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// User-space CPU cycles and instructions retired by one thread.
struct CpuCounts {
  uint64_t cycles = 0;
  uint64_t instructions = 0;

  CpuCounts operator-(const CpuCounts& earlier) const {
    return {cycles - earlier.cycles, instructions - earlier.instructions};
  }
};

/// What the calling thread has retired since its first call (one
/// perf_event_open counter group per thread). On a shared host the clock
/// speed drifts by 10 % and more within minutes and moves every wall-clock
/// timing with it; cycles do not move with the clock (but do with other
/// tenants' load on the core), and instructions move with nothing but the
/// code path. Kernel work (write, fsync) is not counted:
/// perf_event_paranoid 2 allows user-space counting only. All zero when the
/// host exposes no counters.
CpuCounts ThreadCounts();

/// A sample set with the percentile rules the benchmark reports by.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t n() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  double Mean() const;
  /// Nearest-rank percentile, p in [0, 100]; 0 when empty.
  double Percentile(double p) const;
  /// The highest of the standard percentiles (99.9 ... 50) that still has
  /// at least ten samples beyond it; 50 when none does.
  double TailPercentileRank() const;
  /// Splits the samples, in insertion order, into consecutive windows of
  /// `window` (a short remainder joins the last window) and returns the
  /// median over windows of `stat(window)`. A burst of interference then
  /// spoils one window instead of the whole run.
  double WindowMedian(size_t window,
                      const std::function<double(const Samples&)>& stat) const;

 private:
  std::vector<double> values_;
};

/// Turns span recording on for the whole process (call before any span).
void EnableTracing();
bool TracingEnabled();

/// Times one layer call; records it (name, start, end, parent, request)
/// when tracing is on. `name` must be a string literal; its suffix (_us,
/// _ms, _s) is the unit the summary reports the self time in.
class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span early (idempotent) and returns its duration.
  int64_t End();
  int64_t elapsed_ns() const;
  double elapsed_us() const { return static_cast<double>(elapsed_ns()) / 1e3; }

 private:
  const char* name_;
  uint64_t request_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  int64_t start_ns_;
  int64_t end_ns_ = -1;
};

/// Records one work-count sample (only when tracing is on).
void Count(const char* name, double value, const char* unit = "count");

/// Writes the Chrome trace (`trace_path`) and the per-layer summary JSON
/// (`summary_path`): per name the unit, n, mean, p50 and p99. `extra_json`
/// (empty, or `"key": value` members) is appended to the summary object.
bool WriteTrace(const std::string& trace_path, const std::string& summary_path,
                const std::string& extra_json);

}  // namespace spauth::e2e

#endif  // SPAUTH_BENCH_E2E_E2E_TRACE_H_
