#include "e2e_trace.h"

#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace spauth::e2e {

namespace {

/// The calling thread's counter group (cycles leading, instructions), read
/// together in one call; closed when the thread exits.
class CounterGroup {
 public:
  CounterGroup() {
    leader_ = Open(PERF_COUNT_HW_CPU_CYCLES, -1);
    if (leader_ >= 0) {
      member_ = Open(PERF_COUNT_HW_INSTRUCTIONS, leader_);
    }
  }
  ~CounterGroup() {
    for (int fd : {member_, leader_}) {
      if (fd >= 0) {
        close(fd);
      }
    }
  }
  CounterGroup(const CounterGroup&) = delete;
  CounterGroup& operator=(const CounterGroup&) = delete;

  CpuCounts Read() const {
    // PERF_FORMAT_GROUP: the number of counters, then their values.
    uint64_t values[3] = {};
    if (member_ < 0 || read(leader_, values, sizeof(values)) !=
                           static_cast<ssize_t>(sizeof(values))) {
      return {};
    }
    return {values[1], values[2]};
  }

 private:
  static int Open(uint64_t config, int group) {
    perf_event_attr attr{};
    attr.size = sizeof(attr);
    attr.type = PERF_TYPE_HARDWARE;
    attr.config = config;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    attr.read_format = PERF_FORMAT_GROUP;
    return static_cast<int>(
        syscall(SYS_perf_event_open, &attr, 0, -1, group, 0));
  }

  int leader_ = -1;
  int member_ = -1;
};

}  // namespace

CpuCounts ThreadCounts() {
  thread_local const CounterGroup counters;
  return counters.Read();
}

double Samples::Sum() const {
  double sum = 0;
  for (double v : values_) {
    sum += v;
  }
  return sum;
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

double Samples::Percentile(double p) const {
  if (values_.empty()) {
    return 0;
  }
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

double Samples::TailPercentileRank() const {
  for (double p : {99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(values_.size()) * (100.0 - p) / 100.0 >= 10.0) {
      return p;
    }
  }
  return 50.0;
}

double Samples::WindowMedian(
    size_t window, const std::function<double(const Samples&)>& stat) const {
  Samples per_window;
  const size_t windows = std::max<size_t>(1, values_.size() / window);
  for (size_t w = 0; w < windows; ++w) {
    Samples slice;
    const size_t end = w + 1 == windows ? values_.size() : (w + 1) * window;
    slice.values_.assign(values_.begin() + w * window, values_.begin() + end);
    per_window.Add(stat(slice));
  }
  return per_window.Percentile(50);
}

namespace {

// Trace files stay loadable in a browser: events past this many are kept in
// the summary but not written to the trace file.
constexpr size_t kMaxTraceEvents = 100000;

struct SpanRecord {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  uint64_t id;
  uint64_t parent;
  uint64_t request;
};

struct CountRecord {
  const char* name;
  const char* unit;
  double value;
};

struct ThreadLog {
  uint32_t tid = 0;
  uint64_t next_seq = 1;
  std::vector<uint64_t> stack;  // open span ids, innermost last
  std::vector<SpanRecord> spans;
  std::vector<CountRecord> counts;
};

std::atomic<bool> g_enabled{false};
std::mutex g_logs_mu;
// Logs outlive their threads: the summary is built after every worker has
// been joined.
std::vector<std::unique_ptr<ThreadLog>> g_logs;

ThreadLog& Log() {
  thread_local ThreadLog* log = [] {
    std::lock_guard<std::mutex> lock(g_logs_mu);
    g_logs.push_back(std::make_unique<ThreadLog>());
    g_logs.back()->tid = static_cast<uint32_t>(g_logs.size());
    return g_logs.back().get();
  }();
  return *log;
}

/// Per-name self-time (or count) samples, in each name's reporting unit.
struct LayerSamples {
  std::string name;
  const char* unit = "us";  // a string literal
  Samples samples;
};

/// The unit a span's name declares by its suffix, and ns per unit.
std::pair<const char*, double> UnitOf(std::string_view name) {
  if (name.ends_with("_ms")) {
    return {"ms", 1e6};
  }
  if (name.ends_with("_s")) {
    return {"s", 1e9};
  }
  return {"us", 1e3};
}

std::vector<LayerSamples> SummarizeLayers() {
  std::lock_guard<std::mutex> lock(g_logs_mu);
  std::map<std::string, LayerSamples> layers;
  // Per-request totals: (name, request) -> self time in the name's unit.
  std::map<std::pair<std::string, uint64_t>, double> per_request;
  for (const auto& log : g_logs) {
    std::unordered_map<uint64_t, int64_t> child_ns;
    for (const SpanRecord& s : log->spans) {
      if (s.parent != 0) {
        child_ns[s.parent] += s.end_ns - s.start_ns;
      }
    }
    for (const SpanRecord& s : log->spans) {
      const auto it = child_ns.find(s.id);
      const int64_t self =
          s.end_ns - s.start_ns - (it == child_ns.end() ? 0 : it->second);
      const auto [unit, ns_per_unit] = UnitOf(s.name);
      const double value = static_cast<double>(self) / ns_per_unit;
      LayerSamples& layer = layers[s.name];
      layer.name = s.name;
      layer.unit = unit;
      if (s.request != 0) {
        per_request[{s.name, s.request}] += value;
      } else {
        layer.samples.Add(value);
      }
    }
    for (const CountRecord& c : log->counts) {
      LayerSamples& layer = layers[c.name];
      layer.name = c.name;
      layer.unit = c.unit;
      layer.samples.Add(c.value);
    }
  }
  for (const auto& [key, value] : per_request) {
    layers[key.first].samples.Add(value);
  }
  std::vector<LayerSamples> out;
  out.reserve(layers.size());
  for (auto& [name, layer] : layers) {
    out.push_back(std::move(layer));
  }
  return out;
}

}  // namespace

void EnableTracing() { g_enabled.store(true, std::memory_order_release); }

bool TracingEnabled() { return g_enabled.load(std::memory_order_acquire); }

Span::Span(const char* name, uint64_t request)
    : name_(name), request_(request), start_ns_(NowNs()) {
  if (TracingEnabled()) {
    ThreadLog& log = Log();
    id_ = (static_cast<uint64_t>(log.tid) << 40) | log.next_seq++;
    parent_ = log.stack.empty() ? 0 : log.stack.back();
    log.stack.push_back(id_);
  }
}

int64_t Span::End() {
  if (end_ns_ >= 0) {
    return end_ns_ - start_ns_;
  }
  end_ns_ = NowNs();
  if (id_ != 0) {
    ThreadLog& log = Log();
    // Spans are scoped, so the one ending is the innermost open span.
    if (!log.stack.empty() && log.stack.back() == id_) {
      log.stack.pop_back();
    }
    log.spans.push_back({name_, start_ns_, end_ns_, id_, parent_, request_});
  }
  return end_ns_ - start_ns_;
}

int64_t Span::elapsed_ns() const {
  return (end_ns_ >= 0 ? end_ns_ : NowNs()) - start_ns_;
}

void Count(const char* name, double value, const char* unit) {
  if (TracingEnabled()) {
    Log().counts.push_back({name, unit, value});
  }
}

bool WriteTrace(const std::string& trace_path, const std::string& summary_path,
                const std::string& extra_json) {
  {
    std::FILE* f = std::fopen(trace_path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::lock_guard<std::mutex> lock(g_logs_mu);
    int64_t t0 = INT64_MAX;
    for (const auto& log : g_logs) {
      for (const SpanRecord& s : log->spans) {
        t0 = std::min(t0, s.start_ns);
      }
    }
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
    size_t written = 0;
    for (const auto& log : g_logs) {
      for (const SpanRecord& s : log->spans) {
        if (written == kMaxTraceEvents) {
          break;
        }
        std::fprintf(f,
                     "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"id\": %llu, \"parent\": %llu, \"req\": %llu}}",
                     written == 0 ? "" : ",", s.name, log->tid,
                     static_cast<double>(s.start_ns - t0) / 1e3,
                     static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request));
        ++written;
      }
    }
    std::fprintf(f, "\n]}\n");
    if (std::fclose(f) != 0) {
      return false;
    }
  }

  std::FILE* f = std::fopen(summary_path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"layers\": {");
  bool first = true;
  for (const LayerSamples& layer : SummarizeLayers()) {
    std::fprintf(f,
                 "%s\n  \"%s\": {\"unit\": \"%s\", \"n\": %zu, \"mean\": %.6g, "
                 "\"p50\": %.6g, \"p99\": %.6g}",
                 first ? "" : ",", layer.name.c_str(), layer.unit,
                 layer.samples.n(), layer.samples.Mean(),
                 layer.samples.Percentile(50), layer.samples.Percentile(99));
    first = false;
  }
  std::fprintf(f, "\n}%s%s}\n", extra_json.empty() ? "" : ",\n",
               extra_json.c_str());
  return std::fclose(f) == 0;
}

}  // namespace spauth::e2e
