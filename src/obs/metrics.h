// Observability: the process-wide metrics registry (counters, gauges,
// fixed-bucket latency histograms).
//
// Design constraints (ISSUE 1):
//   - lock-free on the hot path: Increment/Set/Observe are relaxed atomic
//     operations on pre-registered instruments; the registry mutex is taken
//     only at registration and snapshot time,
//   - instruments are never deallocated once registered, so callers cache the
//     returned pointer (one hash lookup at setup, zero at use),
//   - exposition in both JSON (src/support/json) and Prometheus text format,
//     so benches can dump machine-readable snapshots alongside figure output.
#ifndef TURNSTILE_SRC_OBS_METRICS_H_
#define TURNSTILE_SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/support/json.h"

namespace turnstile {
namespace obs {

// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Instantaneous level (queue depths, map sizes). Signed: levels go down.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Instantaneous floating-point level (ratios, fractions, medians). The
// integer Gauge stays the default; this exists for derived values like
// `dift.overhead_fraction` that lose all meaning when truncated.
class FloatGauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram. Bucket i counts observations <= bounds[i]; one
// implicit +Inf bucket catches the rest. Observe() is a branch-light linear
// scan over a handful of bounds plus two relaxed atomics — no locking.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  // Cumulative count per bound (Prometheus `le` semantics) + the +Inf total.
  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<uint64_t> CumulativeCounts() const;
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  // Estimated q-quantile (q in [0,1]) by linear interpolation within the
  // bucket that crosses rank q*count, assuming uniform spread inside the
  // bucket (the Prometheus `histogram_quantile` rule). The first bucket
  // interpolates from 0; a rank landing in +Inf clamps to the largest finite
  // bound. Returns 0 when the histogram is empty and the sample itself when
  // exactly one value was observed (interpolation degenerates there).
  double Quantile(double q) const;
  void Reset();

  // Folds `other`'s observations into this histogram: per-bucket counts, the
  // +Inf bucket, count and sum all add (relaxed atomics on both sides).
  // Requires identical bounds — returns false and merges nothing otherwise.
  // The merge is snapshot-level, not atomic with respect to concurrent
  // Observe() on `other`: callers merge from quiescent or same-thread
  // histograms (the fleet runtime merges per-context histograms only after
  // shard joins or at snapshot time), so hot Observe() paths never lock.
  bool Merge(const Histogram& other);

  // Default latency bounds in seconds: 1us .. 1s, decade-and-a-half steps.
  static std::vector<double> DefaultLatencyBounds();

 private:
  std::vector<double> bounds_;                  // sorted, immutable after ctor
  std::vector<std::atomic<uint64_t>> buckets_;  // per-bound (non-cumulative)
  std::atomic<uint64_t> inf_bucket_{0};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// The registry. `Metrics::Global()` is the process-wide instance every
// subsystem (flow, interp, dift, analysis, lang) reports into; tests may
// construct private instances.
class Metrics {
 public:
  static Metrics& Global();

  // Returns the named instrument, creating it on first use. Pointers are
  // stable for the registry's lifetime. Name style: "subsystem.metric"
  // (dots are mapped to underscores in Prometheus exposition).
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  FloatGauge* GetFloatGauge(const std::string& name);
  // `bounds` applies only on first registration of `name`.
  Histogram* GetHistogram(const std::string& name, std::vector<double> bounds =
                                                       Histogram::DefaultLatencyBounds());

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
  //  p50, p90, p99, buckets: [{le, count}...]}}} — keys in name order,
  //  diffable. Float gauges merge into "gauges".
  Json ToJson() const;
  // Prometheus text exposition format (one HELP-less family per instrument).
  std::string ToPrometheusText() const;

  // Zeroes every registered instrument (pointers stay valid). Test-only.
  void ResetAllForTest();

 private:
  mutable std::mutex mu_;  // guards the maps, never held during updates
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<FloatGauge>> float_gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// Sanitizes a metric-family name to the Prometheus charset
// [a-zA-Z_:][a-zA-Z0-9_:]* (invalid characters become '_', a leading digit
// gains a '_' prefix). Labels appended by MetricWithLabel are sanitized
// separately — only the part before '{' goes through this.
std::string PrometheusName(const std::string& name);

// Escapes a label value per the Prometheus text exposition rules:
// backslash, double-quote and newline become \\, \" and \n.
std::string PrometheusLabelValue(const std::string& value);

// Builds a registry key carrying one label: `family{label="escaped value"}`.
// JSON snapshots keep the key verbatim; the Prometheus exposition renders it
// as a labeled series of the (sanitized) family. Registered instruments with
// the same family but different label values are distinct series.
std::string MetricWithLabel(const std::string& family, const std::string& label,
                            const std::string& value);

// The repo-wide bench snapshot contract, shared by every bench main: a
// snapshot of the global registry is requested with `--json` (pretty JSON to
// stdout) or `--json=PATH` (pure JSON to PATH, keeping stdout for figure
// output). Returns true when a snapshot was requested (even if the file could
// not be written, which is reported on stderr).
bool MaybeWriteMetricsSnapshot(int argc, char** argv);

}  // namespace obs
}  // namespace turnstile

#endif  // TURNSTILE_SRC_OBS_METRICS_H_
