#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace turnstile {
namespace obs {

namespace {

std::string FormatDouble(double value) {
  if (std::isinf(value)) {
    return value > 0 ? "+Inf" : "-Inf";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

// Splits a registry key made by MetricWithLabel back into family and label
// block: "a.b{x=\"y\"}" -> ("a.b", "{x=\"y\"}"). Unlabeled keys return an
// empty label block. Only the family part is sanitized for exposition — the
// label block already carries escaped values.
std::pair<std::string, std::string> SplitLabels(const std::string& key) {
  size_t brace = key.find('{');
  if (brace == std::string::npos) {
    return {key, ""};
  }
  return {key.substr(0, brace), key.substr(brace)};
}

// Renders a possibly-labeled registry key for exposition, with optional
// extra label content merged inside the block (used for histogram `le`).
std::string PrometheusSeries(const std::string& key, const std::string& suffix = "",
                             const std::string& extra_label = "") {
  auto [family, labels] = SplitLabels(key);
  std::string out = PrometheusName(family) + suffix;
  if (labels.empty()) {
    if (!extra_label.empty()) {
      out += "{" + extra_label + "}";
    }
    return out;
  }
  if (extra_label.empty()) {
    return out + labels;
  }
  // Inject before the closing brace: {a="b"} + le="x" -> {a="b",le="x"}.
  return out + labels.substr(0, labels.size() - 1) + "," + extra_label + "}";
}

}  // namespace

// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.
std::string PrometheusName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
              c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string PrometheusLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string MetricWithLabel(const std::string& family, const std::string& label,
                            const std::string& value) {
  return family + "{" + label + "=\"" + PrometheusLabelValue(value) + "\"}";
}

// --- Histogram ---------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size()) {
  std::sort(bounds_.begin(), bounds_.end());
}

void Histogram::Observe(double value) {
  size_t i = 0;
  for (; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      buckets_[i].fetch_add(1, std::memory_order_relaxed);
      break;
    }
  }
  if (i == bounds_.size()) {
    inf_bucket_.fetch_add(1, std::memory_order_relaxed);
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<uint64_t> Histogram::CumulativeCounts() const {
  std::vector<uint64_t> out;
  out.reserve(buckets_.size() + 1);
  uint64_t running = 0;
  for (const std::atomic<uint64_t>& bucket : buckets_) {
    running += bucket.load(std::memory_order_relaxed);
    out.push_back(running);
  }
  out.push_back(running + inf_bucket_.load(std::memory_order_relaxed));
  return out;
}

bool Histogram::Merge(const Histogram& other) {
  if (bounds_ != other.bounds_) {
    // A rejected merge used to vanish silently; make it observable. The
    // counter lives in the global registry (a Histogram has no back-pointer
    // to its owning registry), the warning fires once per process.
    Metrics::Global().GetCounter("obs.merge_rejected")->Increment();
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "obs: histogram merge rejected (bucket bounds differ; %zu vs %zu bounds); "
                   "counting under obs.merge_rejected\n",
                   bounds_.size(), other.bounds_.size());
    }
    return false;
  }
  for (size_t i = 0; i < buckets_.size(); ++i) {
    uint64_t delta = other.buckets_[i].load(std::memory_order_relaxed);
    if (delta != 0) {
      buckets_[i].fetch_add(delta, std::memory_order_relaxed);
    }
  }
  inf_bucket_.fetch_add(other.inf_bucket_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  count_.fetch_add(other.count_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  sum_.fetch_add(other.sum_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  return true;
}

void Histogram::Reset() {
  for (std::atomic<uint64_t>& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  inf_bucket_.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

double Histogram::Quantile(double q) const {
  std::vector<uint64_t> cumulative = CumulativeCounts();
  uint64_t total = cumulative.back();
  if (total == 0) {
    return 0.0;
  }
  if (total == 1) {
    // One sample: every quantile is that sample. Bucket interpolation would
    // otherwise report a fraction of the bucket's lower bound.
    return sum();
  }
  q = std::min(std::max(q, 0.0), 1.0);
  double rank = q * static_cast<double>(total);
  for (size_t i = 0; i < bounds_.size(); ++i) {
    if (static_cast<double>(cumulative[i]) >= rank) {
      double lower_bound = i == 0 ? 0.0 : bounds_[i - 1];
      uint64_t lower_count = i == 0 ? 0 : cumulative[i - 1];
      uint64_t in_bucket = cumulative[i] - lower_count;
      if (in_bucket == 0) {
        return bounds_[i];
      }
      double fraction = (rank - static_cast<double>(lower_count)) / static_cast<double>(in_bucket);
      return lower_bound + fraction * (bounds_[i] - lower_bound);
    }
  }
  // Rank falls in +Inf: no upper bound to interpolate towards, clamp to the
  // largest finite bound (or fall back to mean when there are no bounds).
  if (bounds_.empty()) {
    return sum() / static_cast<double>(total);
  }
  return bounds_.back();
}

std::vector<double> Histogram::DefaultLatencyBounds() {
  return {1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0};
}

// --- Metrics registry --------------------------------------------------------

Metrics& Metrics::Global() {
  static Metrics* instance = new Metrics();  // never destroyed: pointers must
  return *instance;                          // outlive static teardown order
}

Counter* Metrics::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = counters_.try_emplace(name);
  if (inserted) {
    it->second = std::make_unique<Counter>();
  }
  return it->second.get();
}

Gauge* Metrics::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = gauges_.try_emplace(name);
  if (inserted) {
    it->second = std::make_unique<Gauge>();
  }
  return it->second.get();
}

FloatGauge* Metrics::GetFloatGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = float_gauges_.try_emplace(name);
  if (inserted) {
    it->second = std::make_unique<FloatGauge>();
  }
  return it->second.get();
}

Histogram* Metrics::GetHistogram(const std::string& name, std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = histograms_.try_emplace(name);
  if (inserted) {
    it->second = std::make_unique<Histogram>(std::move(bounds));
  }
  return it->second.get();
}

Json Metrics::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json counters = Json::Object();
  for (const auto& [name, counter] : counters_) {
    counters.Set(name, Json(counter->value()));
  }
  Json gauges = Json::Object();
  for (const auto& [name, gauge] : gauges_) {
    gauges.Set(name, Json(static_cast<double>(gauge->value())));
  }
  for (const auto& [name, gauge] : float_gauges_) {
    gauges.Set(name, Json(gauge->value()));
  }
  Json histograms = Json::Object();
  for (const auto& [name, histogram] : histograms_) {
    Json buckets = Json::Array();
    std::vector<uint64_t> cumulative = histogram->CumulativeCounts();
    for (size_t i = 0; i < histogram->bounds().size(); ++i) {
      Json bucket = Json::Object();
      bucket.Set("le", Json(histogram->bounds()[i]));
      bucket.Set("count", Json(cumulative[i]));
      buckets.Append(std::move(bucket));
    }
    // JSON has no infinity literal; the +Inf bound is a string, as in the
    // Prometheus text exposition.
    Json inf_bucket = Json::Object();
    inf_bucket.Set("le", Json("+Inf"));
    inf_bucket.Set("count", Json(cumulative.back()));
    buckets.Append(std::move(inf_bucket));
    Json entry = Json::Object();
    entry.Set("count", Json(histogram->count()));
    entry.Set("sum", Json(histogram->sum()));
    entry.Set("p50", Json(histogram->Quantile(0.50)));
    entry.Set("p90", Json(histogram->Quantile(0.90)));
    entry.Set("p99", Json(histogram->Quantile(0.99)));
    entry.Set("buckets", std::move(buckets));
    histograms.Set(name, std::move(entry));
  }
  Json out = Json::Object();
  out.Set("counters", std::move(counters));
  out.Set("gauges", std::move(gauges));
  out.Set("histograms", std::move(histograms));
  return out;
}

std::string Metrics::ToPrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    out += "# TYPE " + PrometheusName(SplitLabels(name).first) + " counter\n";
    out += PrometheusSeries(name) + " " + std::to_string(counter->value()) + "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    out += "# TYPE " + PrometheusName(SplitLabels(name).first) + " gauge\n";
    out += PrometheusSeries(name) + " " + std::to_string(gauge->value()) + "\n";
  }
  for (const auto& [name, gauge] : float_gauges_) {
    out += "# TYPE " + PrometheusName(SplitLabels(name).first) + " gauge\n";
    out += PrometheusSeries(name) + " " + FormatDouble(gauge->value()) + "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    out += "# TYPE " + PrometheusName(SplitLabels(name).first) + " histogram\n";
    std::vector<uint64_t> cumulative = histogram->CumulativeCounts();
    for (size_t i = 0; i < histogram->bounds().size(); ++i) {
      out += PrometheusSeries(name, "_bucket",
                              "le=\"" + FormatDouble(histogram->bounds()[i]) + "\"") +
             " " + std::to_string(cumulative[i]) + "\n";
    }
    out += PrometheusSeries(name, "_bucket", "le=\"+Inf\"") + " " +
           std::to_string(cumulative.back()) + "\n";
    out += PrometheusSeries(name, "_sum") + " " + FormatDouble(histogram->sum()) + "\n";
    out += PrometheusSeries(name, "_count") + " " + std::to_string(histogram->count()) + "\n";
  }
  return out;
}

void Metrics::ResetAllForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) {
    counter->Reset();
  }
  for (auto& [name, gauge] : gauges_) {
    gauge->Reset();
  }
  for (auto& [name, gauge] : float_gauges_) {
    gauge->Reset();
  }
  for (auto& [name, histogram] : histograms_) {
    histogram->Reset();
  }
}

bool MaybeWriteMetricsSnapshot(int argc, char** argv) {
  bool requested = false;
  std::string destination;  // empty = stdout
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i] == nullptr ? "" : argv[i];
    if (arg == "--json") {
      requested = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      requested = true;
      destination = arg.substr(7);
    }
  }
  if (!requested) {
    return false;
  }
  std::string snapshot = Metrics::Global().ToJson().Dump(/*pretty=*/true);
  if (destination.empty()) {
    std::printf("%s\n", snapshot.c_str());
    return true;
  }
  std::FILE* file = std::fopen(destination.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "metrics snapshot: cannot open '%s' for writing\n",
                 destination.c_str());
    return true;
  }
  std::fprintf(file, "%s\n", snapshot.c_str());
  std::fclose(file);
  std::fprintf(stderr, "metrics snapshot written to %s\n", destination.c_str());
  return true;
}

}  // namespace obs
}  // namespace turnstile
