#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "e2ebench/bench.h"
#include "src/support/rng.h"

namespace turnstile::e2e {

uint64_t MessageSeed(uint64_t seed) { return Rng(seed ^ 0xBE11C0DEull).Next(); }

double Samples::Quantile(double q) {
  if (values_.empty()) {
    return 0.0;
  }
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double rank = std::ceil(q * static_cast<double>(values_.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values_[std::min(index, values_.size() - 1)];
}

std::string Samples::Describe(double scale, const char* unit) {
  char line[256];
  const size_t n = size();
  if (n < 20) {
    std::snprintf(line, sizeof(line), "n=%zu p50=%.4g max=%.4g %s", n, Median() * scale,
                  Quantile(1.0) * scale, unit);
    return line;
  }
  // The highest percentile with at least ten samples beyond it.
  const double resolvable = 1.0 - 10.0 / static_cast<double>(n);
  std::snprintf(line, sizeof(line), "n=%zu p50=%.4g p99=%.4g %s (p99 %s; p%.4g=%.4g has ten beyond it)",
                n, Median() * scale, Quantile(0.99) * scale, unit,
                n >= 1000 ? "resolved" : "has fewer than ten samples beyond it",
                resolvable * 100.0, Quantile(resolvable) * scale);
  return line;
}

double QuartileOfBins(std::vector<Samples>* bins, double q, double across) {
  Samples per_bin;
  for (Samples& bin : *bins) {
    if (bin.size() > 0) {
      per_bin.Add(bin.Quantile(q));
    }
  }
  return per_bin.Quantile(across);
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failed <= 10) {
      std::fprintf(stderr, "e2e_bench: FAILED: %s\n", what.c_str());
    }
  }
}

void Report::Tally(uint64_t operations, const std::vector<std::string>& failures) {
  for (const std::string& failure : failures) {
    Check(false, failure);
  }
  attempted += operations > failures.size() ? operations - failures.size() : 0;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

}  // namespace turnstile::e2e
