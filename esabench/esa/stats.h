// Sample statistics, process counters, the host fingerprint, and the metric
// sink the benchmark reports through.
#ifndef PROCHLO_ESABENCH_ESA_STATS_H_
#define PROCHLO_ESABENCH_ESA_STATS_H_

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace prochlo::esa {

// Linear-interpolated quantile, q in [0, 1]; NaN for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return std::nan("");
  }
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

// a / b, or 0 when b is 0.
inline double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

// The highest percentile that still has at least ten samples beyond it,
// as a fraction (0.99 for 1,000 samples; 0 when there are fewer than 20).
inline double HighestSupportedQuantile(size_t samples) {
  if (samples < 20) {
    return 0;
  }
  return 1.0 - 10.0 / static_cast<double>(samples);
}

struct CpuTimes {
  double user_s = 0;
  double sys_s = 0;
  double peak_rss_mb = 0;

  double total_s() const { return user_s + sys_s; }
};

inline CpuTimes ProcessCpu() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  CpuTimes t;
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  t.user_s = seconds(usage.ru_utime);
  t.sys_s = seconds(usage.ru_stime);
  t.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
  return t;
}

struct HostFingerprint {
  unsigned cores = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
};

inline HostFingerprint Host() {
  HostFingerprint host;
  host.cores = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      host.cpu_model = colon == std::string::npos ? line : line.substr(colon + 2);
      break;
    }
  }
#if defined(__clang__)
  host.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  host.compiler = std::string("gcc ") + __VERSION__;
#else
  host.compiler = "unknown";
#endif
#ifdef ESA_BUILD_TYPE
  host.build_type = ESA_BUILD_TYPE;
#else
  host.build_type = "unknown";
#endif
  return host;
}

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// %.17g keeps every digit of a measured double; non-finite values become
// null so the output stays valid JSON.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

inline const Metric* FindMetric(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& metric : metrics) {
    if (metric.name == name) {
      return &metric;
    }
  }
  return nullptr;
}

// {"name": {"value": v, "unit": "u"}, ...} for the named metrics present.
inline std::string MetricsJson(const std::vector<Metric>& metrics,
                               const std::vector<std::string>& names) {
  std::string json = "{";
  for (const std::string& name : names) {
    const Metric* metric = FindMetric(metrics, name);
    if (metric != nullptr) {
      json += (json.size() > 1 ? ", \"" : "\"") + name + "\": {\"value\": " +
              JsonNumber(metric->value) + ", \"unit\": \"" + metric->unit + "\"}";
    }
  }
  return json + "}";
}

}  // namespace prochlo::esa

#endif  // PROCHLO_ESABENCH_ESA_STATS_H_
