// Shared declarations of the repository benchmark (perfbench): run options,
// the per-run result every workload fills in, and small statistics and
// JSON helpers. The workloads live in train.cpp and serve.cpp, the span
// recorder and the tracing wrappers in trace.hpp.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  // measured time budget of one run
  bool trace = false;     // traced run: per-layer metrics instead of e2e
  bool tiny = false;      // smoke-test sizes
  // Trace files, checkpoints and WAL directories, under the working directory.
  std::string out_dir = ".bench_out";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `metrics` holds the contract metrics (the
/// end-to-end set untraced, the per-layer set traced); `detail` holds the
/// workload-specific report printed before the result line.
struct Outcome {
  std::vector<std::string> check_failures;  // any entry makes correct=false
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> detail;  // key -> raw JSON value

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// The contract metric sets (BENCHMARK.json's end_to_end and per_layer).
/// A traced run reports 0 for a layer its workload does not reach.
struct MetricSpec {
  std::string name;
  std::string unit;
};
const std::vector<MetricSpec>& end_to_end_specs();
const std::vector<MetricSpec>& layer_specs();

Outcome run_train(const Options& opts);
Outcome run_serve(const Options& opts);

// ---- helpers -----------------------------------------------------------------

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median with linear interpolation between the two middle values (what
/// Python's statistics.median gives). 0 for an empty input.
double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100]. 0 for an empty input.
double percentile(std::vector<double> v, double p);

/// JSON number with every significant digit (NaN/Inf become null).
std::string json_num(double v);
std::string json_str(const std::string& s);
std::string json_array(const std::vector<double>& v);
std::string json_array(const std::vector<std::string>& quoted);
/// Object from key -> raw JSON value pairs, in key order.
std::string json_object(const std::map<std::string, std::string>& kv);

/// "%a" hexfloat of a double (bit-exact loss record).
std::string hexfloat(double v);

constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace perfbench
