// perfbench — the repository benchmark binary. perfbench/run.py builds and
// runs it; see perfbench/README.md for the workloads and metrics.
//
//   perfbench --workload <train-dtdg|train-small|serve-read|serve-mixed>
//             --seed <n> --seconds <s> --trace <0|1> [--tiny]
//             [--source-id <id>]
//
// Prints a run header line, a detail line with the workload's own report,
// and, last, the result line {"correct", "attempted", "failed", "metrics"}.
// Exits 1 when any output check failed, 2 on bad usage or when the
// environment arms a knob that changes the program under test.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "runtime/simd.hpp"
#include "runtime/thread_pool.hpp"

extern char** environ;

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    out += (i ? "," : "") + json_num(v[i]);
  return out + "]";
}

std::string json_array(const std::vector<std::string>& quoted) {
  std::string out = "[";
  for (std::size_t i = 0; i < quoted.size(); ++i)
    out += (i ? "," : "") + quoted[i];
  return out + "]";
}

std::string json_object(const std::map<std::string, std::string>& kv) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : kv) {
    out += (first ? "" : ",") + json_str(k) + ":" + v;
    first = false;
  }
  return out + "}";
}

std::string hexfloat(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"peak_mib", "MiB"},
      {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},
      {"throughput_per_s", "1/s"},
  };
  return specs;
}

const std::vector<MetricSpec>& layer_specs() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"core.forward_s", "s"},
        {"core.backward_s", "s"},
        {"core.step_overhead_s", "s"},
        {"core.state_stack_peak_mib", "MiB"},
        {"nn.step_s", "s"},
        {"nn.step_calls", "count"},
        {"graph.get_graph_s", "s"},
        {"graph.get_backward_graph_s", "s"},
        {"graph.prefetch_calls", "count"},
        {"graph.append_delta_s", "s"},
        {"gpma.position_s", "s"},
        {"gpma.view_s", "s"},
        {"gpma.stall_s", "s"},
        {"gpma.prefetch_hit_ratio", "ratio"},
        {"gpma.incremental_ratio", "ratio"},
        {"gpma.device_mib", "MiB"},
    };
    // tensor.<class>_{count,mib,s}; shape copies are recorded untimed.
    for (const std::string c : {"elementwise", "activation", "matmul", "shape",
                                "reduction", "fused"}) {
      s.push_back({"tensor." + c + "_count", "count"});
      s.push_back({"tensor." + c + "_mib", "MiB"});
      if (c != "shape") s.push_back({"tensor." + c + "_s", "s"});
    }
    const std::vector<MetricSpec> rest = {
        {"compiler.fusion_hit_ratio", "ratio"},
        {"compiler.fusion_compiles", "count"},
        {"compiler.scratch_reuse_ratio", "ratio"},
        {"unattributed_s", "s"},
        {"coverage_share", "ratio"},
        {"trace_overhead", "ratio"},
        {"net.client_overhead_us", "us"},
        {"net.frames_in", "count"},
        {"net.frames_out", "count"},
        {"net.protocol_errors", "count"},
        {"serve.server_p50_us", "us"},
        {"serve.server_p99_us", "us"},
        {"serve.batch_occupancy", "count"},
        {"serve.max_queue_depth", "count"},
        {"serve.reader_util", "ratio"},
        {"serve.cache_hit_ratio", "ratio"},
        {"serve.forward_passes", "count"},
        {"serve.forward_s", "s"},
        {"serve.ingest_s", "s"},
        {"serve.wal_records", "count"},
        {"serve.wal_mib", "MiB"},
        {"serve.shed_queue_full", "count"},
        {"serve.shed_deadline_expired", "count"},
        {"serve.shed_draining", "count"},
        {"serve.shed_circuit_open", "count"},
    };
    s.insert(s.end(), rest.begin(), rest.end());
    return s;
  }();
  return specs;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <train-dtdg|train-small|"
               "serve-read|serve-mixed> --seed <n> --seconds <s> "
               "--trace <0|1> [--tiny] [--source-id <id>]\n";
  return 2;
}

/// Knobs that change the program being measured: fault injection, the
/// validation audits and the lock-order checker.
const char* const kForbiddenEnv[] = {"STGRAPH_FAILPOINTS", "STGRAPH_VALIDATE",
                                     "STGRAPH_DEADLOCK"};

std::string run_header(const Options& opts, const std::string& source_id) {
  std::map<std::string, std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("STGRAPH_", 0) != 0) continue;
    const auto eq = kv.find('=');
    env[kv.substr(0, eq)] =
        json_str(eq == std::string::npos ? "" : kv.substr(eq + 1));
  }
  std::map<std::string, std::string> h;
  h["workload"] = json_str(opts.workload);
  h["seed"] = std::to_string(opts.seed);
  h["seconds"] = json_num(opts.seconds);
  h["trace"] = opts.trace ? "true" : "false";
  h["tiny"] = opts.tiny ? "true" : "false";
  h["nproc"] = std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  h["lanes"] = std::to_string(stgraph::ThreadPool::instance().lanes());
  h["simd"] = json_str(stgraph::simd::active_arch());
  h["build_type"] = json_str(PERFBENCH_BUILD_TYPE);
  h["source_id"] = json_str(source_id);
  h["env"] = json_object(env);
  return json_object({{"header", json_object(h)}});
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string source_id = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opts.workload = next();
      } else if (arg == "--seed") {
        opts.seed = std::stoull(next());
        have_seed = true;
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(next());
        have_seconds = true;
      } else if (arg == "--trace") {
        const std::string v = next();
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        opts.trace = v == "1";
        have_trace = true;
      } else if (arg == "--tiny") {
        opts.tiny = true;
      } else if (arg == "--source-id") {
        source_id = next();
      } else {
        return usage("unknown argument " + arg);
      }
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    return usage("--seed, --seconds and --trace are required");
  if (!(opts.seconds > 0.0)) return usage("--seconds must be positive");
  const bool is_train =
      opts.workload == "train-dtdg" || opts.workload == "train-small";
  const bool is_serve =
      opts.workload == "serve-read" || opts.workload == "serve-mixed";
  if (!is_train && !is_serve)
    return usage("unknown workload '" + opts.workload + "'");
  for (const char* name : kForbiddenEnv) {
    const char* v = std::getenv(name);
    if (v != nullptr && *v != '\0') {
      std::cerr << "perfbench: refusing to run with " << name << "=" << v
                << " set: it changes the program being measured\n";
      return 2;
    }
  }
  ::mkdir(opts.out_dir.c_str(), 0755);

  std::cout << run_header(opts, source_id) << std::endl;
  Outcome out;
  try {
    out = is_train ? run_train(opts) : run_serve(opts);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opts.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  // The result carries exactly the contract set: a layer the workload does
  // not reach reports 0; a missing end-to-end metric or a stray name fails.
  const std::vector<MetricSpec>& specs =
      opts.trace ? layer_specs() : end_to_end_specs();
  std::map<std::string, std::string> spec_units;
  for (const MetricSpec& s : specs) {
    spec_units[s.name] = s.unit;
    if (opts.trace && out.metrics.count(s.name) == 0)
      out.set(s.name, 0.0, s.unit);
    out.check(out.metrics.count(s.name) == 1,
              std::string("metric ") + s.name + " was not measured");
  }
  for (const auto& [name, m] : out.metrics)
    out.check(spec_units.count(name) == 1 && spec_units[name] == m.unit,
              "metric " + name + " [" + m.unit + "] is not in the contract");

  std::vector<std::string> failures;
  for (const std::string& f : out.check_failures) failures.push_back(json_str(f));
  for (const auto& [name, m] : out.metrics)
    if (!std::isfinite(m.value))
      failures.push_back(json_str("metric " + name + " is not finite"));
  out.detail["check_failures"] = json_array(failures);
  std::cout << json_object({{"detail", json_object(out.detail)}}) << std::endl;
  for (const std::string& f : out.check_failures)
    std::cerr << "perfbench: CHECK FAILED: " << f << "\n";

  std::map<std::string, std::string> metrics;
  for (const auto& [name, m] : out.metrics)
    metrics[name] = json_object(
        {{"value", json_num(m.value)}, {"unit", json_str(m.unit)}});
  const bool correct = failures.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<uint64_t>(out.attempted, 1)
            << ", \"failed\": " << out.failed
            << ", \"metrics\": " << json_object(metrics) << "}" << std::endl;
  return correct ? 0 : 1;
}
