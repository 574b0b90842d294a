// In-memory span recorder for the traced run, plus the two wrappers through
// which the benchmark reaches the layers the trainer and the server call
// internally:
//
//   TracedGraph  wraps an STGraphBase; spans graph.get_graph,
//                graph.get_backward_graph, graph.prefetch, graph.append_delta
//   TracedModel  wraps an nn::TemporalModel; span nn.step
//
// A span records its name, start, end, the span open on the same thread
// when it began (its parent) and, for client requests, the request id.
// Spans stay in memory until write_chrome_trace() writes them as Chrome
// trace-event JSON. Self time of a span is its duration minus the part its
// children cover.
//
// The wrappers forward every call unchanged, so a traced run computes the
// same bits as an untraced one. Two consequences for readers of the trace:
//  * the trainer looks for GPMA counters through dynamic_cast<GpmaGraph*>,
//    which fails on a TracedGraph — read gpma.* from the wrapped object;
//  * TracedModel registers the wrapped model's parameter tensors under the
//    same names, so checkpoint restore and Adam see the same model.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "graph/stgraph_base.hpp"
#include "nn/models.hpp"

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;      // 0 = root
  uint64_t request_id = 0;  // client requests only
  uint32_t thread = 0;
};

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// Record a finished span with an explicit interval (client requests are
  /// timed from their scheduled send time, not from when a thread saw them).
  void record(const char* name, int64_t start_ns, int64_t end_ns,
              uint64_t request_id);

  /// Spans recorded so far (copy), and a reset between phases.
  std::vector<SpanRecord> spans() const;
  void clear();

  // Thread-local open-span stack, used by Span.
  uint64_t begin(uint64_t* parent);
  void end(const char* name, uint64_t id, uint64_t parent, int64_t start_ns);

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  uint64_t next_id_ = 1;
};

/// RAII span on the calling thread; a no-op while tracing is off.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  int64_t start_ns_ = 0;
};

/// Per span name: total duration and self time (seconds) and call count.
struct SpanTotals {
  double total_s = 0.0;
  double self_s = 0.0;
  uint64_t calls = 0;
};
std::map<std::string, SpanTotals> span_totals(
    const std::vector<SpanRecord>& spans);

/// Write spans as Chrome trace-event JSON ("X" complete events, µs).
void write_chrome_trace(const std::vector<SpanRecord>& spans,
                        const std::string& path);

class TracedGraph final : public stgraph::STGraphBase {
 public:
  explicit TracedGraph(stgraph::STGraphBase& inner) : inner_(inner) {}

  uint32_t num_nodes() const override { return inner_.num_nodes(); }
  uint32_t num_edges_at(uint32_t t) const override {
    return inner_.num_edges_at(t);
  }
  uint32_t num_timestamps() const override { return inner_.num_timestamps(); }
  bool is_dynamic() const override { return inner_.is_dynamic(); }
  std::string format_name() const override { return inner_.format_name(); }
  std::size_t device_bytes() const override { return inner_.device_bytes(); }
  bool supports_append() const override { return inner_.supports_append(); }

  stgraph::SnapshotView get_graph(uint32_t t) override {
    Span s("graph.get_graph");
    return inner_.get_graph(t);
  }
  stgraph::SnapshotView get_backward_graph(uint32_t t) override {
    Span s("graph.get_backward_graph");
    return inner_.get_backward_graph(t);
  }
  void prefetch(uint32_t t) override {
    Span s("graph.prefetch");
    inner_.prefetch(t);
  }
  void append_delta(const stgraph::EdgeDelta& delta) override {
    Span s("graph.append_delta");
    inner_.append_delta(delta);
  }

 private:
  stgraph::STGraphBase& inner_;
};

class TracedModel final : public stgraph::nn::TemporalModel {
 public:
  explicit TracedModel(stgraph::nn::TemporalModel& inner);

  std::pair<stgraph::Tensor, stgraph::Tensor> step(
      stgraph::core::TemporalExecutor& exec, const stgraph::Tensor& x,
      const stgraph::Tensor& h, const float* edge_weights) override {
    Span s("nn.step");
    return inner_.step(exec, x, h, edge_weights);
  }
  stgraph::Tensor initial_state(int64_t num_nodes) const override {
    return inner_.initial_state(num_nodes);
  }

 protected:
  void set_training(bool training) override;

 private:
  stgraph::nn::TemporalModel& inner_;
};

}  // namespace perfbench
