// Per-layer metrics shared by the training and serving workloads: counters
// read from the library's public surfaces (tensor-op profile, fusion stats,
// GpmaGraph timers and counters) and the span totals of the wrappers.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "bench.hpp"
#include "compiler/fusion.hpp"
#include "gpma/gpma_graph.hpp"
#include "tensor/op_profile.hpp"
#include "trace.hpp"

namespace perfbench {

/// One reading of the tensor, compiler and (when present) GPMA counters.
struct LayerCounters {
  stgraph::ops::OpProfile ops;
  stgraph::compiler::fusion::FusionStats fusion;
  double position_s = 0.0, view_s = 0.0, stall_s = 0.0;
  uint64_t prefetch_hits = 0, prefetch_misses = 0;
  uint64_t incremental = 0, full_rebuilds = 0;
  double gpma_device_mib = 0.0;

  /// `gpma` may be null (a graph without GPMA counters).
  static LayerCounters read(stgraph::GpmaGraph* gpma);
};

/// Set gpma.*, tensor.* and compiler.* from the change between two readings,
/// divided by `per` (epochs, or 1 for totals). Returns the summed time of
/// the timed tensor-op classes, likewise divided.
double set_counter_metrics(const LayerCounters& before,
                           const LayerCounters& after, double per,
                           Outcome* out);

/// Set nn.* and graph.* from the wrappers' span totals, divided by `per`.
void set_span_metrics(const std::map<std::string, SpanTotals>& totals,
                      double per, Outcome* out);

/// The detail-line form of span totals: self time, total time and calls
/// per span name, divided by `per`.
std::string span_report(const std::map<std::string, SpanTotals>& totals,
                        double per);

inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

}  // namespace perfbench
