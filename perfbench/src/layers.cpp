#include "layers.hpp"

namespace perfbench {

using namespace stgraph;

LayerCounters LayerCounters::read(GpmaGraph* gpma) {
  LayerCounters c;
  c.ops = ops::profile_snapshot();
  c.fusion = compiler::fusion::fusion_stats();
  if (gpma != nullptr) {
    c.position_s = gpma->position_timer().total_seconds();
    c.view_s = gpma->view_timer().total_seconds();
    c.stall_s = gpma->stall_timer().total_seconds();
    c.prefetch_hits = gpma->prefetch_hits();
    c.prefetch_misses = gpma->prefetch_misses();
    c.incremental = gpma->incremental_view_updates();
    c.full_rebuilds = gpma->full_view_rebuilds();
    c.gpma_device_mib = static_cast<double>(gpma->device_bytes()) / kMiB;
  }
  return c;
}

double set_counter_metrics(const LayerCounters& b, const LayerCounters& a,
                           double per, Outcome* out) {
  auto delta = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  out->set("gpma.position_s", (a.position_s - b.position_s) / per, "s");
  out->set("gpma.view_s", (a.view_s - b.view_s) / per, "s");
  out->set("gpma.stall_s", (a.stall_s - b.stall_s) / per, "s");
  const double hits = delta(a.prefetch_hits, b.prefetch_hits);
  out->set("gpma.prefetch_hit_ratio",
           ratio(hits, hits + delta(a.prefetch_misses, b.prefetch_misses)),
           "ratio");
  const double inc = delta(a.incremental, b.incremental);
  out->set("gpma.incremental_ratio",
           ratio(inc, inc + delta(a.full_rebuilds, b.full_rebuilds)), "ratio");
  out->set("gpma.device_mib", a.gpma_device_mib, "MiB");

  const ops::OpProfile prof = a.ops - b.ops;
  double tensor_s = 0.0;
  for (int c = 0; c < ops::kOpClassCount; ++c) {
    const std::string cls = ops::op_class_name(static_cast<ops::OpClass>(c));
    out->set("tensor." + cls + "_count",
             static_cast<double>(prof.count[c]) / per, "count");
    out->set("tensor." + cls + "_mib",
             static_cast<double>(prof.bytes[c]) / kMiB / per, "MiB");
    // Shape copies are recorded untimed.
    if (static_cast<ops::OpClass>(c) != ops::OpClass::kShape) {
      const double s = static_cast<double>(prof.nanos[c]) / 1e9 / per;
      out->set("tensor." + cls + "_s", s, "s");
      tensor_s += s;
    }
  }

  const double fused_hits = delta(a.fusion.cache_hits, b.fusion.cache_hits);
  const double compiles = delta(a.fusion.cache_misses, b.fusion.cache_misses);
  out->set("compiler.fusion_hit_ratio",
           ratio(fused_hits, fused_hits + compiles), "ratio");
  out->set("compiler.fusion_compiles", compiles / per, "count");
  out->set("compiler.scratch_reuse_ratio",
           ratio(delta(a.fusion.scratch_reuses, b.fusion.scratch_reuses),
                 delta(a.fusion.scratch_acquires, b.fusion.scratch_acquires)),
           "ratio");
  return tensor_s;
}

void set_span_metrics(const std::map<std::string, SpanTotals>& totals,
                      double per, Outcome* out) {
  auto total = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_s / per;
  };
  auto calls = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0
                              : static_cast<double>(it->second.calls) / per;
  };
  out->set("nn.step_s", total("nn.step"), "s");
  out->set("nn.step_calls", calls("nn.step"), "count");
  out->set("graph.get_graph_s", total("graph.get_graph"), "s");
  out->set("graph.get_backward_graph_s", total("graph.get_backward_graph"),
           "s");
  out->set("graph.prefetch_calls", calls("graph.prefetch"), "count");
  out->set("graph.append_delta_s", total("graph.append_delta"), "s");
}

std::string span_report(const std::map<std::string, SpanTotals>& totals,
                        double per) {
  std::map<std::string, std::string> out;
  for (const auto& [name, t] : totals)
    out[name] = json_object(
        {{"self_s", json_num(t.self_s / per)},
         {"total_s", json_num(t.total_s / per)},
         {"calls", json_num(static_cast<double>(t.calls) / per)}});
  return json_object(out);
}

}  // namespace perfbench
