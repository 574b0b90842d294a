// Training workloads.
//
//   train-dtdg   STGraphTrainer on a GpmaGraph: TGCNEncoder link prediction
//                on the sx-stackoverflow-shaped DTDG (scale 0.02, 5 % change
//                per snapshot, F = H = 16, sequence length 8).
//   train-small  STGraphTrainer on a StaticTemporalGraph: TGCNRegressor node
//                regression on the chickenpox-shaped graph (20 nodes, 102
//                edges, 520 timestamps, 4 lags, H = 32).
//
// Untraced run: set up kSetupRepeats times (graph + model + trainer + the
// warm-up epoch; setup_s is the median), then train steady epochs on the
// last set-up until --seconds have been measured.
//
// Traced run: one untraced pass (set-up + N epochs in half the budget), then
// the same N epochs again through TracedGraph/TracedModel with spans on.
// The per-layer metrics come from the traced pass; trace_overhead compares
// the two passes' median epochs; their losses must be bit-identical.
#include <algorithm>
#include <cmath>
#include <memory>

#include "bench.hpp"
#include "core/trainer.hpp"
#include "datasets/synthetic.hpp"
#include "gpma/gpma_graph.hpp"
#include "graph/static_graph.hpp"
#include "layers.hpp"
#include "nn/models.hpp"
#include "runtime/memory_tracker.hpp"
#include "trace.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

using namespace stgraph;

constexpr int kSetupRepeats = 5;
constexpr std::size_t kEpochWindow = 5;
constexpr std::size_t kMinEpochs = 2 * kEpochWindow;

/// Generated inputs of one training workload (outside every timed region).
struct TrainData {
  bool dynamic = false;
  DtdgEvents events;                          // train-dtdg
  datasets::StaticTemporalDataset static_ds;  // train-small
  datasets::TemporalSignal signal;
  int64_t features = 0;
  int64_t hidden = 0;
  uint64_t seed = 0;
  uint32_t timestamps = 0;
};

TrainData make_data(const Options& opts) {
  TrainData d;
  d.seed = opts.seed;
  if (opts.workload == "train-dtdg") {
    d.dynamic = true;
    d.features = d.hidden = 16;
    datasets::DynamicLoadOptions lo;
    lo.feature_size = d.features;
    lo.seed = opts.seed;
    lo.scale = opts.tiny ? 0.002 : 0.02;
    const datasets::DynamicDataset ds = datasets::load_sx_stackoverflow(lo);
    d.events = datasets::make_dtdg(ds, 5.0);
    d.signal = datasets::make_dynamic_signal(d.events, lo);
  } else {
    d.features = 4;
    d.hidden = 32;
    datasets::StaticLoadOptions so;
    so.feature_size = d.features;
    so.num_timestamps = opts.tiny ? 40 : 520;
    so.seed = opts.seed;
    d.static_ds = datasets::load_chickenpox(so);
    d.signal = d.static_ds.signal;
  }
  d.timestamps = d.signal.num_timestamps();
  return d;
}

/// One constructed training stack. With `traced`, the trainer sees the
/// wrappers; `gpma` always points at the real graph object.
struct TrainStack {
  std::unique_ptr<STGraphBase> graph;
  GpmaGraph* gpma = nullptr;
  Rng rng;
  std::unique_ptr<nn::TemporalModel> model;
  std::unique_ptr<TracedGraph> traced_graph;
  std::unique_ptr<TracedModel> traced_model;
  std::unique_ptr<core::STGraphTrainer> trainer;

  TrainStack(const TrainData& d, bool traced) : rng(d.seed ^ 0x7E57ull) {
    if (d.dynamic) {
      auto g = std::make_unique<GpmaGraph>(d.events);
      gpma = g.get();
      graph = std::move(g);
      model = std::make_unique<nn::TGCNEncoder>(d.features, d.hidden, rng);
    } else {
      graph = std::make_unique<StaticTemporalGraph>(
          d.static_ds.num_nodes, d.static_ds.edges, d.static_ds.num_timestamps);
      model = std::make_unique<nn::TGCNRegressor>(d.features, d.hidden, rng);
    }
    STGraphBase* g = graph.get();
    nn::TemporalModel* m = model.get();
    if (traced) {
      traced_graph = std::make_unique<TracedGraph>(*graph);
      traced_model = std::make_unique<TracedModel>(*model);
      g = traced_graph.get();
      m = traced_model.get();
    }
    core::TrainConfig cfg;
    cfg.epochs = 1u << 20;
    cfg.sequence_length = 8;
    cfg.task = d.dynamic ? core::Task::kLinkPrediction
                         : core::Task::kNodeRegression;
    cfg.seed = d.seed;
    trainer = std::make_unique<core::STGraphTrainer>(*g, *m, d.signal, cfg);
  }
};

/// Everything one pass (set-up + steady epochs) produced.
struct Pass {
  std::vector<double> losses;  // warm-up epoch first
  std::vector<core::EpochStats> epochs;  // steady epochs
  double peak_mib = 0.0;
  uint64_t sequences = 0;
  uint64_t skipped = 0;
  LayerCounters before, after;  // around the steady epochs
  double state_stack_peak_mib = 0.0;
  std::vector<SpanRecord> spans;

  std::vector<double> epoch_seconds() const {
    std::vector<double> s;
    for (const core::EpochStats& e : epochs) s.push_back(e.seconds);
    return s;
  }
};

uint64_t sequences_per_epoch(const TrainData& d) {
  return (d.timestamps + 7) / 8;
}

/// Set up a stack and run its warm-up epoch; returns the set-up time.
double set_up(const TrainData& d, bool traced, std::unique_ptr<TrainStack>* out,
              core::EpochStats* warmup) {
  const Timer t;
  *out = std::make_unique<TrainStack>(d, traced);
  {
    Span s("core.train_epoch");
    *warmup = (*out)->trainer->train_epoch();
  }
  return t.seconds();
}

/// Train steady epochs on `stack`: until `budget_s` of epoch time has been
/// measured (at least kMinEpochs), or exactly `fixed_epochs` when non-zero.
void run_epochs(const TrainData& d, TrainStack& stack, double budget_s,
                std::size_t fixed_epochs, Pass* pass) {
  pass->before = LayerCounters::read(stack.gpma);
  stack.trainer->executor().state_stack().reset_peak();
  Tracer::instance().clear();
  const PeakMemoryRegion peak;
  double measured = 0.0;
  while (fixed_epochs ? pass->epochs.size() < fixed_epochs
                      : (measured < budget_s ||
                         pass->epochs.size() < kMinEpochs)) {
    core::EpochStats e;
    {
      Span s("core.train_epoch");
      e = stack.trainer->train_epoch();
    }
    measured += e.seconds;
    pass->losses.push_back(e.loss);
    pass->epochs.push_back(e);
  }
  pass->peak_mib = static_cast<double>(peak.peak()) / kMiB;
  pass->after = LayerCounters::read(stack.gpma);
  pass->state_stack_peak_mib =
      static_cast<double>(
          stack.trainer->executor().state_stack().peak_device_bytes()) /
      kMiB;
  pass->sequences += pass->epochs.size() * sequences_per_epoch(d);
  pass->skipped = stack.trainer->failure_stats().skipped_steps;
  pass->spans = Tracer::instance().spans();
}

void check_losses(const std::vector<double>& losses, const std::string& what,
                  Outcome* out) {
  bool finite = !losses.empty();
  for (const double l : losses) finite = finite && std::isfinite(l);
  out->check(finite, what + ": a loss is not finite");
  out->check(losses.size() >= 2 && losses.back() < losses.front(),
             what + ": loss did not fall from the first epoch to the last");
}

std::string loss_hex_json(const std::vector<double>& losses) {
  std::vector<std::string> hex;
  for (const double l : losses) hex.push_back(json_str(hexfloat(l)));
  return json_array(hex);
}

/// The per-layer metrics of a traced pass, per steady epoch.
void layer_metrics(const Pass& traced, Outcome* out) {
  const double n = static_cast<double>(traced.epochs.size());
  double fwd = 0, bwd = 0, wall = 0;
  for (const core::EpochStats& e : traced.epochs) {
    fwd += e.forward_seconds;
    bwd += e.backward_seconds;
    wall += e.seconds;
  }
  fwd /= n;
  bwd /= n;
  wall /= n;
  const double overhead = wall - fwd - bwd;
  out->set("core.forward_s", fwd, "s");
  out->set("core.backward_s", bwd, "s");
  out->set("core.step_overhead_s", overhead, "s");
  out->set("core.state_stack_peak_mib", traced.state_stack_peak_mib, "MiB");

  const auto totals = span_totals(traced.spans);
  set_span_metrics(totals, n, out);
  const double nn_step = out->metrics["nn.step_s"].value;
  const double tensor_s =
      set_counter_metrics(traced.before, traced.after, n, out);
  // Where the aggregation kernels and pool joins sit until the library
  // grows spans of its own.
  out->set("unattributed_s", nn_step + bwd - tensor_s, "s");

  // Coverage: forward time inside the wrapped graph/model calls made
  // directly by the trainer, plus backward and the per-step overhead, as a
  // share of the epoch.
  std::map<uint64_t, const SpanRecord*> epoch_spans;
  for (const SpanRecord& s : traced.spans)
    if (std::string(s.name) == "core.train_epoch") epoch_spans[s.id] = &s;
  double forward_attributed = 0.0;
  for (const SpanRecord& s : traced.spans) {
    const std::string name = s.name;
    if (epoch_spans.count(s.parent) &&
        (name == "nn.step" || name == "graph.get_graph" ||
         name == "graph.prefetch"))
      forward_attributed += static_cast<double>(s.end_ns - s.start_ns) / 1e9;
  }
  forward_attributed /= n;
  out->set("coverage_share", ratio(forward_attributed + bwd + overhead, wall),
           "ratio");

  out->detail["spans_per_epoch"] = span_report(totals, n);
  out->detail["coverage"] = json_object(
      {{"epoch_s", json_num(wall)},
       {"forward_in_graph_and_nn_s", json_num(forward_attributed)},
       {"forward_other_s", json_num(fwd - forward_attributed)},
       {"backward_s", json_num(bwd)},
       {"step_overhead_s", json_num(overhead)},
       {"tensor_ops_s", json_num(tensor_s)},
       {"unattributed_s", json_num(nn_step + bwd - tensor_s)}});
}

}  // namespace

Outcome run_train(const Options& opts) {
  Outcome out;
  const TrainData data = make_data(opts);
  out.detail["timestamps"] = std::to_string(data.timestamps);
  out.detail["nodes"] = std::to_string(data.signal.features[0].rows());

  if (!opts.trace) {
    std::vector<double> setups;
    std::vector<double> warmup_losses;
    std::unique_ptr<TrainStack> stack;
    Pass pass;
    for (int r = 0; r < kSetupRepeats; ++r) {
      stack.reset();  // one stack alive at a time (peak memory)
      core::EpochStats warm;
      setups.push_back(set_up(data, false, &stack, &warm));
      warmup_losses.push_back(warm.loss);
      pass.sequences += sequences_per_epoch(data);
    }
    pass.losses.push_back(warmup_losses.back());
    run_epochs(data, *stack, opts.seconds, 0, &pass);

    bool same = true;
    for (const double l : warmup_losses)
      same = same && hexfloat(l) == hexfloat(warmup_losses.front());
    out.check(same, "warm-up loss differs between set-ups with the same seed");
    check_losses(pass.losses, opts.workload, &out);

    // Tail and throughput are medians over windows of kEpochWindow
    // consecutive epochs (the window's nearest-rank p99 is its slowest
    // epoch): on this machine a slow spell lasts several epochs, and a
    // window statistic lets it move a few windows, not the run's figure.
    const std::vector<double> secs = pass.epoch_seconds();
    std::vector<double> window_p99, window_rate;
    for (std::size_t w = 0; w + kEpochWindow <= secs.size(); w += kEpochWindow) {
      const std::vector<double> win(secs.begin() + w,
                                    secs.begin() + w + kEpochWindow);
      double total = 0.0;
      for (const double s : win) total += s;
      window_p99.push_back(percentile(win, 99.0));
      window_rate.push_back(static_cast<double>(kEpochWindow * data.timestamps) /
                            total);
    }
    out.set("setup_s", median(setups), "s");
    out.set("peak_mib", pass.peak_mib, "MiB");
    out.set("latency_p50_ms", median(secs) * 1e3, "ms");
    out.set("latency_p99_ms", median(window_p99) * 1e3, "ms");
    out.set("throughput_per_s", median(window_rate), "1/s");
    out.attempted = pass.sequences;
    out.failed = pass.skipped;

    out.detail["setup_s"] = json_array(setups);
    out.detail["epoch_s"] = json_array(secs);
    out.detail["epochs"] = std::to_string(secs.size());
    out.detail["loss_hex"] = loss_hex_json(pass.losses);
    out.detail["warmup_loss_hex"] = loss_hex_json(warmup_losses);
    return out;
  }

  // Traced run: untraced pass, then the same epochs through the wrappers.
  Pass plain;
  {
    std::unique_ptr<TrainStack> stack;
    core::EpochStats warm;
    set_up(data, false, &stack, &warm);
    plain.losses.push_back(warm.loss);
    plain.sequences += sequences_per_epoch(data);
    run_epochs(data, *stack, opts.seconds / 2, 0, &plain);
  }
  Pass traced;
  {
    std::unique_ptr<TrainStack> stack;
    core::EpochStats warm;
    Tracer::instance().set_enabled(true);
    set_up(data, true, &stack, &warm);
    traced.losses.push_back(warm.loss);
    traced.sequences += sequences_per_epoch(data);
    run_epochs(data, *stack, 0.0, plain.epochs.size(), &traced);
    Tracer::instance().set_enabled(false);
  }
  check_losses(plain.losses, opts.workload + " (untraced pass)", &out);
  check_losses(traced.losses, opts.workload + " (traced pass)", &out);
  out.check(loss_hex_json(plain.losses) == loss_hex_json(traced.losses),
            "traced losses differ from untraced losses");
  out.attempted = plain.sequences + traced.sequences;
  out.failed = plain.skipped + traced.skipped;

  layer_metrics(traced, &out);
  out.set("trace_overhead",
          median(traced.epoch_seconds()) / median(plain.epoch_seconds()) - 1.0,
          "ratio");
  const std::string trace_path =
      opts.out_dir + "/trace-" + opts.workload + ".json";
  write_chrome_trace(traced.spans, trace_path);
  out.detail["trace_file"] = json_str(trace_path);
  out.detail["loss_hex"] = loss_hex_json(traced.losses);
  out.detail["epoch_s_untraced"] = json_array(plain.epoch_seconds());
  out.detail["epoch_s_traced"] = json_array(traced.epoch_seconds());
  return out;
}

}  // namespace perfbench
