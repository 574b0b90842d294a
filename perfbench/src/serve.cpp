// Serving workloads: an in-process serve::Server (2 readers, two tenant
// lanes, 25 ms default deadline) behind net::Frontend on loopback, loaded
// from an STGT checkpoint of the train-dtdg model.
//
//   serve-read   open-loop PREDICT stream, no ingest. One forward pass per
//                run; the request path sets latency and capacity.
//   serve-mixed  the same stream with the WAL armed, plus one connection
//                INGESTing the sx-stackoverflow-shaped stream windowed at
//                0.5 % change at a fixed cadence from the base snapshot.
//
// The load is open loop: a sender paces PREDICT frames on a fixed schedule
// over kConnections pipelined connections and a receiver matches responses
// by request id. Every latency is timed from the request's scheduled send
// time; the sender's lag behind the schedule is reported per phase.
//
// Phases of an untraced run: the low rate, the high rate, then a binary
// search over a fixed geometric ladder of rates for the highest one that
// passes (p99 <= 25 ms, <= 0.1 % failed, generator on schedule, no growing
// backlog). Failures count against attempts in the fixed-rate phases;
// ladder probes exist to find failures and are reported separately.
//
// Output checks: sampled PREDICT responses are memcmp-equal to the rows of
// STGraphTrainer::evaluate_outputs() at the response's tagged time
// (computed after the measured phases over the same checkpoint and
// stream), and the server's accounting identity holds.
#include <poll.h>
#include <stdlib.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "core/trainer.hpp"
#include "datasets/synthetic.hpp"
#include "gpma/gpma_graph.hpp"
#include "layers.hpp"
#include "net/client.hpp"
#include "net/frontend.hpp"
#include "nn/models.hpp"
#include "runtime/memory_tracker.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/server.hpp"
#include "trace.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

using namespace stgraph;

constexpr int64_t kFeat = 16;
constexpr int64_t kHidden = 16;
constexpr double kDeadlineMs = 25.0;
constexpr std::size_t kReaders = 2;
// Two connections carry the small requests; full-matrix requests come from
// their own connection, as an independent user's would.
constexpr std::size_t kConnections = 3;
constexpr std::size_t kFullMatrixConnection = kConnections - 1;
constexpr int kSetupRepeats = 9;
constexpr uint32_t kMaxNodesPerRequest = 64;
constexpr uint32_t kFullMatrixPerMille = 15;  // "about 1 %", off the p99 rank
constexpr uint64_t kSampleEvery = 97;      // every 97th response is checked
constexpr uint64_t kSampleFullEvery = 8;   // and every 8th full-matrix one
constexpr double kDrainTimeoutS = 1.0;
constexpr double kWarmupS = 0.25;       // before the fixed-rate phases
constexpr double kProbeWarmupS = 0.1;   // before each ladder probe
constexpr double kMaxLagP99Ms = 5.0;       // generator "fell behind" above this
constexpr double kMaxFailedRatio = 0.001;
// Fixed-rate phases are split into up to kWindows windows of at least
// kMinWindowRequests requests (>= 10 samples beyond each window's p99).
constexpr uint64_t kWindows = 20;
constexpr uint64_t kMinWindowRequests = 1000;

/// Fixed per-workload load settings. The rates are fixed once, from the
/// capacity measured on the reference machine (4 cores): lo ≈ 1/4 and
/// hi ≈ 3/4 of max_rps. The ladder is geometric, ladder_step apart.
struct LoadSpec {
  double lo_rps;
  double hi_rps;
  double ladder_min_rps;
  double ladder_step;
  int ladder_rungs;
  double ingest_period_s;  // serve-mixed only; 0 = no ingest
};

LoadSpec load_spec(const Options& opts) {
  const bool mixed = opts.workload == "serve-mixed";
  if (opts.tiny) return {200, 400, 200, 1.5, 4, mixed ? 0.05 : 0.0};
  // hi is 30 000 rather than 3/4 of capacity: at 36 000 a stall of the
  // reference VM already sheds requests, and no operation may fail.
  return {12000, 30000, 4000, 1.05, 80, mixed ? 0.1 : 0.0};
}

/// Generated inputs: the served timeline and the checkpoint to load.
struct ServeData {
  DtdgEvents events;               // base snapshot + deltas to ingest
  datasets::TemporalSignal signal;  // features (and link samples) per step
  std::string checkpoint;
  uint32_t nodes = 0;
};

datasets::TemporalSignal prefix(const datasets::TemporalSignal& s,
                                uint32_t timestamps) {
  datasets::TemporalSignal out;
  out.features.assign(s.features.begin(), s.features.begin() + timestamps);
  out.links.assign(s.links.begin(), s.links.begin() + timestamps);
  return out;
}

DtdgEvents events_prefix(const DtdgEvents& ev, uint32_t timestamps) {
  DtdgEvents out;
  out.num_nodes = ev.num_nodes;
  out.base_edges = ev.base_edges;
  out.deltas.assign(ev.deltas.begin(), ev.deltas.begin() + (timestamps - 1));
  return out;
}

core::TrainConfig link_prediction_config(uint64_t seed) {
  core::TrainConfig cfg;
  cfg.sequence_length = 8;
  cfg.task = core::Task::kLinkPrediction;
  cfg.seed = seed;
  return cfg;
}

ServeData make_data(const Options& opts) {
  datasets::DynamicLoadOptions lo;
  lo.feature_size = kFeat;
  lo.seed = opts.seed;
  lo.scale = opts.tiny ? 0.002 : 0.02;
  const datasets::DynamicDataset ds = datasets::load_sx_stackoverflow(lo);

  ServeData d;
  d.checkpoint = opts.out_dir + "/" + opts.workload + "-" +
                 std::to_string(::getpid()) + ".stgt";
  {
    // The train-dtdg model, one epoch in, checkpointed for serving.
    const DtdgEvents train_events = datasets::make_dtdg(ds, 5.0);
    const datasets::TemporalSignal train_signal =
        datasets::make_dynamic_signal(train_events, lo);
    GpmaGraph graph(train_events);
    Rng rng(opts.seed ^ 0x7E57ull);
    nn::TGCNEncoder model(kFeat, kHidden, rng);
    core::STGraphTrainer trainer(graph, model, train_signal,
                                 link_prediction_config(opts.seed));
    trainer.train_epoch();
    trainer.save_checkpoint(d.checkpoint);
    if (opts.workload == "serve-read") {
      d.events = events_prefix(train_events, 1);
      d.signal = prefix(train_signal, 1);
    }
  }
  if (opts.workload == "serve-mixed") {
    d.events = datasets::make_dtdg(ds, 0.5);
    d.signal = datasets::make_dynamic_signal(d.events, lo);
  }
  d.nodes = d.events.num_nodes;
  return d;
}

/// evaluate_outputs() over the first `timestamps` steps of the served
/// timeline, with the checkpoint's weights: the serving reference.
std::vector<Tensor> reference_outputs(const ServeData& d, uint32_t timestamps,
                                      uint64_t seed) {
  GpmaGraph graph(events_prefix(d.events, timestamps));
  Rng rng(0);
  nn::TGCNEncoder model(kFeat, kHidden, rng);
  serve::ModelSnapshot::load(d.checkpoint).install(model);
  const datasets::TemporalSignal sig = prefix(d.signal, timestamps);
  core::STGraphTrainer trainer(graph, model, sig,
                               link_prediction_config(seed));
  return trainer.evaluate_outputs();
}

/// One full serving stack on an ephemeral loopback port.
struct Stack {
  GpmaGraph graph;
  Rng rng;
  nn::TGCNEncoder model;
  std::unique_ptr<TracedGraph> traced_graph;
  std::unique_ptr<TracedModel> traced_model;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<net::Frontend> frontend;

  Stack(const ServeData& d, bool traced, const std::string& wal_path)
      : graph(events_prefix(d.events, 1)), rng(0), model(kFeat, kHidden, rng) {
    STGraphBase* g = &graph;
    nn::TemporalModel* m = &model;
    if (traced) {
      traced_graph = std::make_unique<TracedGraph>(graph);
      traced_model = std::make_unique<TracedModel>(model);
      g = traced_graph.get();
      m = traced_model.get();
    }
    serve::ServeConfig cfg;
    cfg.num_readers = kReaders;
    cfg.tenants = {{1, 3, 0}, {2, 1, 0}};
    cfg.default_deadline_ms = kDeadlineMs;
    cfg.wal_path = wal_path;
    server = std::make_unique<serve::Server>(*g, *m, cfg);
    server->load(d.checkpoint);
    server->start(d.signal.features[0]);
    frontend = std::make_unique<net::Frontend>(*server);
    frontend->start();
  }

  ~Stack() {
    if (frontend) frontend->stop();
    if (server) server->stop();
  }
};

/// A checked response: the nodes it asked for and what came back.
struct Sample {
  std::vector<uint32_t> nodes;  // empty = full matrix
  net::PredictWire wire;
};

/// One fixed-rate phase of the open-loop generator.
struct Phase {
  std::string name;
  double rate = 0.0;
  uint64_t n = 0;
  uint64_t base_id = 0;
  int64_t start_ns = 0;
  double gap_ns = 0.0;
  // Pre-encoded request frames, back to back.
  std::vector<uint8_t> bytes;
  std::vector<std::size_t> offset;  // n + 1 entries
  std::vector<std::vector<uint32_t>> sampled_nodes;  // by index, if sampled
  std::vector<uint8_t> sampled;
  std::vector<uint8_t> conn;  // connection index per request

  // Written by the receiver while it holds the generator's phase lock.
  std::vector<double> lat_us;  // by index; < 0 = no response yet
  std::vector<uint8_t> outcome;  // 0 none, 1 ok, 2 shed, 3 error
  uint64_t shed[4] = {0, 0, 0, 0};
  uint64_t errors = 0;
  std::vector<Sample> samples;
  std::atomic<uint64_t> received{0};

  // Written by the sender.
  std::vector<double> lag_us;
  uint64_t outstanding_end = 0;

  int64_t due_ns(uint64_t i) const {
    return start_ns + static_cast<int64_t>(gap_ns * static_cast<double>(i));
  }
  /// Requests [window_begin(w), window_begin(w + 1)) form window w.
  uint64_t windows() const {
    return std::max<uint64_t>(1, std::min<uint64_t>(kWindows, n / kMinWindowRequests));
  }
  uint64_t window_begin(uint64_t w) const { return n * w / windows(); }
  /// Median over the windows of a per-window latency percentile: one
  /// stall moves one window, not the run's figure. Latency runs from the
  /// scheduled send time, or with `from_send` from the actual one.
  double window_percentile(double p, bool from_send = false) const {
    std::vector<double> per_window;
    for (uint64_t w = 0; w < windows(); ++w) {
      std::vector<double> v;
      for (uint64_t i = window_begin(w); i < window_begin(w + 1); ++i)
        if (outcome[i] == 1)
          v.push_back(lat_us[i] - (from_send ? lag_us[i] : 0.0));
      per_window.push_back(percentile(v, p));
    }
    return median(per_window);
  }
  uint64_t shed_total() const { return shed[0] + shed[1] + shed[2] + shed[3]; }
  uint64_t ok() const {
    return static_cast<uint64_t>(
        std::count(outcome.begin(), outcome.end(), uint8_t{1}));
  }
  uint64_t late() const { return n - received.load(); }
  uint64_t failed() const { return shed_total() + errors + late(); }
  std::vector<double> ok_latencies() const {
    std::vector<double> v;
    v.reserve(n);
    for (uint64_t i = 0; i < n; ++i)
      if (outcome[i] == 1) v.push_back(lat_us[i]);
    return v;
  }
  bool behind() const { return percentile(lag_us, 99.0) > kMaxLagP99Ms * 1e3; }
  /// More requests in flight when sending stopped than one deadline's
  /// worth of arrivals: the queue was growing.
  bool backlog_grew() const {
    return static_cast<double>(outstanding_end) >
           16.0 + rate * kDeadlineMs / 1e3;
  }
  bool passes() const {
    return !behind() && !backlog_grew() &&
           static_cast<double>(failed()) <=
               kMaxFailedRatio * static_cast<double>(n) &&
           percentile(ok_latencies(), 99.0) <= kDeadlineMs * 1e3;
  }

  std::string report() const {
    const std::vector<double> lat = ok_latencies();
    return json_object(
        {{"rate_rps", json_num(rate)},
         {"issued", std::to_string(n)},
         {"ok", std::to_string(ok())},
         {"shed_queue_full", std::to_string(shed[0])},
         {"shed_deadline_expired", std::to_string(shed[1])},
         {"shed_draining", std::to_string(shed[2])},
         {"shed_circuit_open", std::to_string(shed[3])},
         {"errors", std::to_string(errors)},
         {"late", std::to_string(late())},
         {"p50_us", json_num(median(lat))},
         {"p99_us", json_num(percentile(lat, 99.0))},
         {"samples", std::to_string(lat.size())},
         {"windows", std::to_string(windows())},
         {"window_p50_us", json_num(window_percentile(50.0))},
         {"window_p99_us", json_num(window_percentile(99.0))},
         {"window_from_send_p50_us", json_num(window_percentile(50.0, true))},
         {"window_from_send_p99_us", json_num(window_percentile(99.0, true))},
         {"send_lag_p50_us", json_num(median(lag_us))},
         {"send_lag_p99_us", json_num(percentile(lag_us, 99.0))},
         {"outstanding_at_end", std::to_string(outstanding_end)},
         {"generator_behind", behind() ? "true" : "false"},
         {"backlog_grew", backlog_grew() ? "true" : "false"},
         {"passes", passes() ? "true" : "false"}});
  }
};

/// Open-loop PREDICT generator over kConnections pipelined connections:
/// the calling thread sends, one receiver thread matches responses.
class Generator {
 public:
  Generator(uint16_t port, uint32_t nodes, uint64_t seed)
      : nodes_(nodes), rng_(seed ^ 0x9E4E7A70ull) {
    for (std::size_t c = 0; c < kConnections; ++c)
      conns_.push_back(std::make_unique<net::Client>("127.0.0.1", port, 60000.0));
    decoders_.resize(kConnections);
    receiver_ = std::thread([this] { receive_loop(); });
  }
  ~Generator() {
    stop_.store(true, std::memory_order_release);
    receiver_.join();
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// True once a response stream failed to decode.
  bool broken() const { return broken_.load(std::memory_order_acquire); }

  /// Build a phase's requests (outside the timed region).
  std::unique_ptr<Phase> prepare(const std::string& name, double rate,
                                 double seconds) {
    auto p = std::make_unique<Phase>();
    p->name = name;
    p->rate = rate;
    p->n = std::max<uint64_t>(1, static_cast<uint64_t>(rate * seconds));
    p->base_id = next_id_;
    next_id_ += p->n;
    p->gap_ns = 1e9 / rate;
    p->offset.reserve(p->n + 1);
    p->sampled_nodes.resize(p->n);
    p->sampled.assign(p->n, 0);
    uint64_t full_count = 0;
    for (uint64_t i = 0; i < p->n; ++i) {
      std::vector<uint32_t> ids;
      const bool full = rng_.next_below(1000) < kFullMatrixPerMille;
      if (!full) {
        ids.resize(1 + rng_.next_below(kMaxNodesPerRequest));
        for (uint32_t& v : ids) v = static_cast<uint32_t>(rng_.next_below(nodes_));
      }
      net::Frame f;
      f.verb = net::Verb::kPredict;
      f.tenant = (i % 4 == 3) ? 2 : 1;  // 3:1, matching the lanes' weights
      f.request_id = p->base_id + i;
      f.payload = net::build_predict_request(ids);
      const std::vector<uint8_t> enc = net::encode_frame(f);
      p->conn.push_back(static_cast<uint8_t>(
          full ? kFullMatrixConnection : i % kFullMatrixConnection));
      p->offset.push_back(p->bytes.size());
      p->bytes.insert(p->bytes.end(), enc.begin(), enc.end());
      if (i % kSampleEvery == 0 || (full && full_count++ % kSampleFullEvery == 0)) {
        p->sampled[i] = 1;
        p->sampled_nodes[i] = std::move(ids);
      }
    }
    p->offset.push_back(p->bytes.size());
    p->lat_us.assign(p->n, -1.0);
    p->outcome.assign(p->n, 0);
    p->lag_us.resize(p->n);
    return p;
  }

  /// Send the phase on schedule, then wait for its responses.
  void run(Phase& p) {
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    p.start_ns = now_ns() + 2'000'000;
    {
      std::lock_guard<std::mutex> lk(mu_);
      current_ = &p;
    }
    uint64_t i = 0;
    while (i < p.n) {
      const int64_t wait = p.due_ns(i) - now_ns();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      const int64_t now = now_ns();
      for (; i < p.n && p.due_ns(i) <= now; ++i) {
        p.lag_us[i] = static_cast<double>(now_ns() - p.due_ns(i)) / 1e3;
        conns_[p.conn[i]]->send_raw(p.bytes.data() + p.offset[i],
                                    p.offset[i + 1] - p.offset[i]);
      }
    }
    p.outstanding_end = p.n - p.received.load(std::memory_order_acquire);
    const int64_t give_up = now_ns() + static_cast<int64_t>(kDrainTimeoutS * 1e9);
    while (p.received.load(std::memory_order_acquire) < p.n &&
           now_ns() < give_up)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::lock_guard<std::mutex> lk(mu_);
    current_ = nullptr;
  }

 private:
  void receive_loop() {
    std::vector<pollfd> fds(kConnections);
    for (std::size_t c = 0; c < kConnections; ++c)
      fds[c] = pollfd{conns_[c]->fd(), POLLIN, 0};
    std::vector<char> buf(256 * 1024);
    while (!stop_.load(std::memory_order_acquire)) {
      if (::poll(fds.data(), fds.size(), 5) <= 0) continue;
      for (std::size_t c = 0; c < kConnections; ++c) {
        if (!(fds[c].revents & (POLLIN | POLLERR | POLLHUP))) continue;
        const ssize_t got = ::recv(fds[c].fd, buf.data(), buf.size(), MSG_DONTWAIT);
        if (got == 0) fds[c].fd = -1;  // the server closed it; poll skips it
        if (got <= 0) continue;
        const int64_t now = now_ns();
        decoders_[c].feed(buf.data(), static_cast<std::size_t>(got));
        net::Frame f;
        std::string line;
        std::lock_guard<std::mutex> lk(mu_);
        net::FrameDecoder::Status st;
        while ((st = decoders_[c].next(&f, &line)) ==
               net::FrameDecoder::Status::kFrame)
          on_frame(f, now);
        if (st != net::FrameDecoder::Status::kNeedMore) {
          broken_.store(true, std::memory_order_release);
          fds[c].fd = -1;
        }
      }
    }
  }

  void on_frame(const net::Frame& f, int64_t now) {
    Phase* p = current_;
    if (p == nullptr || f.request_id < p->base_id ||
        f.request_id >= p->base_id + p->n)
      return;  // a straggler from a finished phase
    const uint64_t i = f.request_id - p->base_id;
    if (p->outcome[i] != 0) return;
    p->lat_us[i] = static_cast<double>(now - p->due_ns(i)) / 1e3;
    if (f.verb == net::Verb::kPredictResp) {
      p->outcome[i] = 1;
      if (p->sampled[i]) {
        try {
          p->samples.push_back(Sample{p->sampled_nodes[i],
                                      net::parse_predict_response(f.payload)});
        } catch (const std::exception&) {
          broken_.store(true, std::memory_order_release);
        }
      }
    } else if (f.verb == net::Verb::kError) {
      std::string msg;
      const auto code = static_cast<uint8_t>(net::parse_error(f.payload, &msg));
      if (code < 4) {
        ++p->shed[code];
        p->outcome[i] = 2;
      } else {
        ++p->errors;
        p->outcome[i] = 3;
      }
    } else {
      ++p->errors;
      p->outcome[i] = 3;
    }
    if (Tracer::instance().enabled())
      Tracer::instance().record("client.predict", p->due_ns(i), now,
                                f.request_id);
    p->received.fetch_add(1, std::memory_order_release);
  }

  uint32_t nodes_;
  Rng rng_;
  uint64_t next_id_ = 1;
  std::vector<std::unique_ptr<net::Client>> conns_;
  std::vector<net::FrameDecoder> decoders_;
  std::mutex mu_;
  Phase* current_ = nullptr;  // guarded by mu_
  std::atomic<bool> stop_{false};
  std::atomic<bool> broken_{false};
  std::thread receiver_;  // last: joins before the members it uses go
};

/// serve-mixed's writer: one connection INGESTing the stream at a fixed
/// cadence, each call timed from its scheduled time.
class Ingester {
 public:
  Ingester(uint16_t port, const ServeData& d, double period_s)
      : data_(d), period_s_(period_s),
        client_("127.0.0.1", port, 60000.0),
        thread_([this] { loop(); }) {}
  ~Ingester() { finish(); }
  Ingester(const Ingester&) = delete;
  Ingester& operator=(const Ingester&) = delete;

  void finish() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  std::vector<double> lat_ms;  // read after finish()
  uint64_t committed = 0;
  uint64_t failed = 0;
  bool exhausted = false;
  std::vector<std::string> errors;   // wrong results (failed checks)
  std::string failure;               // why the stream stopped early, if it did

 private:
  void loop() {
    const int64_t t0 = now_ns();
    for (uint64_t k = 0;; ++k) {
      const int64_t due = t0 + static_cast<int64_t>(period_s_ * 1e9 * static_cast<double>(k));
      // Sleep to the due time in slices of at most 5 ms, so finish() is
      // prompt and the last slice ends on schedule.
      for (int64_t wait = due - now_ns();
           wait > 0 && !stop_.load(std::memory_order_acquire);
           wait = due - now_ns())
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(std::min<int64_t>(wait, 5'000'000)));
      if (stop_.load(std::memory_order_acquire)) return;
      if (k >= data_.events.deltas.size()) {
        exhausted = true;
        return;
      }
      try {
        const net::IngestWire w =
            client_.ingest(data_.events.deltas[k], data_.signal.features[k + 1]);
        lat_ms.push_back(static_cast<double>(now_ns() - due) / 1e6);
        if (Tracer::instance().enabled())
          Tracer::instance().record("client.ingest", due, now_ns(), k + 1);
        if (w.time != k + 1)
          errors.push_back("ingest " + std::to_string(k) + " committed time " +
                           std::to_string(w.time));
        ++committed;
      } catch (const std::exception& e) {
        // The timeline did not advance; later deltas no longer apply.
        ++failed;
        failure = "ingest " + std::to_string(k) + " failed: " + e.what();
        return;
      }
    }
  }

  const ServeData& data_;
  double period_s_;
  net::Client client_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// A serving stack with its load generator and, in serve-mixed, its writer.
/// Members are destroyed writer first, stack last.
struct Trial {
  std::unique_ptr<Stack> stack;
  std::unique_ptr<Generator> gen;
  std::unique_ptr<Ingester> ingester;
};

/// Compare sampled responses against the reference rows at their tagged
/// time; returns how many were compared.
uint64_t check_samples(const std::vector<Sample>& samples,
                       const std::vector<Tensor>& ref, Outcome* out) {
  uint64_t bad = 0;
  for (const Sample& s : samples) {
    const net::PredictWire& w = s.wire;
    if (w.time >= ref.size()) {
      ++bad;
      continue;
    }
    const Tensor& r = ref[w.time];
    const auto cols = static_cast<std::size_t>(r.cols());
    const std::size_t rows = s.nodes.empty() ? static_cast<std::size_t>(r.rows())
                                             : s.nodes.size();
    if (static_cast<std::size_t>(w.outputs.rows()) != rows ||
        static_cast<std::size_t>(w.outputs.cols()) != cols) {
      ++bad;
      continue;
    }
    for (std::size_t k = 0; k < rows; ++k) {
      const std::size_t src = s.nodes.empty() ? k : s.nodes[k];
      if (std::memcmp(w.outputs.data() + k * cols, r.data() + src * cols,
                      cols * sizeof(float)) != 0) {
        ++bad;
        break;
      }
    }
  }
  out->check(bad == 0, std::to_string(bad) + " of " +
                           std::to_string(samples.size()) +
                           " sampled PREDICT responses differ from "
                           "evaluate_outputs()");
  return samples.size();
}

/// The predict accounting identity, per tenant lane. (The global failed and
/// shed counters also count ingests, which no tenant's identity includes.)
void check_accounting(const serve::StatsReport& r, Outcome* out) {
  out->check(!r.tenants.empty(), "server reported no tenant lanes");
  for (const serve::TenantReport& t : r.tenants)
    out->check(t.issued == t.requests + t.stale_served + t.failed + t.shed_total,
               "server accounting identity fails for tenant " +
                   std::to_string(t.id));
}

int probes_needed(const LoadSpec& spec) {
  return static_cast<int>(std::ceil(std::log2(spec.ladder_rungs + 1.0)));
}

/// The per-layer metrics of a traced stack, as totals over its phases.
void layer_metrics(Stack& stack, const LayerCounters& before,
                   const std::vector<SpanRecord>& spans, double client_p50_us,
                   Outcome* out) {
  const auto totals = span_totals(spans);
  set_span_metrics(totals, 1.0, out);
  set_counter_metrics(before, LayerCounters::read(&stack.graph), 1.0, out);
  out->detail["spans"] = span_report(totals, 1.0);

  const net::FrontendStats fs = stack.frontend->stats();
  const serve::StatsReport r = stack.server->stats();
  out->set("net.client_overhead_us", client_p50_us - r.p50_us, "us");
  out->set("net.frames_in", static_cast<double>(fs.frames_in), "count");
  out->set("net.frames_out", static_cast<double>(fs.frames_out), "count");
  out->set("net.protocol_errors", static_cast<double>(fs.protocol_errors),
           "count");
  out->set("serve.server_p50_us", r.p50_us, "us");
  out->set("serve.server_p99_us", r.p99_us, "us");
  out->set("serve.batch_occupancy", r.batch_occupancy, "count");
  out->set("serve.max_queue_depth", static_cast<double>(r.max_queue_depth),
           "count");
  double util = 0.0;
  for (const double u : r.reader_utilization) util += u;
  out->set("serve.reader_util",
           ratio(util, static_cast<double>(r.reader_utilization.size())),
           "ratio");
  out->set("serve.cache_hit_ratio",
           ratio(static_cast<double>(r.cache_hits),
                 static_cast<double>(r.cache_hits + r.forward_passes)),
           "ratio");
  out->set("serve.forward_passes", static_cast<double>(r.forward_passes),
           "count");
  out->set("serve.forward_s", r.forward_seconds, "s");
  out->set("serve.ingest_s", r.ingest_seconds, "s");
  out->set("serve.wal_records", static_cast<double>(r.wal_records), "count");
  out->set("serve.wal_mib", static_cast<double>(r.wal_bytes) / kMiB, "MiB");
  out->set("serve.shed_queue_full", static_cast<double>(r.shed_queue_full),
           "count");
  out->set("serve.shed_deadline_expired",
           static_cast<double>(r.shed_deadline_expired), "count");
  out->set("serve.shed_draining", static_cast<double>(r.shed_draining), "count");
  out->set("serve.shed_circuit_open", static_cast<double>(r.shed_circuit_open),
           "count");
}

std::string ingest_report(const Ingester& ing) {
  std::vector<std::string> errs;
  for (const std::string& e : ing.errors) errs.push_back(json_str(e));
  return json_object({{"committed", std::to_string(ing.committed)},
                      {"failed", std::to_string(ing.failed)},
                      {"p50_ms", json_num(median(ing.lat_ms))},
                      {"p90_ms", json_num(percentile(ing.lat_ms, 90.0))},
                      {"stream_exhausted", ing.exhausted ? "true" : "false"},
                      {"failure", json_str(ing.failure)},
                      {"errors", json_array(errs)}});
}

/// One run of a serving workload: opens trials, runs phases on them, and
/// folds their samples and accounting into the outcome.
class ServeRun {
 public:
  ServeRun(const Options& opts, Outcome& out)
      : opts_(opts), out_(out), spec_(load_spec(opts)), data_(make_data(opts)),
        mixed_(spec_.ingest_period_s > 0.0) {
    if (mixed_) {
      std::string tmpl = opts.out_dir + "/wal-XXXXXX";
      if (::mkdtemp(tmpl.data()) == nullptr)
        throw std::runtime_error("mkdtemp failed under " + opts.out_dir);
      wal_dir_ = tmpl;
    }
  }
  ~ServeRun() {
    std::remove(data_.checkpoint.c_str());
    if (mixed_) std::filesystem::remove_all(wal_dir_);
  }
  ServeRun(const ServeRun&) = delete;
  ServeRun& operator=(const ServeRun&) = delete;

  const LoadSpec& spec() const { return spec_; }
  const ServeData& data() const { return data_; }

  /// Set up a stack and run its first forward pass (a full-matrix predict,
  /// in process and without a deadline, so a slow first pass cannot be
  /// shed); returns the set-up time. `peak_mib`, when given, receives the
  /// stack's peak tracked memory during set-up (inputs held by the run object
  /// excluded). The generator is connected and warmed afterwards, outside
  /// the set-up time.
  double open(bool traced, Trial* t, double* peak_mib = nullptr) {
    const std::string wal =
        mixed_ ? wal_dir_ + "/serve-" + std::to_string(wal_seq_++) + ".stgw"
               : std::string();
    const std::size_t resident = MemoryTracker::instance().current_bytes();
    const PeakMemoryRegion peak;
    const Timer timer;
    t->stack = std::make_unique<Stack>(data_, traced, wal);
    serve::PredictResult first =
        t->stack->server->predict({}, std::chrono::nanoseconds(0));
    const double setup_s = timer.seconds();
    if (peak_mib != nullptr)
      *peak_mib = static_cast<double>(peak.peak() - resident) / kMiB;
    net::PredictWire wire;
    wire.time = first.timestamp;
    wire.version = first.version;
    wire.stale = first.stale;
    wire.outputs = first.outputs;
    samples_.push_back(Sample{{}, std::move(wire)});
    return setup_s;
  }

  /// Connect the generator, warm it up, and start the writer.
  void start_load(Trial* t, double warmup_s) {
    const uint16_t port = t->stack->frontend->port();
    t->gen = std::make_unique<Generator>(port, data_.nodes, opts_.seed);
    auto warm = t->gen->prepare("warmup", spec_.lo_rps, warmup_s);
    t->gen->run(*warm);
    if (mixed_)
      t->ingester = std::make_unique<Ingester>(port, data_, spec_.ingest_period_s);
  }

  std::unique_ptr<Phase> run_phase(Trial* t, const std::string& name,
                                   double rate, double seconds) {
    auto p = t->gen->prepare(name, rate, seconds);
    t->gen->run(*p);
    for (Sample& s : p->samples) {
      max_time_ = std::max(max_time_, s.wire.time);
      samples_.push_back(std::move(s));
    }
    p->samples.clear();
    return p;
  }

  /// Stop the writer and the stack, check the server's accounting. With
  /// `counted`, the trial's fixed-rate phases and ingests count against
  /// the run's attempts.
  void close(Trial* t, const std::vector<const Phase*>& counted) {
    if (t->ingester) {
      t->ingester->finish();
      const Ingester& ing = *t->ingester;
      out_.check(!ing.exhausted, "ingest stream exhausted");
      for (const std::string& e : ing.errors) out_.check(false, e);
      max_time_ = std::max<uint32_t>(max_time_,
                                     static_cast<uint32_t>(ing.committed));
      if (!counted.empty()) {
        out_.attempted += ing.committed + ing.failed;
        out_.failed += ing.failed;
      }
    }
    for (const Phase* p : counted) {
      out_.attempted += p->n;
      out_.failed += p->failed();
    }
    if (t->gen)
      out_.check(!t->gen->broken(), "a PREDICT response failed to decode");
    t->gen.reset();
    t->stack->frontend->stop();
    t->stack->server->stop();
    check_accounting(t->stack->server->stats(), &out_);
  }

  /// Binary search over the ladder for the highest passing rung. Each
  /// probe runs on a fresh stack, so one probe's overload cannot leak into
  /// the next, and a rung fails only when two probes of it fail, so one
  /// transient stall does not halve the result. The first failing probe is
  /// followed, on the same stack, by a short low-rate probe that reports
  /// whether the server recovered from the overload.
  double find_max_rps(double probe_s) {
    int lo = -1, hi = spec_.ladder_rungs;  // lo passes (or none), hi fails
    auto rung = [&](int k) {
      return spec_.ladder_min_rps * std::pow(spec_.ladder_step, k);
    };
    std::vector<std::string> reports;
    auto probe = [&](double rate) {
      Trial t;
      open(false, &t);
      start_load(&t, kProbeWarmupS);
      auto p = run_phase(&t, "ladder", rate, probe_s);
      reports.push_back(p->report());
      const bool pass = p->passes();
      if (!pass && out_.detail.count("overload_recovery") == 0) {
        auto after = run_phase(&t, "recovery", spec_.lo_rps, kProbeWarmupS);
        out_.detail["overload_recovery"] = after->report();
      }
      close(&t, {});
      return pass;
    };
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      (probe(rung(mid)) || probe(rung(mid)) ? lo : hi) = mid;
    }
    out_.detail["ladder"] = json_array(reports);
    return lo < 0 ? 0.0 : rung(lo);
  }

  /// Memcmp every sampled response against the reference (outside every
  /// timed region).
  void check_outputs() {
    const std::vector<Tensor> ref =
        reference_outputs(data_, max_time_ + 1, opts_.seed);
    out_.detail["checked_responses"] =
        std::to_string(check_samples(samples_, ref, &out_));
  }

 private:
  const Options& opts_;
  Outcome& out_;
  const LoadSpec spec_;
  const ServeData data_;
  const bool mixed_;
  std::string wal_dir_;
  int wal_seq_ = 0;
  std::vector<Sample> samples_;
  uint32_t max_time_ = 0;
};

}  // namespace

Outcome run_serve(const Options& opts) {
  Outcome out;
  ServeRun serving(opts, out);
  const LoadSpec& spec = serving.spec();
  out.detail["nodes"] = std::to_string(serving.data().nodes);
  out.detail["stream_deltas"] =
      std::to_string(serving.data().events.deltas.size());
  std::vector<std::string> phase_reports;
  auto report = [&](const Phase& p) {
    phase_reports.push_back(json_object({{p.name, p.report()}}));
  };

  if (!opts.trace) {
    // Budget: 30 % low rate, 10 % high rate, 50 % ladder.
    std::vector<double> setups, setup_peaks;
    Trial t;
    for (int r = 0; r < kSetupRepeats; ++r) {
      t = Trial{};
      setup_peaks.push_back(0.0);
      setups.push_back(serving.open(false, &t, &setup_peaks.back()));
    }
    serving.start_load(&t, kWarmupS);
    auto lo = serving.run_phase(&t, "lo", spec.lo_rps, opts.seconds * 0.3);
    auto hi = serving.run_phase(&t, "hi", spec.hi_rps, opts.seconds * 0.1);
    report(*lo);
    report(*hi);
    if (t.ingester) {
      t.ingester->finish();
      out.detail["ingest"] = ingest_report(*t.ingester);
    }
    serving.close(&t, {lo.get(), hi.get()});
    const double max_rps =
        serving.find_max_rps(opts.seconds * 0.5 / probes_needed(spec));

    // Latency at the low rate, the median over the phase's windows, timed
    // from the actual send: the generator shares this machine's CPUs with
    // the server, and its own scheduling stalls, not the server's, set the
    // run-to-run spread of the p99 timed from the schedule. The per-phase
    // reports carry the scheduled-time figures and the send lag.
    out.set("setup_s", median(setups), "s");
    out.set("peak_mib", median(setup_peaks), "MiB");
    out.set("latency_p50_ms", lo->window_percentile(50.0, true) / 1e3, "ms");
    out.set("latency_p99_ms", lo->window_percentile(99.0, true) / 1e3, "ms");
    out.set("throughput_per_s", max_rps, "1/s");
    out.detail["setup_s"] = json_array(setups);
    out.detail["setup_peak_mib"] = json_array(setup_peaks);
    out.detail["max_rps"] = json_num(max_rps);
  } else {
    // Untraced low-rate phase, then a traced stack at both fixed rates.
    const double phase_s = opts.seconds * 0.25;
    std::unique_ptr<Phase> plain_lo;
    {
      Trial t;
      serving.open(false, &t);
      serving.start_load(&t, kWarmupS);
      plain_lo = serving.run_phase(&t, "lo_untraced", spec.lo_rps, phase_s);
      report(*plain_lo);
      serving.close(&t, {plain_lo.get()});
    }
    Trial t;
    Tracer::instance().set_enabled(true);
    serving.open(true, &t);
    serving.start_load(&t, kWarmupS);
    Tracer::instance().clear();
    const LayerCounters before = LayerCounters::read(&t.stack->graph);
    auto lo = serving.run_phase(&t, "lo", spec.lo_rps, phase_s);
    auto hi = serving.run_phase(&t, "hi", spec.hi_rps, phase_s);
    if (t.ingester) {
      t.ingester->finish();
      out.detail["ingest"] = ingest_report(*t.ingester);
    }
    std::vector<double> client_lat = lo->ok_latencies();
    const std::vector<double> hi_lat = hi->ok_latencies();
    client_lat.insert(client_lat.end(), hi_lat.begin(), hi_lat.end());
    const std::vector<SpanRecord> spans = Tracer::instance().spans();
    layer_metrics(*t.stack, before, spans, median(client_lat), &out);
    Tracer::instance().set_enabled(false);
    report(*lo);
    report(*hi);
    serving.close(&t, {lo.get(), hi.get()});
    out.set("trace_overhead",
            median(lo->ok_latencies()) / median(plain_lo->ok_latencies()) - 1.0,
            "ratio");
    const std::string trace_path =
        opts.out_dir + "/trace-" + opts.workload + ".json";
    write_chrome_trace(spans, trace_path);
    out.detail["trace_file"] = json_str(trace_path);
  }
  out.detail["phases"] = json_array(phase_reports);
  serving.check_outputs();
  return out;
}

}  // namespace perfbench
