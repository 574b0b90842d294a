#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <unordered_map>

#include "bench.hpp"

namespace perfbench {

namespace {

struct ThreadState {
  std::vector<uint64_t> open;  // ids of the spans open on this thread
  uint32_t index = 0;
};

ThreadState& thread_state() {
  static std::atomic<uint32_t> next_index{1};
  thread_local ThreadState st{{}, next_index.fetch_add(1)};
  return st;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

void Tracer::record(const char* name, int64_t start_ns, int64_t end_ns,
                    uint64_t request_id) {
  const uint32_t thread = thread_state().index;
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(
      SpanRecord{name, start_ns, end_ns, next_id_++, 0, request_id, thread});
}

uint64_t Tracer::begin(uint64_t* parent) {
  ThreadState& st = thread_state();
  *parent = st.open.empty() ? 0 : st.open.back();
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    id = next_id_++;
  }
  st.open.push_back(id);
  return id;
}

void Tracer::end(const char* name, uint64_t id, uint64_t parent,
                 int64_t start_ns) {
  const int64_t end = now_ns();
  ThreadState& st = thread_state();
  if (!st.open.empty()) st.open.pop_back();
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(SpanRecord{name, start_ns, end, id, parent, 0, st.index});
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.clear();
}

Span::Span(const char* name) : name_(name) {
  Tracer& t = Tracer::instance();
  if (!t.enabled()) return;
  start_ns_ = now_ns();
  id_ = t.begin(&parent_);
}

Span::~Span() {
  if (id_ != 0) Tracer::instance().end(name_, id_, parent_, start_ns_);
}

std::map<std::string, SpanTotals> span_totals(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, const SpanRecord*> by_id;
  by_id.reserve(spans.size());
  for (const SpanRecord& s : spans) by_id.emplace(s.id, &s);
  std::map<std::string, SpanTotals> out;
  for (const SpanRecord& s : spans) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    SpanTotals& t = out[s.name];
    t.total_s += dur;
    t.self_s += dur;
    ++t.calls;
  }
  // Children run nested on their parent's thread, so their intervals are
  // disjoint inside the parent: subtracting each child's overlap with the
  // parent's interval leaves the parent's self time.
  for (const SpanRecord& s : spans) {
    if (s.parent == 0) continue;
    const auto it = by_id.find(s.parent);
    if (it == by_id.end()) continue;
    const SpanRecord& p = *it->second;
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) out[p.name].self_s -= static_cast<double>(hi - lo) / 1e9;
  }
  return out;
}

void write_chrome_trace(const std::vector<SpanRecord>& spans,
                        const std::string& path) {
  std::ofstream f(path);
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const int64_t t0 = spans.empty() ? 0 : std::min_element(
      spans.begin(), spans.end(), [](const SpanRecord& a, const SpanRecord& b) {
        return a.start_ns < b.start_ns;
      })->start_ns;
  bool first = true;
  for (const SpanRecord& s : spans) {
    f << (first ? "\n" : ",\n");
    first = false;
    f << "{\"name\":" << json_str(s.name) << ",\"ph\":\"X\",\"pid\":1,\"tid\":"
      << s.thread << ",\"ts\":"
      << json_num(static_cast<double>(s.start_ns - t0) / 1e3)
      << ",\"dur\":" << json_num(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
      << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent;
    if (s.request_id != 0) f << ",\"request_id\":" << s.request_id;
    f << "}}";
  }
  f << "\n]}\n";
}

TracedModel::TracedModel(stgraph::nn::TemporalModel& inner) : inner_(inner) {
  // Share the wrapped tensors under their own names: parameters() of the
  // wrapper then lists exactly what the wrapped model lists.
  for (const stgraph::nn::Parameter& p : inner.parameters())
    register_parameter(p.name, p.tensor);
  set_training(inner.is_training());
}

void TracedModel::set_training(bool training) {
  stgraph::nn::Module::set_training(training);
  if (training)
    inner_.train();
  else
    inner_.eval();
}

}  // namespace perfbench
