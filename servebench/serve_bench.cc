// Serve-path benchmark: one named workload through serve::ShardedEngine,
// public API only, in three phases on a fresh engine each.
//
//   paced      open loop at the workload's fixed rate (about half the
//              sustained rate), tracing off. Each batch is timed from its
//              due time: sync latency until InferBatch returns, mail lag
//              until the generator first sees stats().batches_propagated
//              pass the batch.
//   saturated  closed loop, tracing off: the next batch goes out as soon
//              as InferBatch returns; the clock stops when Flush returns.
//   traced     saturated again with Options::stage_metrics and the global
//              obs::TraceRecorder on. Per-layer numbers come from here,
//              plus single-threaded timings of the encoder's public parts
//              replayed on the final per-shard state.
//
// Every phase's outputs are checked apart from the engine: scores, batch
// accounting, the stitched mailbox against a sequential ApanModel
// reference, and a hop-0 bound computed from the stream alone. A
// self-test then feeds each check one corrupted result and requires it
// to fail. The last stdout line is the JSON result (see README.md).
//
//   serve_bench --workload wiki-x1 --seed 1 --seconds 20 --trace 0
//               --out-dir servebench/out

#include <sched.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/apan_model.h"
#include "data/synthetic.h"
#include "graph/node_partition.h"
#include "nn/attention.h"
#include "nn/layers.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/sharded_engine.h"
#include "serve/transport.h"
#include "tensor/arena.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace {

using namespace apan;
using Clock = std::chrono::steady_clock;

// Taken during static initialisation, before main: the start of the
// cold set-up that setup_s times.
const Clock::time_point kProcessStart = Clock::now();

constexpr size_t kBatch = 200;             // the paper's serving batch
constexpr int64_t kWarmupBatches = 50;     // untimed prefix per engine
constexpr auto kPollInterval = std::chrono::microseconds(20);
constexpr int64_t kPartsBatches = 400;     // batches replayed for parts
constexpr uint64_t kModelSeed = 2021;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double Millis(Clock::time_point a, Clock::time_point b) {
  return Seconds(a, b) * 1e3;
}

// ---------------------------------------------------------------- workloads

struct Workload {
  std::string_view name;
  data::SyntheticConfig (*preset)();
  double scale;          ///< node-count multiplier on the preset
  int64_t base_events;   ///< generated stream; longer runs wrap it
  int shards;
  int32_t hops;
  bool locality;         ///< BuildLocality from the warm-up prefix
  serve::TransportKind transport;
  double paced_rate;     ///< events/s in the paced phase
};

// Rates sit at about half of each workload's saturated events/s on the
// reference host (README.md), so the paced phase measures latency below
// capacity rather than queueing.
const Workload kWorkloads[] = {
    {"wiki-x1", &data::SyntheticConfig::WikipediaLike, 1.0, 200000, 1, 1,
     false, serve::TransportKind::kInProcess, 120000.0},
    {"reddit-x2-2hop", &data::SyntheticConfig::RedditLike, 1.0, 200000, 2, 2,
     true, serve::TransportKind::kInProcess, 35000.0},
    {"alipay-x2-uds", &data::SyntheticConfig::AlipayLike, 1.0, 200000, 2, 1,
     false, serve::TransportKind::kUnixSocket, 50000.0},
};

/// The event stream of a run: a generated base stream, replayed with a
/// time offset per wrap so a phase can run as long as its clock says.
/// Event i of wrap w is base[i] shifted by w periods; a period exceeds
/// the base stream's span, so timestamps never go backwards.
class Stream {
 public:
  explicit Stream(data::Dataset base) : base_(std::move(base)) {
    base_.events.resize(base_.events.size() / kBatch * kBatch);
    APAN_CHECK_MSG(!base_.events.empty(), "stream shorter than one batch");
    const double span =
        base_.events.back().timestamp - base_.events.front().timestamp;
    period_ = span + span / static_cast<double>(base_.events.size()) + 1e-6;
  }

  int64_t num_nodes() const { return base_.num_nodes; }
  const graph::EdgeFeatureStore& features() const { return base_.features; }
  int64_t base_batches() const {
    return static_cast<int64_t>(base_.events.size() / kBatch);
  }

  graph::Event At(int64_t i) const {
    const auto n = static_cast<int64_t>(base_.events.size());
    graph::Event e = base_.events[static_cast<size_t>(i % n)];
    e.timestamp += static_cast<double>(i / n) * period_;
    return e;
  }
  void Batch(int64_t b, std::vector<graph::Event>* out) const {
    out->resize(kBatch);
    for (size_t i = 0; i < kBatch; ++i) {
      (*out)[i] = At(b * static_cast<int64_t>(kBatch) +
                     static_cast<int64_t>(i));
    }
  }
  std::vector<graph::Event> Prefix(int64_t batches) const {
    std::vector<graph::Event> out;
    out.reserve(static_cast<size_t>(batches) * kBatch);
    for (int64_t i = 0; i < batches * static_cast<int64_t>(kBatch); ++i) {
      out.push_back(At(i));
    }
    return out;
  }

 private:
  data::Dataset base_;
  double period_ = 0.0;
};

/// A batch's unique nodes in first-appearance order (each node is encoded
/// once per batch, paper §3.2) and each event's rows into that set.
struct InternedBatch {
  std::vector<graph::NodeId> nodes;
  std::vector<int64_t> src_rows;
  std::vector<int64_t> dst_rows;
};

InternedBatch Intern(const std::vector<graph::Event>& batch) {
  InternedBatch out;
  std::unordered_map<graph::NodeId, int64_t> index_of;
  auto row = [&](graph::NodeId v) {
    const auto [it, inserted] =
        index_of.try_emplace(v, static_cast<int64_t>(out.nodes.size()));
    if (inserted) out.nodes.push_back(v);
    return it->second;
  };
  for (const graph::Event& e : batch) {
    out.src_rows.push_back(row(e.src));
    out.dst_rows.push_back(row(e.dst));
  }
  return out;
}

// ------------------------------------------------------------------ checks
// Each returns "" when the result passes, else what failed. They see only
// plain data captured from the engine, so the self-test can hand them a
// corrupted copy.

std::string CheckScores(const std::vector<float>& scores, size_t events) {
  if (scores.size() != events) {
    return "got " + std::to_string(scores.size()) + " scores for " +
           std::to_string(events) + " events";
  }
  for (size_t i = 0; i < scores.size(); ++i) {
    const float s = scores[i];
    if (!std::isfinite(s) || s < 0.0f || s > 1.0f) {
      return "score " + std::to_string(i) + " = " + std::to_string(s) +
             " is not a finite value in [0, 1]";
    }
  }
  return "";
}

std::string CheckAccounting(const serve::ShardedEngine::Stats& stats,
                            int64_t sent) {
  if (stats.batches_propagated != sent) {
    return "batches_propagated " + std::to_string(stats.batches_propagated) +
           " != batches sent " + std::to_string(sent);
  }
  if (stats.mails_dropped != 0 || stats.events_shed != 0 ||
      stats.batches_rejected != 0) {
    return "dropped/shed work: mails_dropped " +
           std::to_string(stats.mails_dropped) + ", events_shed " +
           std::to_string(stats.events_shed) + ", batches_rejected " +
           std::to_string(stats.batches_rejected);
  }
  return "";
}

/// Valid counts and time-sorted timestamps of every node's mailbox,
/// stitched across shards by router ownership.
struct MailboxImage {
  int64_t batches = 0;  ///< stream prefix (in batches) the image reflects
  int64_t slots = 0;
  std::vector<int64_t> counts;
  std::vector<double> timestamps;  ///< num_nodes * slots, padding 0
};

MailboxImage CaptureEngine(const serve::ShardedEngine& engine,
                           int64_t num_nodes, int num_shards,
                           int64_t batches) {
  MailboxImage image;
  image.batches = batches;
  image.slots = engine.state_store(0).slots();
  image.counts.assign(static_cast<size_t>(num_nodes), 0);
  image.timestamps.assign(static_cast<size_t>(num_nodes * image.slots), 0.0);
  std::vector<std::vector<graph::NodeId>> owned(
      static_cast<size_t>(num_shards));
  for (graph::NodeId v = 0; v < num_nodes; ++v) {
    owned[static_cast<size_t>(engine.router().ShardOf(v))].push_back(v);
  }
  for (int s = 0; s < num_shards; ++s) {
    const auto& nodes = owned[static_cast<size_t>(s)];
    if (nodes.empty()) continue;
    const auto read = engine.state_store(s).ReadBatch(nodes);
    for (size_t r = 0; r < nodes.size(); ++r) {
      const auto v = static_cast<size_t>(nodes[r]);
      image.counts[v] = read.counts[r];
      std::copy_n(read.timestamps.begin() +
                      static_cast<std::ptrdiff_t>(r * image.slots),
                  image.slots,
                  image.timestamps.begin() +
                      static_cast<std::ptrdiff_t>(v * image.slots));
    }
  }
  return image;
}

MailboxImage CaptureReference(const core::ApanModel& model, int64_t batches) {
  const int64_t n = model.config().num_nodes;
  std::vector<graph::NodeId> nodes(static_cast<size_t>(n));
  for (int64_t v = 0; v < n; ++v) nodes[static_cast<size_t>(v)] = v;
  const auto read = model.mailbox().ReadBatch(nodes);
  MailboxImage image;
  image.batches = batches;
  image.slots = model.config().mailbox_slots;
  image.counts = read.counts;
  image.timestamps = read.timestamps;
  return image;
}

/// Bitwise: no tolerance on counts or timestamps.
std::string CompareImages(const MailboxImage& engine,
                          const MailboxImage& reference) {
  if (engine.counts.size() != reference.counts.size() ||
      engine.slots != reference.slots) {
    return "mailbox geometry differs from the reference";
  }
  int64_t nonempty = 0;
  for (size_t v = 0; v < engine.counts.size(); ++v) {
    if (engine.counts[v] != reference.counts[v]) {
      return "node " + std::to_string(v) + ": valid count " +
             std::to_string(engine.counts[v]) + " != reference " +
             std::to_string(reference.counts[v]);
    }
    nonempty += engine.counts[v] > 0 ? 1 : 0;
    for (int64_t s = 0; s < engine.slots; ++s) {
      const size_t i = v * static_cast<size_t>(engine.slots) +
                       static_cast<size_t>(s);
      if (std::bit_cast<uint64_t>(engine.timestamps[i]) !=
          std::bit_cast<uint64_t>(reference.timestamps[i])) {
        return "node " + std::to_string(v) + " slot " + std::to_string(s) +
               ": timestamp differs from the reference";
      }
    }
  }
  if (nonempty == 0) return "every mailbox is empty";
  return "";
}

/// What the stream alone says about each node's mailbox after a prefix.
struct StreamFacts {
  std::vector<int64_t> occurrences;  ///< events with the node as endpoint
  std::vector<double> last_seen;     ///< newest such event's timestamp
  double max_timestamp = 0.0;
};

/// Hop-0 bound: every endpoint occurrence delivers one mail to the node,
/// so min(slots, occurrences) <= ValidCount <= slots; the newest mail is
/// no older than the node's last event and no newer than the stream.
std::string CheckHop0Bound(const MailboxImage& image,
                           const StreamFacts& facts) {
  for (size_t v = 0; v < image.counts.size(); ++v) {
    const int64_t count = image.counts[v];
    const int64_t occ = facts.occurrences[v];
    if (count < std::min(image.slots, occ) || count > image.slots) {
      return "node " + std::to_string(v) + ": valid count " +
             std::to_string(count) + " outside [min(slots, " +
             std::to_string(occ) + "), slots]";
    }
    if (count == 0) continue;
    const double* ts =
        image.timestamps.data() + v * static_cast<size_t>(image.slots);
    const double newest = *std::max_element(ts, ts + count);
    if ((occ > 0 && newest < facts.last_seen[v]) ||
        newest > facts.max_timestamp) {
      return "node " + std::to_string(v) + ": newest mail timestamp " +
             std::to_string(newest) + " outside [last event " +
             std::to_string(facts.last_seen[v]) + ", stream max " +
             std::to_string(facts.max_timestamp) + "]";
    }
  }
  return "";
}

// ------------------------------------------------------------------- spans

/// The benchmark's own spans, written as a Chrome trace at the end of the
/// traced phase. Timestamps use the global recorder's clock so they line
/// up with the engine's spans when both are loaded.
struct BenchSpan {
  const char* name;
  double ts_us;
  double dur_us;
  int64_t batch;  ///< -1 when the span is not about one batch
  int shard;      ///< -1 when not per shard
};

class SpanLog {
 public:
  void Add(const char* name, double ts_us, double dur_us, int64_t batch,
           int shard) {
    if (enabled_) spans_.push_back({name, ts_us, dur_us, batch, shard});
  }
  void Enable() { enabled_ = true; }
  void Disable() { enabled_ = false; }
  size_t size() const { return spans_.size(); }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const BenchSpan& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{",
                    i == 0 ? "" : ",", s.name, s.shard < 0 ? 0 : s.shard + 1,
                    s.ts_us, s.dur_us);
      out << buf;
      bool first = true;
      if (s.batch >= 0) {
        out << "\"batch\":" << s.batch;
        first = false;
      }
      if (s.shard >= 0) out << (first ? "" : ",") << "\"shard\":" << s.shard;
      out << "}}";
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  bool enabled_ = false;
  std::vector<BenchSpan> spans_;
};

double TraceNowUs() { return obs::TraceRecorder::Global().NowMicros(); }

// -------------------------------------------------------------- placement

/// CPU placement of the run. Left alone, the scheduler often stacks the
/// generator and a shard worker on one CPU after a wake-up (each wakes the
/// other once per batch), which halved saturated events/s for seconds at a
/// time on the reference host. The generator keeps the first allowed CPU
/// and every engine thread (created while the generator runs on the rest
/// of the set, so they inherit it) the others. Only this process's own
/// threads are placed; with a single allowed CPU nothing is pinned.
struct CpuPlan {
  cpu_set_t generator;
  cpu_set_t engine;
  bool pinned = false;
  std::string description = "unpinned";
};

CpuPlan PlanCpus() {
  CpuPlan plan;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  CPU_ZERO(&plan.generator);
  CPU_ZERO(&plan.engine);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return plan;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.size() < 2) return plan;
  CPU_SET(cpus[0], &plan.generator);
  plan.description = "generator cpu " + std::to_string(cpus[0]) +
                     ", engine cpus";
  for (size_t i = 1; i < cpus.size(); ++i) {
    CPU_SET(cpus[i], &plan.engine);
    plan.description += (i == 1 ? " " : ",") + std::to_string(cpus[i]);
  }
  plan.pinned = true;
  return plan;
}

void PinThisThread(const CpuPlan& plan, const cpu_set_t& set) {
  if (plan.pinned) sched_setaffinity(0, sizeof(set), &set);
}

// ------------------------------------------------------------------ phases

struct PhaseResult {
  std::string name;
  int64_t timed_batches = 0;
  int64_t total_batches = 0;  ///< warm-up + timed: the stream prefix served
  int64_t attempted = 0;
  int64_t failed = 0;
  double wall_s = 0.0;
  double events_per_s = 0.0;
  std::vector<double> sync_ms;   ///< paced: due -> InferBatch returned
  std::vector<double> lag_ms;    ///< paced: due -> first seen propagated
  std::vector<double> late_ms;   ///< paced: due -> send
  std::vector<double> poll_gap_ms;
  std::vector<double> infer_ms;  ///< saturated: InferBatch wall time
  int64_t inflight_highwater = 0;
  std::string score_error;
  std::string accounting_error;
  serve::ShardedEngine::Stats stats;
  std::vector<float> last_scores;  ///< kept for the self-test
  MailboxImage image;
};

struct RunContext {
  const Workload* workload = nullptr;
  const Stream* stream = nullptr;
  core::ApanModel* model = nullptr;
  std::shared_ptr<const graph::NodePartition> partition;
  SpanLog* spans = nullptr;
  const CpuPlan* cpus = nullptr;
};

std::unique_ptr<serve::ShardedEngine> MakeEngine(const RunContext& ctx,
                                                 bool traced) {
  serve::ShardedEngine::Options options;
  options.num_shards = ctx.workload->shards;
  options.partition = ctx.partition;
  options.transport = serve::MakeTransportFactory(ctx.workload->transport);
  options.stage_metrics = traced;
  PinThisThread(*ctx.cpus, ctx.cpus->engine);
  auto engine = std::make_unique<serve::ShardedEngine>(ctx.model, options);
  PinThisThread(*ctx.cpus, ctx.cpus->generator);
  return engine;
}

/// Serves one batch and checks its scores; a failed call or a bad score
/// is recorded on the phase (the first one only).
bool Serve(serve::ShardedEngine& engine, const std::vector<graph::Event>& b,
           PhaseResult* phase) {
  ++phase->attempted;
  auto result = engine.InferBatch(b);
  if (!result.ok()) {
    ++phase->failed;
    if (phase->score_error.empty()) {
      phase->score_error = "InferBatch: " + result.status().ToString();
    }
    return false;
  }
  if (phase->score_error.empty()) {
    phase->score_error = CheckScores(result->scores, b.size());
  }
  phase->last_scores = std::move(result->scores);
  return true;
}

void Warmup(serve::ShardedEngine& engine, const Stream& stream,
            PhaseResult* phase) {
  std::vector<graph::Event> batch;
  for (int64_t b = 0; b < kWarmupBatches; ++b) {
    stream.Batch(b, &batch);
    Serve(engine, batch, phase);
  }
  engine.Flush();
}

void Finish(serve::ShardedEngine& engine, const RunContext& ctx,
            PhaseResult* phase) {
  phase->total_batches = kWarmupBatches + phase->timed_batches;
  phase->stats = engine.stats();
  phase->accounting_error =
      CheckAccounting(phase->stats, phase->attempted - phase->failed);
  phase->image = CaptureEngine(engine, ctx.stream->num_nodes(),
                               ctx.workload->shards, phase->total_batches);
}

/// Open loop: batch k is due at start + k * interval whatever the engine
/// does. Between sends the generator sleeps in kPollInterval steps and
/// polls stats().batches_propagated after each; batches complete in order
/// (every shard merges in batch order), so the count passing k means
/// batch k's mail has landed on every shard. The generator sleeps rather
/// than spins: a spinning caller doubled InferBatch's paced p50 on the
/// reference host (its vCPUs share the machine).
void RunPaced(serve::ShardedEngine& engine, const RunContext& ctx,
              double seconds, PhaseResult* phase) {
  const double interval_s =
      static_cast<double>(kBatch) / ctx.workload->paced_rate;
  const auto n = std::max<int64_t>(
      1, static_cast<int64_t>(seconds / interval_s));
  const int64_t base = engine.stats().batches_propagated;
  phase->sync_ms.reserve(static_cast<size_t>(n));
  phase->lag_ms.assign(static_cast<size_t>(n), 0.0);
  phase->late_ms.reserve(static_cast<size_t>(n));

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  auto due = [&](int64_t k) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(interval_s *
                                                     static_cast<double>(k)));
  };
  int64_t sent = 0;
  int64_t landed = 0;
  Clock::time_point last_poll = Clock::now();
  auto poll = [&] {
    const Clock::time_point now = Clock::now();
    phase->poll_gap_ms.push_back(Millis(last_poll, now));
    last_poll = now;
    const int64_t done =
        std::min(engine.stats().batches_propagated - base, sent);
    for (; landed < done; ++landed) {
      phase->lag_ms[static_cast<size_t>(landed)] = Millis(due(landed), now);
    }
    phase->inflight_highwater =
        std::max(phase->inflight_highwater, sent - landed);
  };

  std::vector<graph::Event> batch;
  for (int64_t k = 0; k < n; ++k) {
    ctx.stream->Batch(kWarmupBatches + k, &batch);
    const Clock::time_point due_k = due(k);
    while (Clock::now() < due_k) {
      poll();
      std::this_thread::sleep_until(std::min(due_k, last_poll + kPollInterval));
    }
    const Clock::time_point send = Clock::now();
    phase->late_ms.push_back(Millis(due_k, send));
    Serve(engine, batch, phase);
    ++sent;
    const Clock::time_point returned = Clock::now();
    phase->infer_ms.push_back(Millis(send, returned));
    phase->sync_ms.push_back(Millis(due_k, returned));
    poll();
  }
  // Observe the tail land, then Flush (which returns at once by then).
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(60);
  while (landed < sent - phase->failed && Clock::now() < give_up) {
    poll();
    std::this_thread::sleep_until(last_poll + kPollInterval);
  }
  engine.Flush();
  phase->timed_batches = n;
  phase->lag_ms.resize(static_cast<size_t>(landed));
  phase->wall_s = Seconds(start, Clock::now());
}

/// Closed loop for `seconds`, then Flush; events/s counts accepted events
/// over first InferBatch -> Flush returned.
void RunSaturated(serve::ShardedEngine& engine, const RunContext& ctx,
                  double seconds, PhaseResult* phase) {
  std::vector<graph::Event> batch;
  int64_t k = 0;
  int64_t accepted = 0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  while (Clock::now() < stop) {
    ctx.stream->Batch(kWarmupBatches + k, &batch);
    const double t0 = TraceNowUs();
    const Clock::time_point c0 = Clock::now();
    accepted += Serve(engine, batch, phase) ? 1 : 0;
    const Clock::time_point c1 = Clock::now();
    phase->infer_ms.push_back(Millis(c0, c1));
    ctx.spans->Add("InferBatch", t0, TraceNowUs() - t0, kWarmupBatches + k,
                   -1);
    ++k;
  }
  const double f0 = TraceNowUs();
  engine.Flush();
  ctx.spans->Add("Flush", f0, TraceNowUs() - f0, -1, -1);
  phase->wall_s = Seconds(start, Clock::now());
  phase->timed_batches = k;
  phase->events_per_s =
      static_cast<double>(accepted * static_cast<int64_t>(kBatch)) /
      phase->wall_s;
}

// ----------------------------------------------------------- encoder parts

struct EncoderParts {
  double gather_ms = 0.0;
  double forward_ms = 0.0;
  double attention_ms = 0.0;
  double layernorm_ms = 0.0;
  double mlp_ms = 0.0;
  double decode_ms = 0.0;
  int64_t batches = 0;
};

/// Replays the last kPartsBatches batches' unique-node sets against the
/// engine's final per-shard state, single-threaded, timing each public
/// call: ReadBatch + GatherLastEmbeddings, the full EncodeNodes, and
/// stand-alone attention / residual LayerNorm / MLP modules of the serve
/// shape fed the real mailbox reads. Two passes; the second is reported.
EncoderParts TimeEncoderParts(const serve::ShardedEngine& engine,
                              const RunContext& ctx, int64_t last_batch) {
  const core::ApanConfig& config = ctx.model->config();
  const int64_t d = config.embedding_dim;
  Rng rng(kModelSeed);
  nn::MultiHeadAttention attention(d, config.num_heads, &rng);
  nn::LayerNorm layer_norm(d);
  nn::Mlp mlp(d, config.mlp_hidden, d, &rng);
  const core::ApanWeights weights = ctx.model->weights();
  const int shards = ctx.workload->shards;

  EncoderParts parts;
  const int64_t first = std::max<int64_t>(0, last_batch - kPartsBatches);
  std::vector<graph::Event> batch;
  for (int pass = 0; pass < 2; ++pass) {
    const bool timed = pass == 1;
    parts = EncoderParts{};
    for (int64_t b = first; b < last_batch; ++b) {
      ctx.stream->Batch(b, &batch);
      const InternedBatch interned = Intern(batch);
      const auto& unique_nodes = interned.nodes;
      std::vector<std::vector<graph::NodeId>> shard_nodes(
          static_cast<size_t>(shards));
      std::vector<std::vector<size_t>> shard_rows(static_cast<size_t>(shards));
      for (size_t u = 0; u < unique_nodes.size(); ++u) {
        const int s = engine.router().ShardOf(unique_nodes[u]);
        shard_nodes[static_cast<size_t>(s)].push_back(unique_nodes[u]);
        shard_rows[static_cast<size_t>(s)].push_back(u);
      }
      std::vector<float> emb(unique_nodes.size() * static_cast<size_t>(d));
      tensor::NoGradGuard no_grad;
      auto timed_call = [&](const char* name, int shard, double* total,
                            const auto& fn) {
        const double t0 = TraceNowUs();
        const Clock::time_point c0 = Clock::now();
        fn();
        const Clock::time_point c1 = Clock::now();
        if (!timed) return;
        *total += Millis(c0, c1);
        ctx.spans->Add(name, t0, TraceNowUs() - t0, b, shard);
      };
      for (int s = 0; s < shards; ++s) {
        const auto& nodes = shard_nodes[static_cast<size_t>(s)];
        if (nodes.empty()) continue;
        const core::NodeStateStore& store = engine.state_store(s);
        tensor::ArenaScope arena;
        tensor::Tensor last;
        core::Mailbox::ReadResult read;
        timed_call("encode.gather", s, &parts.gather_ms, [&] {
          last = store.GatherLastEmbeddings(nodes);
          read = store.ReadBatch(nodes);
        });
        core::ApanEncoder::Output out;
        timed_call("encode.forward", s, &parts.forward_ms,
                   [&] { out = weights.EncodeNodes(store, nodes); });
        nn::AttentionOutput attn;
        timed_call("encode.attention", s, &parts.attention_ms, [&] {
          attn = attention.Forward(last, read.mails, read.mails, &read.mask);
        });
        tensor::Tensor normed;
        timed_call("encode.layernorm", s, &parts.layernorm_ms, [&] {
          normed = layer_norm.ForwardResidual(attn.output, last);
        });
        tensor::Tensor hidden;
        timed_call("encode.mlp", s, &parts.mlp_ms,
                   [&] { hidden = mlp.Forward(normed); });
        const float* rows = out.embeddings.data();
        const auto& unique_rows = shard_rows[static_cast<size_t>(s)];
        for (size_t r = 0; r < nodes.size(); ++r) {
          std::copy_n(rows + static_cast<int64_t>(r) * d, d,
                      emb.data() + unique_rows[r] * static_cast<size_t>(d));
        }
      }
      tensor::ArenaScope arena;
      const tensor::Tensor all = tensor::Tensor::FromVector(
          {static_cast<int64_t>(unique_nodes.size()), d}, std::move(emb));
      const tensor::Tensor z_src = tensor::GatherRows(all, interned.src_rows);
      const tensor::Tensor z_dst = tensor::GatherRows(all, interned.dst_rows);
      tensor::Tensor logits;
      timed_call("decode", -1, &parts.decode_ms,
                 [&] { logits = weights.ScoreLinkLogits(z_src, z_dst); });
      ++parts.batches;
    }
  }
  return parts;
}

// --------------------------------------------------------------- reference

/// Advances a separate ApanModel through the stream one batch at a time
/// (EncodeNodes, then ProcessBatchPostInference: the sequential APAN
/// step) and compares it with each phase's captured engine image in
/// order of prefix length. Also maintains the stream facts for the
/// hop-0 bound and keeps, for the self-test, the reference image one
/// batch short of the first checkpoint.
struct ReferenceOutcome {
  std::vector<std::string> compare_errors;  ///< per phase, "" = equal
  std::vector<std::string> bound_errors;
  MailboxImage short_by_one;  ///< reference image at first checkpoint - 1
  MailboxImage at_first;      ///< reference image at the first checkpoint
  size_t first_phase = 0;
  double seconds = 0.0;
};

ReferenceOutcome RunReference(const RunContext& ctx,
                              const std::vector<PhaseResult*>& phases) {
  ReferenceOutcome outcome;
  const Clock::time_point t0 = Clock::now();
  outcome.compare_errors.assign(phases.size(), "");
  outcome.bound_errors.assign(phases.size(), "");
  std::vector<size_t> order(phases.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return phases[a]->total_batches < phases[b]->total_batches;
  });
  outcome.first_phase = order.front();

  core::ApanModel model(ctx.model->config(), &ctx.stream->features(),
                        kModelSeed);
  model.SetTraining(false);
  const int64_t n = ctx.stream->num_nodes();
  const int64_t d = model.config().embedding_dim;
  StreamFacts facts;
  facts.occurrences.assign(static_cast<size_t>(n), 0);
  facts.last_seen.assign(static_cast<size_t>(n), 0.0);
  std::vector<graph::Event> batch;
  int64_t done = 0;
  for (size_t idx : order) {
    PhaseResult& phase = *phases[idx];
    if (phase.failed > 0) {
      outcome.compare_errors[idx] =
          "skipped: the phase has failed InferBatch calls";
      continue;
    }
    for (; done < phase.total_batches; ++done) {
      if (idx == outcome.first_phase && done + 1 == phase.total_batches) {
        outcome.short_by_one = CaptureReference(model, done);
      }
      ctx.stream->Batch(done, &batch);
      tensor::NoGradGuard no_grad;
      tensor::ArenaScope arena;
      for (const auto& e : batch) {
        // A self-loop delivers one hop-0 mail, not two.
        ++facts.occurrences[static_cast<size_t>(e.src)];
        if (e.dst != e.src) ++facts.occurrences[static_cast<size_t>(e.dst)];
        facts.last_seen[static_cast<size_t>(e.src)] = e.timestamp;
        facts.last_seen[static_cast<size_t>(e.dst)] = e.timestamp;
        facts.max_timestamp = e.timestamp;
      }
      const InternedBatch interned = Intern(batch);
      const core::ApanEncoder::Output out = model.EncodeNodes(interned.nodes);
      const float* emb = out.embeddings.data();
      std::vector<core::InteractionRecord> records(batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        records[i].event = batch[i];
        const float* zs = emb + interned.src_rows[i] * d;
        const float* zd = emb + interned.dst_rows[i] * d;
        records[i].z_src.assign(zs, zs + d);
        records[i].z_dst.assign(zd, zd + d);
      }
      const Status st = model.ProcessBatchPostInference(records);
      APAN_CHECK_MSG(st.ok(), st.ToString());
    }
    const MailboxImage ref = CaptureReference(model, done);
    outcome.compare_errors[idx] = CompareImages(phase.image, ref);
    outcome.bound_errors[idx] = CheckHop0Bound(phase.image, facts);
    if (idx == outcome.first_phase) outcome.at_first = ref;
  }
  outcome.seconds = Seconds(t0, Clock::now());
  return outcome;
}

// ------------------------------------------------------------------ output

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

int64_t ThreadCount() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoll(line.c_str() + 8);
  }
  return -1;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\nworkloads:",
               argv0);
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string out_dir = "servebench/out";
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage(argv[0]);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || !(seconds > 0.0)) return Usage(argv[0]);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1) return Usage(argv[0]);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (w.name == workload_name) workload = &w;
  }
  if (workload == nullptr || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return Usage(argv[0]);
  }
  if (workload->transport == serve::TransportKind::kUnixSocket &&
      !serve::UnixSocketTransport::Available()) {
    std::fprintf(stderr, "AF_UNIX sockets are unavailable here\n");
    return 1;
  }

  // The end-to-end metrics come from the paced and saturated phases, so
  // they get most of the time; the traced phase yields per-layer numbers.
  const double paced_s = 0.45 * seconds;
  const double saturated_s = 0.40 * seconds;
  const double traced_s = 0.15 * seconds;
  const Clock::time_point gen_start = Clock::now();

  // ---- Input stream (not part of set-up). ----
  data::SyntheticConfig config = workload->preset().Scaled(workload->scale);
  config.num_events = workload->base_events;
  config.seed += seed;
  auto generated = data::GenerateSynthetic(config);
  APAN_CHECK_MSG(generated.ok(), generated.status().ToString());
  const Stream stream(std::move(*generated));
  const Clock::time_point setup_start = Clock::now();

  std::printf(
      "host: nproc=%u cpu=\"%s\" isa=%s workload=%s seed=%llu "
      "shards=%d hops=%d partition=%s transport=%s nodes=%lld "
      "base_events=%lld batch=%zu warmup_batches=%lld paced=%.2fs@%.0fev/s "
      "saturated=%.2fs traced=%.2fs\n",
      std::thread::hardware_concurrency(), CpuModel().c_str(),
      tensor::kernels::IsaName(tensor::kernels::ActiveIsa()),
      std::string(workload->name).c_str(),
      static_cast<unsigned long long>(seed), workload->shards,
      workload->hops, workload->locality ? "locality" : "hash",
      workload->transport == serve::TransportKind::kUnixSocket ? "uds"
                                                               : "inproc",
      static_cast<long long>(stream.num_nodes()),
      static_cast<long long>(stream.base_batches() *
                             static_cast<int64_t>(kBatch)),
      kBatch, static_cast<long long>(kWarmupBatches), paced_s,
      workload->paced_rate, saturated_s, traced_s);
  std::fflush(stdout);

  // ---- Set-up (timed): model, partition, engine + transport, warm-up. --
  core::ApanConfig model_config;
  model_config.num_nodes = stream.num_nodes();
  model_config.embedding_dim = stream.features().dim();
  model_config.propagation_hops = workload->hops;
  model_config.dropout = 0.0f;
  core::ApanModel model(model_config, &stream.features(), kModelSeed);
  SpanLog spans;
  RunContext ctx;
  ctx.workload = workload;
  ctx.stream = &stream;
  ctx.model = &model;
  ctx.spans = &spans;
  const CpuPlan cpus = PlanCpus();
  ctx.cpus = &cpus;
  PinThisThread(cpus, cpus.generator);
  std::printf("placement: %s; program threads after start-up are counted "
              "below\n",
              cpus.description.c_str());
  const Clock::time_point part_start = Clock::now();
  if (workload->locality) {
    const std::vector<graph::Event> prefix = stream.Prefix(kWarmupBatches);
    ctx.partition = graph::NodePartition::BuildLocality(
        stream.num_nodes(), workload->shards, prefix);
  } else {
    ctx.partition = graph::NodePartition::BuildDefault(stream.num_nodes(),
                                                       workload->shards);
  }
  const double partition_ms = Millis(part_start, Clock::now());

  PhaseResult paced;
  paced.name = "paced";
  double setup_s = 0.0;
  int64_t state_bytes = 0, store_bytes = 0, slice_bytes = 0;
  double shard_imbalance = 1.0;
  {
    auto engine = MakeEngine(ctx, /*traced=*/false);
    Warmup(*engine, stream, &paced);
    setup_s = Seconds(kProcessStart, gen_start) +
              Seconds(setup_start, Clock::now());

    // ---- Phase 1: paced. ----
    RunPaced(*engine, ctx, paced_s, &paced);
    Finish(*engine, ctx, &paced);
    int64_t smallest = INT64_MAX, largest = 0;
    for (int s = 0; s < workload->shards; ++s) {
      const int64_t b = engine->state_store(s).MemoryBytes();
      store_bytes += b;
      smallest = std::min(smallest, b);
      largest = std::max(largest, b);
    }
    slice_bytes = engine->sharded_graph().MemoryBytes();
    state_bytes = store_bytes + slice_bytes;
    shard_imbalance = smallest > 0 ? static_cast<double>(largest) /
                                         static_cast<double>(smallest)
                                   : 0.0;
  }

  // ---- Phase 2: saturated, tracing off. ----
  PhaseResult saturated;
  saturated.name = "saturated";
  {
    auto engine = MakeEngine(ctx, /*traced=*/false);
    Warmup(*engine, stream, &saturated);
    RunSaturated(*engine, ctx, saturated_s, &saturated);
    Finish(*engine, ctx, &saturated);
  }

  // ---- Phase 3: traced (stage metrics + trace recorder + own spans). ----
  PhaseResult traced;
  traced.name = "traced";
  obs::Registry::Snapshot before, after;
  EncoderParts parts;
  int64_t peak_threads = 0;
  std::string trace_path;
  {
    auto engine = MakeEngine(ctx, /*traced=*/true);
    Warmup(*engine, stream, &traced);
    before = engine->registry()->Scrape();
    obs::TraceRecorder::Global().Clear();
    obs::TraceRecorder::Global().Enable();
    spans.Enable();
    RunSaturated(*engine, ctx, traced_s, &traced);
    peak_threads = ThreadCount();
    obs::TraceRecorder::Global().Disable();
    after = engine->registry()->Scrape();
    Finish(*engine, ctx, &traced);
    parts = TimeEncoderParts(*engine, ctx, traced.total_batches);
    spans.Disable();
    obs::TraceRecorder::Global().Clear();
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    trace_path = out_dir + "/" + std::string(workload->name) + ".trace.json";
    if (ec || !spans.Write(trace_path)) {
      std::fprintf(stderr, "could not write %s\n", trace_path.c_str());
      trace_path.clear();
    }
  }

  // ---- Checks apart from the engine. ----
  std::vector<PhaseResult*> phases = {&paced, &saturated, &traced};
  const ReferenceOutcome ref = RunReference(ctx, phases);
  bool correct = true;
  for (size_t i = 0; i < phases.size(); ++i) {
    const PhaseResult& p = *phases[i];
    const std::string* errors[] = {&p.score_error, &p.accounting_error,
                                   &ref.compare_errors[i],
                                   &ref.bound_errors[i]};
    const char* labels[] = {"scores", "accounting", "mailbox-vs-reference",
                            "hop0-bound"};
    for (size_t c = 0; c < 4; ++c) {
      if (!errors[c]->empty()) correct = false;
      std::printf("check %-9s %-20s %s\n", p.name.c_str(), labels[c],
                  errors[c]->empty() ? "ok" : errors[c]->c_str());
    }
  }
  // Self-test: each check must reject one corrupted result.
  {
    const PhaseResult& first = *phases[ref.first_phase];
    int rejected = 0;
    MailboxImage flipped = first.image;
    for (size_t v = 0; v < flipped.counts.size(); ++v) {
      if (flipped.counts[v] == 0) continue;
      double& ts = flipped.timestamps[v * static_cast<size_t>(flipped.slots)];
      ts = std::bit_cast<double>(std::bit_cast<uint64_t>(ts) ^ 1u);
      break;
    }
    const bool flip_caught = !CompareImages(flipped, ref.at_first).empty();
    // A missing batch: the engine's image against the reference one batch
    // short, and the accounting of a phase that lost one batch.
    const bool missing_caught =
        !CompareImages(first.image, ref.short_by_one).empty() &&
        !CheckAccounting(first.stats, first.attempted - first.failed + 1)
             .empty();
    std::vector<float> nan_scores = first.last_scores;
    if (!nan_scores.empty()) nan_scores[0] = std::nanf("");
    const bool nan_caught = !CheckScores(nan_scores, kBatch).empty();
    rejected = (flip_caught ? 1 : 0) + (missing_caught ? 1 : 0) +
               (nan_caught ? 1 : 0);
    std::printf(
        "self-test: flipped timestamp %s, missing batch %s, NaN score %s "
        "(%d/3 rejected)\n",
        flip_caught ? "rejected" : "ACCEPTED",
        missing_caught ? "rejected" : "ACCEPTED",
        nan_caught ? "rejected" : "ACCEPTED", rejected);
    if (rejected != 3) correct = false;
  }

  // ---- Metrics. ----
  const double traced_batches = static_cast<double>(traced.timed_batches);
  auto delta_hist = [&](const char* name, bool* present) {
    const auto* a = after.FindHistogram(name);
    const auto* b = before.FindHistogram(name);
    *present = a != nullptr;
    if (a == nullptr) return 0.0;
    return a->total_ms - (b != nullptr ? b->total_ms : 0.0);
  };
  auto delta_counter = [&](const char* name) -> double {
    const auto* a = after.FindCounter(name);
    const auto* b = before.FindCounter(name);
    if (a == nullptr) return 0.0;
    return static_cast<double>(a->total - (b != nullptr ? b->total : 0));
  };
  std::vector<std::string> absent;
  auto per_batch = [&](const char* stage) {
    bool present = false;
    const double total = delta_hist(stage, &present);
    if (!present) absent.push_back(stage);
    return traced_batches > 0 ? total / traced_batches : 0.0;
  };

  std::vector<Metric> e2e = {
      {"events_per_s", saturated.events_per_s, "events/s"},
      {"sync_p50_ms", Quantile(paced.sync_ms, 0.50), "ms"},
      {"mail_lag_p50_ms", Quantile(paced.lag_ms, 0.50), "ms"},
      {"setup_s", setup_s, "s"},
      {"state_bytes", static_cast<double>(state_bytes), "bytes"},
  };
  // Printed, but not in the JSON result: too unsteady on the reference
  // host to carry a bound (README.md).
  const std::vector<Metric> e2e_unbounded = {
      {"sync_p99_ms", Quantile(paced.sync_ms, 0.99), "ms"},
      {"mail_lag_p99_ms", Quantile(paced.lag_ms, 0.99), "ms"},
  };

  // Back-pressure: InferBatch as the caller sees it minus stage.sync,
  // which ends before the wait for inbox space.
  const double infer_per_batch =
      traced_batches > 0
          ? std::accumulate(traced.infer_ms.begin(), traced.infer_ms.end(),
                            0.0) /
                traced_batches
          : 0.0;
  const double sync_per_batch = per_batch("stage.sync");
  const auto* sync_row = after.FindHistogram("stage.sync");
  const double forward = parts.forward_ms / std::max<double>(1, parts.batches);
  auto parts_per_batch = [&](double total) {
    return total / std::max<double>(1, parts.batches);
  };
  const double gather = parts_per_batch(parts.gather_ms);
  const double attention = parts_per_batch(parts.attention_ms);
  const double layernorm = parts_per_batch(parts.layernorm_ms);
  const double mlp = parts_per_batch(parts.mlp_ms);

  const char* async_stages[] = {"append",  "sample",       "propagate",
                                "merge",   "route",        "finalize",
                                "frontier_wait", "frontier_serve"};
  std::vector<Metric> layers = {
      {"sync.stage_p50_ms", sync_row != nullptr ? sync_row->p50 : 0.0, "ms"},
      {"sync.encode_ms_per_batch", per_batch("stage.encode"), "ms"},
      {"sync.backpressure_ms_per_batch", infer_per_batch - sync_per_batch,
       "ms"},
      {"encode.gather_ms_per_batch", gather, "ms"},
      {"encode.forward_ms_per_batch", forward, "ms"},
      {"encode.attention_ms_per_batch", attention, "ms"},
      {"encode.layernorm_ms_per_batch", layernorm, "ms"},
      {"encode.mlp_ms_per_batch", mlp, "ms"},
      {"decode.ms_per_batch", parts_per_batch(parts.decode_ms), "ms"},
      {"encode.parts_coverage_pct",
       forward > 0 ? 100.0 * (gather + attention + layernorm + mlp) / forward
                   : 0.0,
       "%"},
  };
  double worker_ms = 0.0;
  for (const char* stage : async_stages) {
    const std::string full = std::string("stage.") + stage;
    const double ms = per_batch(full.c_str());
    worker_ms += ms * traced_batches;
    layers.push_back({std::string("async.") + stage + "_ms_per_batch", ms,
                      "ms"});
  }
  const double idle_ms = per_batch("stage.idle") * traced_batches;
  const double worker_wall_ms =
      1e3 * traced.wall_s * static_cast<double>(workload->shards);
  layers.push_back({"async.idle_pct",
                    worker_wall_ms > 0 ? 100.0 * idle_ms / worker_wall_ms : 0.0,
                    "%"});
  layers.push_back(
      {"async.coverage_pct",
       worker_wall_ms > 0 ? 100.0 * (worker_ms + idle_ms) / worker_wall_ms
                          : 0.0,
       "%"});
  const auto* job_hw = after.FindGauge("serve.job_queue_highwater");
  const auto* mail_hw = after.FindGauge("serve.mail_queue_highwater");
  if (job_hw == nullptr) absent.push_back("serve.job_queue_highwater");
  if (mail_hw == nullptr) absent.push_back("serve.mail_queue_highwater");
  const double frames = delta_counter("transport.frames");
  const double routed = delta_counter("serve.mails_routed");
  const double traced_events = traced_batches * static_cast<double>(kBatch);
  layers.insert(
      layers.end(),
      {
          {"queue.job_highwater",
           job_hw != nullptr ? static_cast<double>(job_hw->max) : 0.0,
           "count"},
          {"queue.mail_highwater",
           mail_hw != nullptr ? static_cast<double>(mail_hw->max) : 0.0,
           "count"},
          {"queue.paced_inflight_highwater",
           static_cast<double>(paced.inflight_highwater), "count"},
          {"partition.build_ms", partition_ms, "ms"},
          {"graph.slice_bytes", static_cast<double>(slice_bytes), "bytes"},
          {"state.store_bytes", static_cast<double>(store_bytes), "bytes"},
          {"state.shard_imbalance", shard_imbalance, "ratio"},
          {"transport.frames_per_batch",
           traced_batches > 0 ? frames / traced_batches : 0.0, "count"},
          {"transport.bytes_per_event",
           traced_events > 0 ? delta_counter("transport.bytes") / traced_events
                             : 0.0,
           "bytes"},
          {"transport.syscalls_per_frame",
           frames > 0 ? delta_counter("transport.syscalls") / frames : 0.0,
           "ratio"},
          {"mail.cross_shard_pct",
           routed > 0 ? 100.0 * delta_counter("serve.mails_cross_shard") /
                            routed
                      : 0.0,
           "%"},
          {"frontier.requests_per_batch",
           traced_batches > 0
               ? delta_counter("serve.frontier_requests") / traced_batches
               : 0.0,
           "count"},
          {"obs.overhead_pct",
           saturated.events_per_s > 0
               ? 100.0 * (saturated.events_per_s - traced.events_per_s) /
                     saturated.events_per_s
               : 0.0,
           "%"},
          {"gen.late_p99_ms", Quantile(paced.late_ms, 0.99), "ms"},
          {"gen.late_max_ms", Quantile(paced.late_ms, 1.0), "ms"},
          {"gen.poll_gap_p99_ms", Quantile(paced.poll_gap_ms, 0.99), "ms"},
      });

  // ---- Report. ----
  std::printf(
      "phase paced: %lld batches in %.3f s at %.0f ev/s; saturated: %lld "
      "batches, %.0f ev/s; traced: %lld batches, %.0f ev/s "
      "(obs.overhead_pct base: saturated ev/s, tracing off)\n",
      static_cast<long long>(paced.timed_batches), paced.wall_s,
      workload->paced_rate, static_cast<long long>(saturated.timed_batches),
      saturated.events_per_s, static_cast<long long>(traced.timed_batches),
      traced.events_per_s);
  std::printf(
      "samples: sync %zu, mail lag %zu; reference replay %.2f s; program "
      "threads %lld; own spans %zu -> %s\n",
      paced.sync_ms.size(), paced.lag_ms.size(), ref.seconds,
      static_cast<long long>(peak_threads), spans.size(),
      trace_path.empty() ? "(not written)" : trace_path.c_str());
  std::printf("paced InferBatch wall: p50 %.4f ms, p99 %.4f ms\n",
              Quantile(paced.infer_ms, 0.50), Quantile(paced.infer_ms, 0.99));
  for (const std::string& name : absent) {
    std::printf("absent: %s (reported as 0)\n", name.c_str());
  }
  for (const Metric& m : e2e) {
    std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : e2e_unbounded) {
    std::printf("metric %-34s %.6g %s (not bounded)\n", m.name.c_str(),
                m.value, m.unit.c_str());
  }
  for (const Metric& m : layers) {
    std::printf("layer  %-34s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  int64_t attempted = 0, failed = 0;
  for (const PhaseResult* p : phases) {
    attempted += p->attempted;
    failed += p->failed;
  }
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  const std::vector<Metric>& chosen = trace == 1 ? layers : e2e;
  for (size_t i = 0; i < chosen.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << JsonEscape(chosen[i].name)
         << "\": {\"value\": " << chosen[i].value << ", \"unit\": \""
         << JsonEscape(chosen[i].unit) << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return 0;
}
