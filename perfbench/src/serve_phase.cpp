// Serve half: the soup behind the serving stack, driven by the benchmark's
// own open-loop generator (seeded Poisson arrivals, one sender thread, one
// collector thread, latency timed from each query's due time) at a fixed
// absolute rate, plus closed-loop capacity windows.
#include <cmath>
#include <condition_variable>
#include <deque>
#include <limits>
#include <list>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "graph/generator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phases.hpp"
#include "serve/engine.hpp"
#include "serve/snapshot.hpp"
#include "tensor/ops.hpp"
#include "util/timer.hpp"

namespace perfbench {

using namespace gsoup;

namespace {

using Clock = std::chrono::steady_clock;
using Query = ServePipeline::Query;
using Step = ServePipeline::Step;

constexpr int kSnapshotReps = 3;
constexpr double kWarmStepS = 0.5;
constexpr int kMinWarmSteps = 2;
constexpr int kMaxWarmSteps = 4;
constexpr double kSettled = 0.95;
// A failed or refused query misses every latency limit.
constexpr double kFailedLatencyMs = 1e9;
constexpr double kDrainTimeoutS = 60.0;
// The collector blocks on the oldest outstanding answer at most this long
// before sweeping the others.
constexpr auto kSweep = std::chrono::microseconds(200);
constexpr auto kSpinAhead = std::chrono::milliseconds(5);
// Every workload offers the same absolute rate (about a quarter of the
// serve workloads' capacity), in kStepsPerCycle steps per cycle, and runs
// one closed-loop capacity window per cycle.
constexpr double kRateQps = 2000.0;
constexpr int kStepsPerCycle = 2;
constexpr double kStepS = 0.8;
constexpr double kWindowS = 0.6;
constexpr std::int64_t kShards = 2;
// Closed-loop depth: 8 full batches beyond what the engine workers hold,
// so batches always form full and capacity is the batched peak.
constexpr std::int64_t kOutstanding = 1024;
constexpr const char* kStages[] = {"gather", "spmm", "gemm", "attention",
                                   "epilogue"};

struct Arrival {
  double due_s = 0.0;
  std::int64_t node = 0;
};

/// Seeded Poisson arrivals over uniform node ids for `duration_s`.
std::vector<Arrival> poisson_schedule(double rate, double duration_s,
                                      std::int64_t num_nodes,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Arrival> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= duration_s) break;
    out.push_back({t, static_cast<std::int64_t>(rng.uniform_int(
                          static_cast<std::uint64_t>(num_nodes)))});
  }
  return out;
}

/// Latency from due time; failures count as missing every limit.
void latencies(const Step& s, std::vector<double>& out) {
  for (const auto& q : s.queries) {
    out.push_back(q.ok ? q.done_ms - q.due_ms : kFailedLatencyMs);
  }
}

double step_quantile(const Step& s, double q) {
  std::vector<double> v;
  latencies(s, v);
  return quantile(std::move(v), q);
}

/// Queries sent but not answered at time `t_ms`.
std::int64_t backlog_at(const Step& s, double t_ms) {
  std::int64_t n = 0;
  for (const auto& q : s.queries) {
    if (q.sent_ms <= t_ms && q.done_ms > t_ms) ++n;
  }
  return n;
}

std::vector<double> late_ms(const Step& s) {
  std::vector<double> v;
  for (const auto& q : s.queries) v.push_back(q.sent_ms - q.due_ms);
  return v;
}

void log_step(const char* what, int index, const Step& s) {
  const auto late = late_ms(s);
  std::ostringstream os;
  os << what << " step " << index << ": sent " << s.queries.size()
     << ", failed " << s.failed << ", p50 " << step_quantile(s, 0.5)
     << " ms, p90 " << step_quantile(s, 0.9) << " ms, p99 "
     << step_quantile(s, 0.99) << " ms, late p99 "
     << quantile(late, 0.99) << " ms, late max " << quantile(late, 1.0)
     << " ms, backlog " << backlog_at(s, s.duration_ms);
  log_line(os.str());
}

/// Durations (ms) of async 'b'/'e' pairs of one span name, paired FIFO
/// per id (inner shard servers number their queries independently, so a
/// rare id collision pairs two nearby queries).
void async_durations(const std::vector<obs::trace::TraceEvent>& events,
                     const char* name, std::vector<double>& out) {
  std::map<std::uint64_t, std::deque<std::uint64_t>> open;
  for (const auto& e : events) {
    if (e.name == nullptr || std::string(e.name) != name) continue;
    if (e.phase == 'b') {
      open[e.id].push_back(e.ts_us);
    } else if (e.phase == 'e') {
      auto& q = open[e.id];
      if (q.empty()) continue;
      out.push_back(static_cast<double>(e.ts_us - q.front()) / 1e3);
      q.pop_front();
    }
  }
}

void complete_durations(const std::vector<obs::trace::TraceEvent>& events,
                        const char* name, std::vector<double>& out) {
  for (const auto& e : events) {
    if (e.phase == 'X' && e.name != nullptr && std::string(e.name) == name) {
      out.push_back(static_cast<double>(e.dur_us) / 1e3);
    }
  }
}

}  // namespace

/// What the traced cycles accumulate for the per-layer metrics.
struct ServePipeline::Traced {
  std::vector<Step> steps;
  std::vector<double> queue_wait, exec, batch_form, client, late;
  double batches = 0.0, answered = 0.0;
  std::uint64_t failovers = 0, hedges = 0;
  obs::HistogramData inner;
  std::vector<obs::Histogram*> stage_hist;
  std::vector<obs::HistogramData> stage;
};

ServePipeline::ServePipeline(const ServeSpec& spec, const SoupPipeline& soup,
                             RunContext& rc)
    : spec_(spec), soup_(soup), rc_(rc), traced_(std::make_unique<Traced>()) {}

ServePipeline::~ServePipeline() = default;

std::future<serve::QueryResult> ServePipeline::submit(std::int64_t node) {
  return single_ ? single_->submit(node) : sharded_->submit(node);
}

void ServePipeline::prepare() {
  Report& rep = rc_.report;
  SpanLog& sp = rc_.spans;
  const ModelConfig& cfg = soup_.config();
  Timer setup;

  {
    SpanLog::Scope span(sp, "graph.generate");
    Timer t;
    graph_ = generate_dataset(
        paper_dataset_specs(spec_.graph_scale)[soup_.spec().preset]);
    log_line("serving graph generated in " + std::to_string(t.seconds()) +
             " s");
    if (rc_.trace) rep.metric("graph.generate_ms", t.milliseconds(), "ms");
  }
  std::ostringstream shape;
  shape << "nodes=" << graph_.num_nodes() << " dim="
        << graph_.feature_dim() << " classes=" << graph_.num_classes;
  rc_.digests.emplace_back("serve.shape", shape.str());

  // Snapshot round trip of the served soup (median of the repetitions).
  {
    const serve::Snapshot made =
        serve::make_snapshot(cfg, soup_.served_soup(), graph_, "PLS");
    std::vector<double> write_ms, read_ms;
    for (int i = 0; i < kSnapshotReps; ++i) {
      std::ostringstream os;
      {
        SpanLog::Scope span(sp, "io.snapshot_write");
        Timer t;
        serve::write_snapshot(os, made);
        write_ms.push_back(t.milliseconds());
      }
      std::istringstream is(os.str());
      SpanLog::Scope span(sp, "io.snapshot_read");
      Timer t;
      snapshot_ = serve::read_snapshot(is);
      read_ms.push_back(t.milliseconds());
    }
    if (rc_.trace) {
      rep.metric("io.snapshot_write_ms", median(write_ms), "ms");
      rep.metric("io.snapshot_read_ms", median(read_ms), "ms");
    }
  }

  serve::ServerConfig scfg;
  scfg.workers = spec_.sharded ? 1 : 2;
  scfg.max_batch = 64;
  scfg.max_delay_ms = 2.0;
  scfg.mode = serve::QueryMode::kSubgraph;
  if (!spec_.sharded) {
    ctx_ = std::make_shared<const GraphContext>(graph_.graph, cfg.arch);
    single_ = std::make_unique<serve::BatchServer>(snapshot_, ctx_,
                                                   graph_.features, scfg);
  } else {
    serve::ShardServerOptions opt;
    opt.num_shards = kShards;
    opt.partitioner = "multilevel";
    opt.seed = derive_seed(rc_.seed, 12);
    opt.server = scfg;
    opt.replication_factor = 1;
    Timer t;
    ShardSet shards;
    {
      SpanLog::Scope span(sp, "partition.shard_build");
      shards = serve::make_serving_shards(graph_.graph, cfg, opt);
    }
    log_line("shards built in " + std::to_string(t.seconds()) + " s");
    if (rc_.trace) {
      rep.metric("partition.shard_build_ms", t.milliseconds(), "ms");
    }
    sharded_ = std::make_unique<serve::ShardedServer>(snapshot_, shards,
                                                      graph_.features, opt);
  }
  double setup_s = setup.seconds();

  // Oracle (not counted as set-up): argmax of the served model's
  // full-graph logits. The sharded server never reads this context; it
  // serves the oracle and the exec probes only.
  if (!ctx_) {
    ctx_ = std::make_shared<const GraphContext>(graph_.graph, cfg.arch);
  }
  {
    serve::InferenceEngine engine(cfg, snapshot_.params, ctx_,
                                  graph_.features);
    oracle_ = ops::row_argmax(engine.full_logits());
  }

  // Warm-up at the fixed rate until the step p50 stops falling.
  {
    Timer t;
    double prev = std::numeric_limits<double>::infinity();
    for (int i = 0; i < kMaxWarmSteps; ++i) {
      const Step s = open_loop(kWarmStepS, derive_seed(rc_.seed, 20 + i));
      const double p50 = step_quantile(s, 0.5);
      log_line("serve warm-up step " + std::to_string(i) + ": p50 " +
               std::to_string(p50) + " ms");
      if (i + 1 >= kMinWarmSteps && p50 >= kSettled * prev) break;
      prev = p50;
    }
    setup_s += t.seconds();
  }
  rc_.setup_s += setup_s;

  if (rc_.trace) {
    const std::string arch = cfg.arch == Arch::kGat    ? "gat"
                             : cfg.arch == Arch::kSage ? "sage"
                                                       : "gcn";
    for (const char* st : kStages) {
      traced_->stage_hist.push_back(&obs::histogram(
          "exec.stage_ms",
          "arch=\"" + arch + "\",stage=\"" + std::string(st) + "\""));
      traced_->stage.emplace_back();
    }
  }
}

ServePipeline::Step ServePipeline::open_loop(double seconds,
                                             std::uint64_t seed) {
  const std::vector<Arrival> sched =
      poisson_schedule(kRateQps, seconds, graph_.num_nodes(), seed);
  Step res;
  res.queries.resize(sched.size());
  res.duration_ms = seconds * 1e3;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, std::future<serve::QueryResult>>> handoff;
  bool sender_done = false;
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(2);
  const auto since = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::milli>(t - start).count();
  };

  std::thread sender([&] {
    for (std::size_t i = 0; i < sched.size(); ++i) {
      // Sleep while the due time is far, then spin: a sleeping thread on
      // this VM wakes up to several milliseconds late, and that lateness
      // would land in every query's latency.
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       sched[i].due_s));
      if (due - Clock::now() > kSpinAhead) {
        std::this_thread::sleep_until(due - kSpinAhead);
      }
      while (Clock::now() < due) __builtin_ia32_pause();
      Query& q = res.queries[i];
      q.due_ms = sched[i].due_s * 1e3;
      q.sent_ms = since(Clock::now());
      std::future<serve::QueryResult> fut;
      try {
        fut = submit(sched[i].node);
      } catch (const std::exception& e) {
        // A submit that throws is a failed query, not a dead sender.
        std::promise<serve::QueryResult> failed;
        failed.set_value(serve::QueryResult::failure(
            serve::ServeErrorCode::kExecFailed, e.what()));
        fut = failed.get_future();
      }
      {
        std::lock_guard lock(mu);
        handoff.emplace_back(i, std::move(fut));
      }
      cv.notify_one();
    }
    {
      std::lock_guard lock(mu);
      sender_done = true;
    }
    cv.notify_one();
  });

  std::thread collector([&] {
    std::list<std::pair<std::size_t, std::future<serve::QueryResult>>> out;
    const Clock::time_point give_up =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds + kDrainTimeoutS));
    for (;;) {
      {
        std::unique_lock lock(mu);
        if (out.empty()) {
          cv.wait(lock, [&] { return !handoff.empty() || sender_done; });
        }
        while (!handoff.empty()) {
          out.push_back(std::move(handoff.front()));
          handoff.pop_front();
        }
        if (out.empty() && sender_done) break;
      }
      if (Clock::now() > give_up) {
        // Unanswered queries stay !ok and count as failed; the futures are
        // still drained (the server resolves every promise).
        for (auto& entry : out) entry.second.wait();
        out.clear();
        continue;
      }
      // Block on the oldest query (answers mostly land in FIFO order),
      // then sweep every outstanding future: a batch that finishes ahead
      // of the oldest one is timestamped at most kSweep late.
      out.front().second.wait_for(kSweep);
      for (auto it = out.begin(); it != out.end();) {
        if (it->second.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++it;
          continue;
        }
        Query& q = res.queries[it->first];
        q.done_ms = since(Clock::now());
        const serve::QueryResult r = it->second.get();
        const std::int64_t node = sched[it->first].node;
        q.label = r.ok() ? r.value().label : -1;
        q.ok = r.ok() && r.value().node == node &&
               r.value().label == oracle_[static_cast<std::size_t>(node)];
        it = out.erase(it);
      }
    }
  });

  sender.join();
  collector.join();
  for (const auto& q : res.queries) res.failed += q.ok ? 0 : 1;
  return res;
}

double ServePipeline::closed_loop(double seconds, std::uint64_t seed) {
  Rng rng(seed);
  std::deque<std::pair<std::int64_t, std::future<serve::QueryResult>>> q;
  std::int64_t attempted = 0, failed = 0;
  const auto push = [&] {
    const auto node = static_cast<std::int64_t>(
        rng.uniform_int(static_cast<std::uint64_t>(graph_.num_nodes())));
    q.emplace_back(node, submit(node));
    ++attempted;
  };
  const auto pop = [&] {
    auto [node, fut] = std::move(q.front());
    q.pop_front();
    const serve::QueryResult r = fut.get();
    const bool ok =
        r.ok() && r.value().node == node &&
        r.value().label == oracle_[static_cast<std::size_t>(node)];
    failed += ok ? 0 : 1;
  };
  for (std::int64_t i = 0; i < kOutstanding; ++i) push();
  Timer t;
  std::int64_t completed = 0;
  while (t.seconds() < seconds) {
    pop();
    ++completed;
    push();
  }
  const double rate = static_cast<double>(completed) / t.seconds();
  while (!q.empty()) pop();
  rc_.report.attempt(attempted);
  rc_.report.fail(failed, "capacity-window queries failed or answered wrong");
  return rate;
}

void ServePipeline::cycle(bool traced) {
  for (int k = 0; k < kStepsPerCycle; ++k) {
    const std::uint64_t seed = derive_seed(rc_.seed, 100 + steps_);
    ++steps_;
    if (traced) {
      traced_step(seed);
    } else {
      plain_step(seed);
    }
  }
  if (!rc_.trace) {
    capacity_.push_back(
        closed_loop(kWindowS, derive_seed(rc_.seed, 100 + steps_) ^ 1));
    log_line("capacity window: " + std::to_string(capacity_.back()) +
             " queries/s");
  }
}

void ServePipeline::plain_step(std::uint64_t seed) {
  Step s = open_loop(kStepS, seed);
  log_step("fixed-rate", steps_ - 1, s);
  rc_.report.attempt(static_cast<std::int64_t>(s.queries.size()));
  rc_.report.fail(s.failed, "fixed-rate queries failed or answered wrong");
  if (plain_.empty()) {
    // The stream's first 1000 queries with their served labels.
    const auto sched = poisson_schedule(kRateQps, kStepS,
                                        graph_.num_nodes(), seed);
    Digest d;
    for (std::size_t i = 0; i < std::min<std::size_t>(1000, sched.size());
         ++i) {
      d.pod(sched[i].node);
      d.pod(s.queries[i].label);
    }
    rc_.digests.emplace_back("serve.stream", d.hex());
  }
  plain_.push_back(std::move(s));
}

void ServePipeline::traced_step(std::uint64_t seed) {
  Traced& tr = *traced_;
  const auto stats = [&] {
    return single_ ? single_->stats() : sharded_->stats().total;
  };
  const auto latency = [&] {
    return single_ ? single_->latency_snapshot()
                   : sharded_->latency_snapshot();
  };
  const auto router = [&]() -> std::pair<std::uint64_t, std::uint64_t> {
    if (single_) return {0, 0};
    const auto st = sharded_->stats();
    return {st.failovers, st.hedges};
  };
  const serve::ServerStats before = stats();
  const obs::HistogramData lat_before = latency();
  const auto router_before = router();
  std::vector<obs::HistogramData> stage_before;
  for (auto* h : tr.stage_hist) stage_before.push_back(h->snapshot());

  obs::trace::clear();
  obs::trace::set_enabled(true);
  obs::set_profiling(true);
  Step s;
  {
    SpanLog::Scope span(rc_.spans, "serve.traced_step");
    s = open_loop(kStepS, seed);
  }
  obs::trace::set_enabled(false);
  obs::set_profiling(false);
  log_step("traced", steps_ - 1, s);
  rc_.report.attempt(static_cast<std::int64_t>(s.queries.size()));
  rc_.report.fail(s.failed, "traced queries failed or answered wrong");

  const auto events = obs::trace::snapshot_events();
  async_durations(events, "serve.queue_wait", tr.queue_wait);
  async_durations(events, "serve.exec", tr.exec);
  complete_durations(events, "serve.batch_form", tr.batch_form);
  const serve::ServerStats after = stats();
  tr.batches += static_cast<double>(after.batches - before.batches);
  tr.answered += static_cast<double>(after.queries - before.queries);
  tr.inner.merge(latency().delta_since(lat_before));
  const auto router_after = router();
  tr.failovers += router_after.first - router_before.first;
  tr.hedges += router_after.second - router_before.second;
  for (std::size_t i = 0; i < tr.stage_hist.size(); ++i) {
    tr.stage[i].merge(
        tr.stage_hist[i]->snapshot().delta_since(stage_before[i]));
  }
  for (const auto& q : s.queries) {
    if (q.ok) tr.client.push_back(q.done_ms - q.sent_ms);
  }
  const auto late = late_ms(s);
  tr.late.insert(tr.late.end(), late.begin(), late.end());
  tr.steps.push_back(std::move(s));
}

void ServePipeline::finish() {
  Report& rep = rc_.report;
  if (!rc_.trace) {
    std::vector<double> pooled;
    for (const Step& s : plain_) latencies(s, pooled);
    rep.metric("serve_p50_ms", quantile(pooled, 0.5), "ms");
    rep.metric("serve_capacity_qps", median(capacity_), "1/s");
    std::ostringstream os;
    os << "fixed rate " << kRateQps << "/s: " << pooled.size()
       << " queries in " << plain_.size() << " steps, pooled p99 "
       << quantile(pooled, 0.99) << " ms";
    log_line(os.str());
    return;
  }

  Traced& tr = *traced_;
  if (spec_.primary) {
    std::vector<double> plain_p50, traced_p50;
    for (const Step& s : plain_) plain_p50.push_back(step_quantile(s, 0.5));
    for (const Step& s : tr.steps) {
      traced_p50.push_back(step_quantile(s, 0.5));
    }
    rep.metric("obs.trace_overhead_ratio",
               median(traced_p50) / median(plain_p50), "ratio");
  }
  const double mean_batch = tr.batches > 0 ? tr.answered / tr.batches : 0.0;
  const double inner_p50 = tr.inner.quantile(0.5);
  rep.metric("serve.queue_wait_ms.p50", quantile(tr.queue_wait, 0.5), "ms");
  rep.metric("serve.queue_wait_ms.p99", quantile(tr.queue_wait, 0.99), "ms");
  rep.metric("serve.batch_form_ms.p50", quantile(tr.batch_form, 0.5), "ms");
  rep.metric("serve.exec_ms.p50", quantile(tr.exec, 0.5), "ms");
  rep.metric("serve.exec_ms.p99", quantile(tr.exec, 0.99), "ms");
  rep.metric("serve.mean_batch", mean_batch, "count");
  rep.metric("serve.batches",
             tr.batches / static_cast<double>(tr.steps.size()), "count");
  rep.metric("serve.inner_p50_ms", inner_p50, "ms");
  rep.metric("router.overhead_p50_ms",
             quantile(tr.client, 0.5) - inner_p50, "ms");
  rep.metric("router.failovers", static_cast<double>(tr.failovers), "count");
  rep.metric("router.hedges", static_cast<double>(tr.hedges), "count");
  rep.metric("load.late_p99_ms", quantile(tr.late, 0.99), "ms");
  rep.metric("load.backlog_end",
             static_cast<double>(backlog_at(tr.steps.back(),
                                            tr.steps.back().duration_ms)),
             "count");
  for (std::size_t i = 0; i < tr.stage.size(); ++i) {
    rep.metric(std::string("exec.stage_ms.") + kStages[i],
               tr.stage[i].mean(), "ms");
  }

  // The exec layer's query path on a batch of the traced steps' mean
  // size, on one OpenMP lane like a serving worker.
  OmpLanes one(1);
  const ModelConfig& cfg = soup_.config();
  serve::InferenceEngine engine(cfg, snapshot_.params, ctx_,
                                graph_.features);
  Rng rng(derive_seed(rc_.seed, 33));
  const auto batch = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::lround(mean_batch)));
  std::vector<std::int64_t> nodes;
  for (std::int64_t i = 0; i < batch; ++i) {
    nodes.push_back(static_cast<std::int64_t>(
        rng.uniform_int(static_cast<std::uint64_t>(graph_.num_nodes()))));
  }
  std::shared_ptr<const exec::SubgraphPlan> plan;
  const double plan_ms = probe_ms(rc_.spans, "exec.subgraph_plan", 5, [&] {
    plan = engine.compile_query_plan(nodes);
  });
  Tensor out = Tensor::empty({batch, cfg.out_dim});
  const double query_ms = probe_ms(rc_.spans, "exec.subgraph_query", 5,
                                   [&] { engine.query(*plan, out); });
  rep.metric("exec.subgraph_plan_ms", plan_ms, "ms");
  rep.metric("exec.subgraph_query_ms", query_ms, "ms");
  rep.metric("exec.subgraph_nodes",
             static_cast<double>(plan->layers.front().num_src()), "count");
}

}  // namespace perfbench
