#include "serve/shard_server.hpp"

#include <algorithm>
#include <utility>

#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/failpoint.hpp"

namespace gsoup::serve {

namespace {
/// How long the collector sleeps when nothing is ready. Small enough that
/// hedge delays in the low milliseconds stay meaningful; large enough
/// that an idle router costs nothing measurable.
constexpr auto kCollectorIdleWait = std::chrono::microseconds(200);
}  // namespace

const char* replica_health_name(ReplicaHealth h) {
  switch (h) {
    case ReplicaHealth::kHealthy: return "healthy";
    case ReplicaHealth::kSuspect: return "suspect";
    case ReplicaHealth::kDown: return "down";
    case ReplicaHealth::kRecovering: return "recovering";
  }
  return "unknown";
}

std::string replica_exec_failpoint(std::int64_t shard, std::int64_t replica) {
  return "serve.replica_exec.s" + std::to_string(shard) + ".r" +
         std::to_string(replica);
}

ShardSet make_serving_shards(const Csr& graph, const ModelConfig& config,
                             const ShardServerOptions& opt) {
  // The partitioners refuse num_parts > num_nodes; a caller asking for
  // more shards than nodes still gets the shard count it asked for —
  // partition what exists, pad with empty shards (never routed to).
  GSOUP_CHECK_MSG(opt.num_shards >= 1, "need >= 1 shard");
  const std::int64_t effective =
      std::min<std::int64_t>(opt.num_shards, graph.num_nodes);
  GSOUP_CHECK_MSG(effective >= 1, "cannot shard an empty graph");
  PartitionOptions popt;
  popt.num_parts = effective;
  popt.seed = opt.seed;
  // Serving has no validation split: balance node counts only.
  const std::vector<std::uint8_t> no_mask(
      static_cast<std::size_t>(graph.num_nodes), 0);
  const Partitioning parts = run_partitioner(
      graph, parse_partition_algo(opt.partitioner), popt, no_mask);
  // halo = layer count: the minimal depth that keeps an L-layer query —
  // including the source degrees its normalisation weights read —
  // entirely shard-local (see partition/sharding.hpp).
  ShardSet set = build_shard_set(graph, parts,
                                 std::max<std::int64_t>(1, config.num_layers));
  for (std::int64_t s = effective; s < opt.num_shards; ++s) {
    ShardGraph empty;
    empty.index = s;
    empty.graph.num_nodes = 0;
    empty.graph.indptr = {0};
    set.shards.push_back(std::move(empty));
  }
  set.num_shards = opt.num_shards;
  return set;
}

ShardedServer::ShardedServer(const Snapshot& snapshot, const ShardSet& shards,
                             const Tensor& features, ShardServerOptions opt)
    : opt_(std::move(opt)),
      num_shards_(shards.num_shards),
      replicas_(opt_.replication_factor),
      out_dim_(snapshot.config.out_dim),
      owner_(shards.owner),
      local_id_(shards.local_id) {
  snapshot.validate();
  GSOUP_CHECK_MSG(num_shards_ >= 1, "sharded server needs >= 1 shard");
  GSOUP_CHECK_MSG(replicas_ >= 1 && replicas_ <= 32,
                  "replication_factor must be in [1, 32], got " << replicas_);
  GSOUP_CHECK_MSG(opt_.suspect_after >= 1 &&
                      opt_.down_after >= opt_.suspect_after,
                  "need down_after >= suspect_after >= 1");
  GSOUP_CHECK_MSG(snapshot.graph.num_nodes == shards.num_nodes(),
                  "snapshot was souped on " << snapshot.graph.num_nodes
                                            << " nodes; the shard set covers "
                                            << shards.num_nodes());
  GSOUP_CHECK_MSG(shards.halo_hops >= snapshot.config.num_layers,
                  "shard halo depth " << shards.halo_hops
                                      << " cannot serve a "
                                      << snapshot.config.num_layers
                                      << "-layer model shard-locally");
  GSOUP_CHECK_MSG(features.rank() == 2 &&
                      features.shape(0) == shards.num_nodes() &&
                      features.shape(1) == snapshot.config.in_dim,
                  "feature matrix " << features.shape_str()
                                    << " does not match graph/model");

  m_router_failed_ = &obs::counter(
      "serve.shard.router_failed", "",
      "Queries failed at shard dispatch (serve.shard_dispatch faults)");
  m_retries_ = &obs::counter(
      "serve.shard.retries_observed", "",
      "Client-side retries reported to the shard router");
  m_failover_ = &obs::counter("serve.replica.failover", "",
                              "Queries re-dispatched to a live sibling "
                              "replica after a replica failure");
  m_hedge_ = &obs::counter("serve.replica.hedge", "",
                           "Hedged dispatches fired to a second replica");
  m_hedge_wins_ = &obs::counter(
      "serve.replica.hedge_wins", "",
      "Hedged dispatches that answered before the primary");
  m_probe_ = &obs::counter("serve.replica.probe", "",
                           "Canary probes issued against down replicas");
  m_readmit_ = &obs::counter(
      "serve.replica.readmissions", "",
      "Down replicas readmitted to rotation by a canary probe");
  m_stale_ = &obs::counter(
      "serve.replica.stale_served", "",
      "Queries answered from the stale table (shard fully down)");
  m_exhausted_ = &obs::counter(
      "serve.replica.exhausted", "",
      "Queries failed ReplicasExhausted (no live replica left)");

  if (opt_.degraded == DegradedPolicy::kServeStale) {
    stale_logits_ = Tensor::empty({shards.num_nodes(), out_dim_});
  }

  shards_.resize(static_cast<std::size_t>(num_shards_));
  owned_counts_.assign(static_cast<std::size_t>(num_shards_), 0);
  for (std::int64_t s = 0; s < num_shards_; ++s) {
    const ShardGraph& shard = shards.shards[static_cast<std::size_t>(s)];
    Shard& state = shards_[static_cast<std::size_t>(s)];
    owned_counts_[static_cast<std::size_t>(s)] = shard.num_owned;
    if (shard.num_local() == 0) continue;  // empty shard: never routed to

    // Per-shard engine stack, built ONCE and shared by every replica:
    // local GraphPlan (optional reordering of the shard-local numbering),
    // context with cached layouts, and the feature slice in shard-local
    // row order. Replication duplicates engine workspaces only.
    auto plan =
        std::make_shared<graph::GraphPlan>(shard.graph, opt_.reorder);
    auto ctx = std::make_shared<GraphContext>(std::move(plan),
                                              snapshot.config.arch);
    Tensor local_features =
        Tensor::empty({shard.num_local(), features.shape(1)});
    ops::gather_rows_into(features, shard.nodes, local_features);

    // Half-precision serving: quantize the shard's (plan-space) feature
    // slice ONCE here; every replica's BatchServer — and each of its
    // worker engines — shares this buffer, so replication still
    // duplicates only engine workspaces, now at half the feature cost.
    std::shared_ptr<const HalfBuffer> shard_half;
    if (opt_.server.precision != Precision::kFp32) {
      const Tensor plan_feats =
          (ctx->plan() != nullptr && ctx->plan()->active())
              ? ctx->plan()->permute_rows(local_features)
              : local_features;
      shard_half = std::make_shared<const HalfBuffer>(
          HalfBuffer::quantize(plan_feats, opt_.server.precision));
    }

    // The inner server validates its snapshot against the shard-local
    // graph: rewrite the counts (parameters stay storage-shared with the
    // caller's snapshot — a shard is a view, not a copy, of the model).
    Snapshot local_snap = snapshot;
    local_snap.graph.num_nodes = shard.num_local();
    local_snap.graph.num_edges = shard.graph.num_edges();

    if (opt_.degraded == DegradedPolicy::kServeStale) {
      // Stale fallback: one cached-full pass over the shard-local graph;
      // the halo contract makes the OWNED rows bit-exact to the global
      // cached-full oracle (tests/test_shard.cpp CachedFullMode...), so
      // scattering them by shard.nodes assembles the global table
      // without ever needing the global CSR.
      InferenceEngine oracle(
          local_snap.config, local_snap.params, ctx, local_features,
          QueryMode::kCachedFull,
          shard_half != nullptr && ctx->plan() != nullptr &&
                  ctx->plan()->active()
              ? FeatureSpace::kPlan
              : FeatureSpace::kOriginal,
          opt_.server.precision, shard_half);
      const Tensor& local_logits = oracle.full_logits();
      for (std::int64_t i = 0; i < shard.num_owned; ++i) {
        const float* src = local_logits.data() + i * out_dim_;
        float* dst = stale_logits_.data() +
                     shard.nodes[static_cast<std::size_t>(i)] * out_dim_;
        std::copy(src, src + out_dim_, dst);
      }
    }

    state.probe_local = 0;  // first owned node: ring-0, always present
    state.hedge_delay_ms.store(opt_.hedge_min_delay_ms,
                               std::memory_order_relaxed);
    state.replicas.resize(static_cast<std::size_t>(replicas_));
    for (std::int64_t r = 0; r < replicas_; ++r) {
      ServerConfig cfg = opt_.server;
      cfg.metric_prefix = "serve.shard.";
      cfg.metric_labels = obs::format_label("shard", std::to_string(s)) +
                          "," +
                          obs::format_label("replica", std::to_string(r));
      cfg.report_ids =
          std::make_shared<const std::vector<std::int64_t>>(shard.nodes);
      cfg.row_guard = std::make_shared<const std::vector<std::uint8_t>>(
          shard.row_complete);
      cfg.exec_failpoint = replica_exec_failpoint(s, r);
      cfg.half_features = shard_half;  // replicas share one half slice
      Replica& rep = state.replicas[static_cast<std::size_t>(r)];
      rep.server = std::make_unique<BatchServer>(local_snap, ctx,
                                                 local_features, cfg);
      rep.m_health = &obs::gauge(
          "serve.replica.health", cfg.metric_labels,
          "Replica health (0 healthy, 1 suspect, 2 down, 3 recovering)");
      rep.m_health->set(0.0);
    }
  }

  collector_ = std::thread([this] { collector_loop(); });
  probe_ = std::thread([this] { probe_loop(); });
}

ShardedServer::~ShardedServer() {
  // Phase 1: close intake — every further submit resolves kShutdown.
  {
    std::lock_guard lock(inflight_mutex_);
    closed_ = true;
  }
  // Phase 2: retire the probe thread. It may be mid-probe; the inner
  // servers are still alive, so its outstanding probe future resolves.
  {
    std::lock_guard lock(probe_mutex_);
    probe_stop_ = true;
  }
  probe_cv_.notify_all();
  if (probe_.joinable()) probe_.join();
  // Phase 3: let the collector finish what is in flight. collector_stop_
  // forbids NEW failovers/hedges, so every entry resolves with the
  // verdict of its outstanding dispatch — the inner servers (still
  // alive) resolve every admitted promise by their own contract.
  {
    std::lock_guard lock(inflight_mutex_);
    collector_stop_ = true;
  }
  inflight_cv_.notify_all();
  if (collector_.joinable()) collector_.join();
  // Phase 4: inner servers tear down (drain/fail-fast per their config).
}

std::int32_t ShardedServer::shard_of(std::int64_t node) const {
  GSOUP_CHECK_MSG(node >= 0 && node < num_nodes(),
                  "node " << node << " out of range [0, " << num_nodes()
                          << ")");
  return owner_[static_cast<std::size_t>(node)];
}

bool ShardedServer::dispatch_allowed(std::int64_t shard) {
  try {
    FAILPOINT("serve.shard_dispatch");
  } catch (const std::exception&) {
    return false;
  }
  (void)shard;
  return true;
}

int ShardedServer::pick_replica(std::int64_t shard, std::uint32_t exclude) {
  Shard& st = shards_[static_cast<std::size_t>(shard)];
  const int n = static_cast<int>(st.replicas.size());
  if (n == 0) return -1;
  std::lock_guard lock(health_mutex_);
  const std::uint64_t start = st.rr++;
  int suspect = -1;
  for (int k = 0; k < n; ++k) {
    const int r = static_cast<int>((start + static_cast<std::uint64_t>(k)) %
                                   static_cast<std::uint64_t>(n));
    if ((exclude >> r) & 1u) continue;
    const ReplicaHealth h = st.replicas[static_cast<std::size_t>(r)].health;
    if (h == ReplicaHealth::kHealthy || h == ReplicaHealth::kRecovering) {
      return r;
    }
    if (h == ReplicaHealth::kSuspect && suspect < 0) suspect = r;
  }
  return suspect;
}

bool ShardedServer::shard_all_down(std::int64_t shard) const {
  const Shard& st = shards_[static_cast<std::size_t>(shard)];
  std::lock_guard lock(health_mutex_);
  for (const Replica& r : st.replicas) {
    if (r.health != ReplicaHealth::kDown) return false;
  }
  return !st.replicas.empty();
}

void ShardedServer::set_health_locked(std::int64_t shard, int replica,
                                      ReplicaHealth h) {
  Replica& rep =
      shards_[static_cast<std::size_t>(shard)].replicas[static_cast<std::size_t>(
          replica)];
  rep.health = h;
  rep.m_health->set(static_cast<double>(static_cast<int>(h)));
}

void ShardedServer::note_result(std::int64_t shard, int replica, bool ok,
                                ServeErrorCode code) {
  std::lock_guard lock(health_mutex_);
  Replica& rep =
      shards_[static_cast<std::size_t>(shard)].replicas[static_cast<std::size_t>(
          replica)];
  if (ok) {
    rep.failure_streak = 0;
    if (rep.health != ReplicaHealth::kHealthy) {
      set_health_locked(shard, replica, ReplicaHealth::kHealthy);
    }
    return;
  }
  // Only execution failures and deadline expiries indict the replica;
  // overload is load (the router's, not the replica's, problem) and
  // shutdown is teardown.
  if (code != ServeErrorCode::kExecFailed &&
      code != ServeErrorCode::kDeadlineExceeded) {
    return;
  }
  ++rep.failure_streak;
  if (rep.health == ReplicaHealth::kRecovering) {
    // One strike while on probation: straight back down.
    set_health_locked(shard, replica, ReplicaHealth::kDown);
  } else if (rep.failure_streak >= opt_.down_after) {
    set_health_locked(shard, replica, ReplicaHealth::kDown);
  } else if (rep.failure_streak >= opt_.suspect_after &&
             rep.health == ReplicaHealth::kHealthy) {
    set_health_locked(shard, replica, ReplicaHealth::kSuspect);
  }
}

QueryResult ShardedServer::stale_answer(std::int64_t global_node) const {
  const float* row = stale_logits_.data() + global_node * out_dim_;
  Prediction pred;
  pred.node = global_node;
  pred.label = static_cast<std::int32_t>(ops::argmax_row(row, out_dim_));
  pred.score = row[pred.label];
  pred.stale = true;
  return QueryResult::success(pred);
}

std::future<QueryResult> ShardedServer::submit(std::int64_t node) {
  return submit(node, opt_.server.default_deadline_ms);
}

std::future<QueryResult> ShardedServer::submit(std::int64_t node,
                                               double deadline_ms) {
  const std::int32_t s = shard_of(node);
  GSOUP_CHECK_MSG(!shards_[static_cast<std::size_t>(s)].replicas.empty(),
                  "node " << node << " routed to empty shard " << s);
  if (!dispatch_allowed(s)) {
    router_failed_.fetch_add(1, std::memory_order_relaxed);
    m_router_failed_->inc();
    std::promise<QueryResult> pr;
    pr.set_value(QueryResult::failure(
        ServeErrorCode::kExecFailed,
        "shard dispatch fault (shard " + std::to_string(s) + ")"));
    return pr.get_future();
  }
  return routed_submit(node, deadline_ms);
}

std::future<QueryResult> ShardedServer::routed_submit(std::int64_t node,
                                                      double deadline_ms) {
  const std::int32_t s = owner_[static_cast<std::size_t>(node)];
  Shard& st = shards_[static_cast<std::size_t>(s)];

  std::promise<QueryResult> out;
  std::future<QueryResult> fut = out.get_future();
  {
    std::unique_lock lock(inflight_mutex_);
    if (closed_) {
      out.set_value(QueryResult::failure(ServeErrorCode::kShutdown,
                                         "sharded server is shutting down"));
      return fut;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    const int r = pick_replica(s, 0);
    if (r < 0) {
      // Every replica down: the degraded-mode policy decides, without
      // burning an inner submission on a server known to be dead.
      if (opt_.degraded == DegradedPolicy::kServeStale) {
        stale_served_.fetch_add(1, std::memory_order_relaxed);
        answered_.fetch_add(1, std::memory_order_relaxed);
        m_stale_->inc();
        out.set_value(stale_answer(node));
      } else {
        replicas_exhausted_.fetch_add(1, std::memory_order_relaxed);
        failed_.fetch_add(1, std::memory_order_relaxed);
        m_exhausted_->inc();
        out.set_value(QueryResult::failure(
            ServeErrorCode::kReplicasExhausted,
            "no live replica for shard " + std::to_string(s)));
      }
      return fut;
    }
    InFlight q;
    q.local = local_id_[static_cast<std::size_t>(node)];
    q.shard = s;
    q.out = std::move(out);
    q.attempt_replica = r;
    q.tried = 1u << r;
    if (deadline_ms > 0.0) {
      q.has_deadline = true;
      q.deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double, std::milli>(
                                          deadline_ms));
    }
    if (opt_.hedge && replicas_ > 1) {
      q.hedge_at =
          Clock::now() +
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double, std::milli>(
                  st.hedge_delay_ms.load(std::memory_order_relaxed)));
    } else {
      q.hedge_fired = true;  // hedging off: never consider it
    }
    q.attempt = st.replicas[static_cast<std::size_t>(r)].server->submit(
        q.local, deadline_ms);
    inflight_.push_back(std::move(q));
  }
  inflight_cv_.notify_all();
  return fut;
}

std::vector<QueryResult> ShardedServer::query(
    std::span<const std::int64_t> nodes) {
  const std::size_t n = nodes.size();
  std::vector<QueryResult> results(n);
  std::vector<std::future<QueryResult>> futures(n);
  std::vector<std::vector<std::size_t>> by_shard(
      static_cast<std::size_t>(num_shards_));
  for (std::size_t i = 0; i < n; ++i) {
    by_shard[static_cast<std::size_t>(shard_of(nodes[i]))].push_back(i);
  }

  // Dispatch every shard's sub-batch first (submits are non-blocking, so
  // shards execute concurrently), then collect shard by shard. A
  // serve.shard_dispatch fault fails exactly that shard's slots; with a
  // `once` spec the first non-empty shard (ascending id) faults
  // deterministically.
  std::vector<std::uint64_t> span_ids(static_cast<std::size_t>(num_shards_),
                                      0);
  std::vector<std::uint8_t> dispatched(static_cast<std::size_t>(num_shards_),
                                       0);
  for (std::int64_t s = 0; s < num_shards_; ++s) {
    const auto& slots = by_shard[static_cast<std::size_t>(s)];
    if (slots.empty()) continue;
    if (!dispatch_allowed(s)) {
      router_failed_.fetch_add(slots.size(), std::memory_order_relaxed);
      m_router_failed_->inc(static_cast<std::uint64_t>(slots.size()));
      for (const std::size_t i : slots) {
        results[i] = QueryResult::failure(
            ServeErrorCode::kExecFailed,
            "shard dispatch fault (shard " + std::to_string(s) + ")");
      }
      continue;
    }
    dispatched[static_cast<std::size_t>(s)] = 1;
    if (obs::trace::enabled()) {
      const std::uint64_t id =
          next_span_id_.fetch_add(1, std::memory_order_relaxed);
      span_ids[static_cast<std::size_t>(s)] = id;
      obs::trace::async_begin("serve.shard_exec", id);
    }
    for (const std::size_t i : slots) {
      futures[i] = routed_submit(nodes[i], opt_.server.default_deadline_ms);
    }
  }
  for (std::int64_t s = 0; s < num_shards_; ++s) {
    if (dispatched[static_cast<std::size_t>(s)] == 0) continue;
    for (const std::size_t i : by_shard[static_cast<std::size_t>(s)]) {
      results[i] = futures[i].get();
    }
    if (span_ids[static_cast<std::size_t>(s)] != 0) {
      obs::trace::async_end("serve.shard_exec",
                            span_ids[static_cast<std::size_t>(s)]);
    }
  }
  return results;
}

void ShardedServer::resolve_ok(InFlight& q, QueryResult result) {
  answered_.fetch_add(1, std::memory_order_relaxed);
  q.out.set_value(std::move(result));
}

void ShardedServer::resolve_failure(InFlight& q, const ServeError& err) {
  if (opt_.degraded == DegradedPolicy::kServeStale &&
      shard_all_down(q.shard)) {
    // The whole shard died under this query: same degraded contract as a
    // query that arrived after the last replica went down.
    const Shard& st = shards_[static_cast<std::size_t>(q.shard)];
    const std::int64_t global =
        st.replicas[0].server->config().report_ids->at(
            static_cast<std::size_t>(q.local));
    stale_served_.fetch_add(1, std::memory_order_relaxed);
    answered_.fetch_add(1, std::memory_order_relaxed);
    m_stale_->inc();
    q.out.set_value(stale_answer(global));
    return;
  }
  failed_.fetch_add(1, std::memory_order_relaxed);
  if (q.failovers > 0) {
    // The router DID fail over and still lost: report the distinct code
    // so clients (and loadgen buckets) can tell a dead replica set from
    // one slow server.
    replicas_exhausted_.fetch_add(1, std::memory_order_relaxed);
    m_exhausted_->inc();
    q.out.set_value(QueryResult::failure(
        ServeErrorCode::kReplicasExhausted,
        "failover exhausted after " + std::to_string(q.failovers) +
            " attempt(s) on shard " + std::to_string(q.shard) +
            "; first error: " + q.first_error.message));
    return;
  }
  q.out.set_value(QueryResult::failure(err.code, err.message));
}

double ShardedServer::remaining_deadline_ms(const InFlight& q,
                                            Clock::time_point now,
                                            double fallback) const {
  if (!q.has_deadline) return fallback;
  return std::chrono::duration<double, std::milli>(q.deadline - now).count();
}

bool ShardedServer::collector_pass() {
  // inflight_mutex_ held by the caller. Inner submits and promise
  // resolution both happen under it: the inner servers never take router
  // locks, so there is no ordering cycle.
  bool progress = false;
  const auto now = Clock::now();

  for (auto it = zombies_.begin(); it != zombies_.end();) {
    if (it->fut.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      const QueryResult r = it->fut.get();
      note_result(it->shard, it->replica, r.ok(),
                  r.ok() ? ServeErrorCode::kShutdown : r.error().code);
      it = zombies_.erase(it);
      progress = true;
    } else {
      ++it;
    }
  }

  for (auto it = inflight_.begin(); it != inflight_.end();) {
    InFlight& q = *it;
    bool done = false;

    // Hedge verdict first: a win resolves the query and demotes the
    // primary to a zombie (drained above for health accounting only).
    if (q.hedge.valid() && q.hedge.wait_for(std::chrono::seconds(0)) ==
                               std::future_status::ready) {
      QueryResult r = q.hedge.get();
      note_result(q.shard, q.hedge_replica, r.ok(),
                  r.ok() ? ServeErrorCode::kShutdown : r.error().code);
      progress = true;
      if (r.ok()) {
        hedge_wins_.fetch_add(1, std::memory_order_relaxed);
        m_hedge_wins_->inc();
        if (q.attempt.valid()) {
          zombies_.push_back(
              Zombie{std::move(q.attempt), q.shard, q.attempt_replica});
        }
        resolve_ok(q, std::move(r));
        done = true;
      } else {
        if (!q.failed_before) {
          q.failed_before = true;
          q.first_error = r.error();
        }
        q.hedge = {};
        if (!q.attempt.valid()) {
          // The primary already failed and was not re-dispatched; the
          // hedge was the last dispatch standing.
          resolve_failure(q, r.error());
          done = true;
        }
      }
    }

    if (!done && q.attempt.valid() &&
        q.attempt.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
      QueryResult r = q.attempt.get();
      note_result(q.shard, q.attempt_replica, r.ok(),
                  r.ok() ? ServeErrorCode::kShutdown : r.error().code);
      progress = true;
      if (r.ok()) {
        if (q.hedge.valid()) {
          zombies_.push_back(
              Zombie{std::move(q.hedge), q.shard, q.hedge_replica});
        }
        resolve_ok(q, std::move(r));
        done = true;
      } else {
        if (!q.failed_before) {
          q.failed_before = true;
          q.first_error = r.error();
        }
        // Failover: re-dispatch to the next live replica the query has
        // not tried, within its remaining deadline budget. Teardown
        // (collector_stop_) and terminal codes stop the cascade.
        const bool budget_ok = !q.has_deadline || now < q.deadline;
        int next = -1;
        if (!collector_stop_ && budget_ok &&
            r.error().code != ServeErrorCode::kShutdown) {
          next = pick_replica(q.shard, q.tried);
        }
        if (next >= 0) {
          q.tried |= 1u << next;
          ++q.failovers;
          failovers_.fetch_add(1, std::memory_order_relaxed);
          m_failover_->inc();
          q.attempt_replica = next;
          Shard& st = shards_[static_cast<std::size_t>(q.shard)];
          q.attempt =
              st.replicas[static_cast<std::size_t>(next)].server->submit(
                  q.local, remaining_deadline_ms(q, now, 0.0));
        } else if (q.hedge.valid()) {
          q.attempt = {};  // let the still-racing hedge decide
        } else {
          resolve_failure(q, r.error());
          done = true;
        }
      }
    }

    // Hedged dispatch: the primary has outlived the shard's latency
    // quantile — race a second replica, first answer wins.
    if (!done && !q.hedge_fired && q.attempt.valid() && now >= q.hedge_at &&
        !collector_stop_) {
      q.hedge_fired = true;
      const int h = pick_replica(q.shard, q.tried);
      if (h >= 0) {
        q.tried |= 1u << h;
        q.hedge_replica = h;
        hedges_.fetch_add(1, std::memory_order_relaxed);
        m_hedge_->inc();
        Shard& st = shards_[static_cast<std::size_t>(q.shard)];
        q.hedge = st.replicas[static_cast<std::size_t>(h)].server->submit(
            q.local, remaining_deadline_ms(q, now, 0.0));
        progress = true;
      }
    }

    it = done ? inflight_.erase(it) : std::next(it);
  }
  return progress;
}

void ShardedServer::collector_loop() {
  std::unique_lock lock(inflight_mutex_);
  for (;;) {
    const bool progress = collector_pass();
    if (inflight_.empty() && zombies_.empty()) {
      inflight_cv_.notify_all();  // wake drain()
      if (collector_stop_) return;
    }
    if (!progress) {
      inflight_cv_.wait_for(lock, kCollectorIdleWait);
    }
  }
}

void ShardedServer::refresh_hedge_delays() {
  if (!opt_.hedge) return;
  for (Shard& st : shards_) {
    if (st.replicas.empty()) continue;
    obs::HistogramData merged;
    for (const Replica& r : st.replicas) {
      merged.merge(r.server->latency_snapshot());
    }
    double delay = opt_.hedge_min_delay_ms;
    if (merged.count() > 0) {
      delay = std::max(delay, merged.quantile(opt_.hedge_quantile));
    }
    st.hedge_delay_ms.store(delay, std::memory_order_relaxed);
  }
}

void ShardedServer::probe_down_replicas() {
  for (std::int64_t s = 0; s < num_shards_; ++s) {
    Shard& st = shards_[static_cast<std::size_t>(s)];
    for (std::size_t r = 0; r < st.replicas.size(); ++r) {
      {
        std::lock_guard lock(health_mutex_);
        if (st.replicas[r].health != ReplicaHealth::kDown) continue;
      }
      // Canary: a known-good owned node, through the replica's ordinary
      // batch path — the probe proves the whole dispatch/execute loop,
      // not just process liveness. Blocking on a dedicated thread; the
      // probe deadline bounds the wait.
      probes_.fetch_add(1, std::memory_order_relaxed);
      m_probe_->inc();
      const std::uint64_t span =
          next_span_id_.fetch_add(1, std::memory_order_relaxed);
      if (obs::trace::enabled()) {
        obs::trace::async_begin("serve.replica_probe", span);
      }
      std::future<QueryResult> fut =
          st.replicas[r].server->submit(st.probe_local,
                                        opt_.probe_deadline_ms);
      const QueryResult res = fut.get();
      if (obs::trace::enabled()) {
        obs::trace::async_end("serve.replica_probe", span);
      }
      if (res.ok()) {
        std::lock_guard lock(health_mutex_);
        if (st.replicas[r].health == ReplicaHealth::kDown) {
          st.replicas[r].failure_streak = 0;
          set_health_locked(s, static_cast<int>(r),
                            ReplicaHealth::kRecovering);
          readmissions_.fetch_add(1, std::memory_order_relaxed);
          m_readmit_->inc();
        }
      }
    }
  }
}

void ShardedServer::probe_loop() {
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(
          std::max(1.0, opt_.probe_interval_ms)));
  std::unique_lock lock(probe_mutex_);
  while (!probe_stop_) {
    probe_cv_.wait_for(lock, interval, [this] { return probe_stop_; });
    if (probe_stop_) return;
    lock.unlock();
    refresh_hedge_delays();
    probe_down_replicas();
    lock.lock();
  }
}

void ShardedServer::drain() {
  // Inner drains flush partial batches; failover re-dispatches can
  // create NEW inner work after a drain pass, so loop until the router
  // itself is idle. Failovers are bounded per query (each replica tried
  // at most once), so this terminates.
  for (;;) {
    for (Shard& st : shards_) {
      for (Replica& r : st.replicas) r.server->drain();
    }
    std::unique_lock lock(inflight_mutex_);
    if (inflight_.empty() && zombies_.empty()) return;
    inflight_cv_.wait_for(lock, std::chrono::milliseconds(1), [this] {
      return inflight_.empty() && zombies_.empty();
    });
  }
}

void ShardedServer::record_retries(std::uint64_t n) {
  retries_observed_.fetch_add(n, std::memory_order_relaxed);
  m_retries_->inc(n);
}

obs::HistogramData ShardedServer::latency_snapshot() const {
  obs::HistogramData merged;
  for (const Shard& st : shards_) {
    for (const Replica& r : st.replicas) {
      merged.merge(r.server->latency_snapshot());
    }
  }
  return merged;
}

std::vector<std::vector<ReplicaHealth>> ShardedServer::replica_health()
    const {
  std::vector<std::vector<ReplicaHealth>> out(
      static_cast<std::size_t>(num_shards_));
  std::lock_guard lock(health_mutex_);
  for (std::int64_t s = 0; s < num_shards_; ++s) {
    const Shard& st = shards_[static_cast<std::size_t>(s)];
    out[static_cast<std::size_t>(s)].reserve(st.replicas.size());
    for (const Replica& r : st.replicas) {
      out[static_cast<std::size_t>(s)].push_back(r.health);
    }
  }
  return out;
}

ShardedStats ShardedServer::stats() const {
  ShardedStats out;
  out.shards.resize(static_cast<std::size_t>(num_shards_));
  out.replicas.resize(static_cast<std::size_t>(num_shards_));
  obs::HistogramData merged;
  const std::vector<std::vector<ReplicaHealth>> health = replica_health();
  for (std::int64_t s = 0; s < num_shards_; ++s) {
    const Shard& st = shards_[static_cast<std::size_t>(s)];
    ServerStats& shard_total = out.shards[static_cast<std::size_t>(s)];
    for (std::size_t r = 0; r < st.replicas.size(); ++r) {
      ServerStats rs = st.replicas[r].server->stats();
      ReplicaStats entry;
      entry.server = rs;
      entry.health = health[static_cast<std::size_t>(s)][r];
      out.replicas[static_cast<std::size_t>(s)].push_back(entry);
      for (ServerStats* acc : {&shard_total, &out.total}) {
        acc->submitted += rs.submitted;
        acc->queries += rs.queries;
        acc->batches += rs.batches;
        acc->rejected += rs.rejected;
        acc->deadline_expired += rs.deadline_expired;
        acc->failed_batches += rs.failed_batches;
        acc->failed_queries += rs.failed_queries;
        acc->shutdown_failed += rs.shutdown_failed;
        acc->plan_cache_hits += rs.plan_cache_hits;
        acc->plan_cache_misses += rs.plan_cache_misses;
      }
      merged.merge(st.replicas[r].server->latency_snapshot());
    }
    if (shard_total.batches > 0) {
      shard_total.mean_batch = static_cast<double>(shard_total.queries) /
                               static_cast<double>(shard_total.batches);
    }
  }
  if (out.total.batches > 0) {
    out.total.mean_batch = static_cast<double>(out.total.queries) /
                           static_cast<double>(out.total.batches);
  }
  if (merged.count() > 0) {
    out.total.p50_latency_ms = merged.quantile(0.50);
    out.total.p99_latency_ms = merged.quantile(0.99);
    out.total.mean_latency_ms = merged.mean();
    out.total.max_latency_ms = merged.max();
  }
  out.total.retries_observed =
      retries_observed_.load(std::memory_order_relaxed);
  out.router_failed = router_failed_.load(std::memory_order_relaxed);
  out.accepted = accepted_.load(std::memory_order_relaxed);
  out.answered = answered_.load(std::memory_order_relaxed);
  out.failed = failed_.load(std::memory_order_relaxed);
  out.stale_served = stale_served_.load(std::memory_order_relaxed);
  out.replicas_exhausted =
      replicas_exhausted_.load(std::memory_order_relaxed);
  out.failovers = failovers_.load(std::memory_order_relaxed);
  out.hedges = hedges_.load(std::memory_order_relaxed);
  out.hedge_wins = hedge_wins_.load(std::memory_order_relaxed);
  out.probes = probes_.load(std::memory_order_relaxed);
  out.readmissions = readmissions_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace gsoup::serve
