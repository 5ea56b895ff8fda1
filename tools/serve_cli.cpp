// Serving command-line tool: train a soup and freeze it into a snapshot,
// inspect snapshots, answer node queries, and load-test the batch server.
//
//   serve_cli save  --out soup.gsnp --data graph.gds [--arch gcn|sage|gat]
//                   [--preset flickr|arxiv|reddit|products] [--scale 0.25]
//                   [--ingredients 4] [--epochs 30] [--workers 2]
//                   [--method uniform|learned]
//                   [--shards N [--partitioner random|ldg|multilevel]]
//                   [--quantized fp16|bf16]
//       Generate a dataset, train ingredients, soup them, and write both
//       the dataset and the model snapshot. With --shards N the snapshot
//       is written in the sharded (v3) layout: the serving graph is
//       partitioned, halo-replicated to the model's layer depth, and
//       stored per shard alongside the owner routing table. With
//       --quantized the (unsharded) snapshot stores its parameters in the
//       16-bit GSQ1 section — roughly half the file; every reader loads
//       it transparently.
//
//   serve_cli info  --snapshot soup.gsnp
//       Print a snapshot's architecture, graph metadata and parameters;
//       for a sharded snapshot, also the shard manifest and replication.
//
//   serve_cli query --snapshot soup.gsnp --data graph.gds --nodes 0,5,17
//                   [--mode subgraph|full] [--precision fp32|fp16|bf16]
//       Answer node-classification queries through the inference engine.
//       A sharded snapshot is answered through the shard router (each
//       query runs on the shard owning its node). --precision selects the
//       serving storage precision (features, weight panels, cached
//       logits); accumulation stays fp32 (docs/ARCHITECTURE.md,
//       "Precision lowering").
//
//   serve_cli bench --snapshot soup.gsnp --data graph.gds [--requests 2000]
//                   [--batch 64] [--workers 2] [--clients 4]
//                   [--delay-ms 2.0] [--mode subgraph|full]
//                   [--max-pending 4096] [--admission reject|shed]
//                   [--deadline-ms 0] [--retries 0] [--retry-budget 0]
//                   [--backoff-ms 1.0] [--allow-failures]
//                   [--precision fp32|fp16|bf16]
//                   [--replicas R] [--degraded-policy fail|stale] [--hedge]
//                   [--chaos-schedule FILE]
//       Drive the batch server from concurrent clients and report
//       p50/p99 latency and QPS, plus the unbatched single-query baseline,
//       plus the failure/degradation counters (rejected, expired, failed,
//       retried). Overload and fault experiments pass --allow-failures;
//       without it any failed query makes the run exit non-zero. A
//       sharded snapshot is driven through the shard router instead of a
//       single server, with a per-shard stats line each. With --replicas R
//       each shard runs R health-tracked BatchServers behind the fault-
//       aware router (failover, canary readmission; --hedge adds hedged
//       dispatch), reported per replica with its health state. A run whose
//       queries all succeeded but where some answers came from the stale
//       table (--degraded-policy stale, shard fully down) exits 5 —
//       "completed in degraded mode" — so scripts can tell it from a
//       clean 0. --chaos-schedule replays a timed failpoint arm/disarm
//       schedule (see util/failpoint.hpp) against the run's serving
//       clock: replicas are killed and revived mid-load.
//
//   serve_cli metrics --snapshot soup.gsnp --data graph.gds
//                     [bench load flags] [--metrics-out metrics.prom]
//       Drive the batch server exactly like `bench` with per-stage exec
//       profiling enabled, then dump the metrics registry in Prometheus
//       text format to stdout (or --metrics-out). Failures don't fail
//       the run — scraping a degraded server is the point.
//
//   Any command accepts --failpoints "name=error[:p]|delay:ms[:once],..."
//   to arm fault injection (see util/failpoint.hpp) before it runs, and
//   the observability outputs:
//     --metrics-out <path>   write the registry as Prometheus text at exit
//                            (also enables per-stage exec profiling)
//     --stats-json <path>    write the registry as JSON at exit
//     --trace-out <path>     enable trace spans and write the run's
//                            Chrome trace-event JSON at exit
//   The outputs are written on failure exits too: a fault-injected bench
//   that exits 4 still leaves its metrics/trace artifacts behind.
//
// Exit codes: 0 success; 2 bad arguments/usage; 3 unreadable or corrupt
// snapshot/dataset input; 4 query or load-test failure; 5 load test
// completed but some answers were served stale (degraded mode); 1
// anything else.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/learned.hpp"
#include "core/soup.hpp"
#include "core/uniform.hpp"
#include "graph/generator.hpp"
#include "io/serialize.hpp"
#include "nn/model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/partitioner.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "serve/shard_server.hpp"
#include "serve/snapshot.hpp"
#include "tensor/ops.hpp"
#include "train/ingredient_farm.hpp"
#include "train/metrics.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace gsoup;

constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;
constexpr int kExitBadInput = 3;    // unreadable/corrupt snapshot or dataset
constexpr int kExitQueryFailed = 4;
constexpr int kExitDegraded = 5;    // all answered, some from the stale table

/// Thrown by commands to request a specific exit code; main() prints the
/// message to stderr as a one-line diagnostic and returns the code.
struct ExitError : std::runtime_error {
  ExitError(int c, const std::string& msg) : std::runtime_error(msg), code(c) {}
  int code;
};

struct Args {
  std::string cmd;
  std::string snapshot_path;
  std::string data_path;
  std::string out_path;
  std::string arch = "gcn";
  std::string preset = "arxiv";
  std::string method = "uniform";
  std::string mode = "subgraph";
  std::string nodes;
  std::string admission = "reject";
  std::string precision = "fp32";  ///< serving storage precision
  std::string quantized;           ///< save: non-empty = GSQ1 params section
  std::string partitioner = "multilevel";
  std::string degraded_policy = "fail";  ///< "fail" | "stale"
  std::string chaos_schedule;            ///< timed failpoint schedule file
  std::string failpoints;
  std::string metrics_out;
  std::string trace_out;
  std::string stats_json;
  double scale = 0.25;
  double delay_ms = 2.0;
  double deadline_ms = 0.0;
  double backoff_ms = 1.0;
  std::int64_t ingredients = 4;
  std::int64_t epochs = 30;
  std::int64_t workers = 2;
  std::int64_t requests = 2000;
  std::int64_t batch = 64;
  std::int64_t clients = 4;
  std::int64_t max_pending = 4096;
  std::int64_t retries = 0;
  std::int64_t retry_budget = 0;
  std::int64_t shards = 0;  ///< save: 0 = unsharded (v2), N >= 1 = v3
  std::int64_t replicas = 1;  ///< serving replicas per shard
  bool hedge = false;
  bool allow_failures = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s save|info|query|bench|metrics [options]\n"
               "see the header of tools/serve_cli.cpp for details\n",
               argv0);
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.cmd = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--snapshot" && (v = next())) args.snapshot_path = v;
    else if (flag == "--data" && (v = next())) args.data_path = v;
    else if (flag == "--out" && (v = next())) args.out_path = v;
    else if (flag == "--arch" && (v = next())) args.arch = v;
    else if (flag == "--preset" && (v = next())) args.preset = v;
    else if (flag == "--method" && (v = next())) args.method = v;
    else if (flag == "--mode" && (v = next())) args.mode = v;
    else if (flag == "--nodes" && (v = next())) args.nodes = v;
    else if (flag == "--scale" && (v = next())) args.scale = std::atof(v);
    else if (flag == "--delay-ms" && (v = next())) args.delay_ms = std::atof(v);
    else if (flag == "--ingredients" && (v = next())) args.ingredients = std::atoll(v);
    else if (flag == "--epochs" && (v = next())) args.epochs = std::atoll(v);
    else if (flag == "--workers" && (v = next())) args.workers = std::atoll(v);
    else if (flag == "--requests" && (v = next())) args.requests = std::atoll(v);
    else if (flag == "--batch" && (v = next())) args.batch = std::atoll(v);
    else if (flag == "--clients" && (v = next())) args.clients = std::atoll(v);
    else if (flag == "--max-pending" && (v = next())) args.max_pending = std::atoll(v);
    else if (flag == "--admission" && (v = next())) args.admission = v;
    else if (flag == "--precision" && (v = next())) args.precision = v;
    else if (flag == "--quantized" && (v = next())) args.quantized = v;
    else if (flag == "--deadline-ms" && (v = next())) args.deadline_ms = std::atof(v);
    else if (flag == "--retries" && (v = next())) args.retries = std::atoll(v);
    else if (flag == "--retry-budget" && (v = next())) args.retry_budget = std::atoll(v);
    else if (flag == "--backoff-ms" && (v = next())) args.backoff_ms = std::atof(v);
    else if (flag == "--shards" && (v = next())) args.shards = std::atoll(v);
    else if (flag == "--replicas" && (v = next())) args.replicas = std::atoll(v);
    else if (flag == "--degraded-policy" && (v = next())) args.degraded_policy = v;
    else if (flag == "--chaos-schedule" && (v = next())) args.chaos_schedule = v;
    else if (flag == "--hedge") args.hedge = true;
    else if (flag == "--partitioner" && (v = next())) args.partitioner = v;
    else if (flag == "--failpoints" && (v = next())) args.failpoints = v;
    else if (flag == "--metrics-out" && (v = next())) args.metrics_out = v;
    else if (flag == "--trace-out" && (v = next())) args.trace_out = v;
    else if (flag == "--stats-json" && (v = next())) args.stats_json = v;
    else if (flag == "--allow-failures") args.allow_failures = true;
    else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

Arch parse_arch(const std::string& name) {
  if (name == "gcn") return Arch::kGcn;
  if (name == "sage") return Arch::kSage;
  if (name == "gat") return Arch::kGat;
  GSOUP_CHECK_MSG(false, "unknown arch '" << name << "'");
  return Arch::kGcn;
}

serve::QueryMode parse_mode(const std::string& name) {
  if (name == "subgraph") return serve::QueryMode::kSubgraph;
  if (name == "full") return serve::QueryMode::kCachedFull;
  GSOUP_CHECK_MSG(false, "unknown query mode '" << name << "'");
  return serve::QueryMode::kSubgraph;
}

/// Bad --precision/--quantized/--partitioner values are usage errors
/// (exit 2), like any other malformed flag, not internal errors.
Precision parse_precision_arg(const std::string& name) {
  try {
    return parse_precision(name);
  } catch (const std::exception& e) {
    throw ExitError(kExitUsage, e.what());
  }
}

void check_partitioner_arg(const std::string& name) {
  try {
    parse_partition_algo(name);
  } catch (const std::exception& e) {
    throw ExitError(kExitUsage, e.what());
  }
}

SyntheticSpec preset_spec(const std::string& preset, double scale) {
  if (preset == "flickr") return flickr_like_spec(scale);
  if (preset == "arxiv") return arxiv_like_spec(scale);
  if (preset == "reddit") return reddit_like_spec(scale);
  if (preset == "products") return products_like_spec(scale);
  GSOUP_CHECK_MSG(false, "unknown preset '" << preset << "'");
  return {};
}

/// Missing/invalid flags are usage errors (exit 2), not internal errors.
void require(bool ok, const std::string& message) {
  if (!ok) throw ExitError(kExitUsage, message);
}

/// Unreadable or corrupt serving inputs exit 3, distinct from bad flags
/// (2) and from queries that failed at runtime (4): a deployment script
/// can tell "re-save the snapshot" apart from "fix the command line".
serve::Snapshot load_snapshot_checked(const std::string& path) {
  try {
    return serve::load_snapshot(path);
  } catch (const std::exception& e) {
    throw ExitError(kExitBadInput,
                    std::string("bad snapshot ") + path + ": " + e.what());
  }
}

/// Version-agnostic load: v3 files come back sharded, v1/v2 with zero
/// shards — the serving commands branch on `.sharded()`.
serve::ShardedSnapshot load_sharded_snapshot_checked(const std::string& path) {
  try {
    return serve::load_sharded_snapshot(path);
  } catch (const std::exception& e) {
    throw ExitError(kExitBadInput,
                    std::string("bad snapshot ") + path + ": " + e.what());
  }
}

Dataset load_dataset_checked(const std::string& path) {
  try {
    return io::load_dataset(path);
  } catch (const std::exception& e) {
    throw ExitError(kExitBadInput,
                    std::string("bad dataset ") + path + ": " + e.what());
  }
}

/// A snapshot answers queries correctly only over the graph it was souped
/// on; the engine constructor can't tell (dims may match across datasets),
/// so every serving entry point checks the snapshot's graph metadata.
void check_snapshot_graph(const serve::Snapshot& snap, const Dataset& data) {
  GSOUP_CHECK_MSG(snap.matches_graph(data.graph),
                  "snapshot was souped on '"
                      << snap.graph.dataset << "' (" << snap.graph.num_nodes
                      << " nodes, " << snap.graph.num_edges
                      << " edges); --data has " << data.num_nodes()
                      << " nodes, " << data.num_edges() << " edges");
}

std::vector<std::int64_t> parse_node_list(const std::string& csv) {
  std::vector<std::int64_t> nodes;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    char* end = nullptr;
    const long long v = std::strtoll(item.c_str(), &end, 10);
    GSOUP_CHECK_MSG(end != item.c_str() && *end == '\0',
                    "--nodes: '" << item << "' is not an integer");
    nodes.push_back(v);
  }
  return nodes;
}

int cmd_save(const Args& args) {
  require(!args.out_path.empty() && !args.data_path.empty(),
          "save needs --out and --data");
  require(args.shards >= 0, "--shards must be >= 0");
  check_partitioner_arg(args.partitioner);
  Precision quantized = Precision::kFp32;
  if (!args.quantized.empty()) {
    quantized = parse_precision_arg(args.quantized);
    require(quantized != Precision::kFp32, "--quantized must be fp16 or bf16");
    require(args.shards == 0,
            "--quantized applies to unsharded (v2) snapshots only");
  }
  const Dataset data = generate_dataset(preset_spec(args.preset, args.scale));
  std::printf("dataset: %s\n", dataset_summary(data).c_str());
  io::save_dataset(args.data_path, data);

  ModelConfig cfg;
  cfg.arch = parse_arch(args.arch);
  cfg.in_dim = data.feature_dim();
  cfg.out_dim = data.num_classes;
  cfg.num_layers = 2;
  cfg.hidden_dim = cfg.arch == Arch::kGat ? 16 : 64;
  cfg.heads = 4;
  cfg.dropout = 0.5f;
  const GnnModel model(cfg);
  const GraphContext ctx(data.graph, cfg.arch);

  FarmConfig farm;
  farm.num_ingredients = args.ingredients;
  farm.num_workers = args.workers;
  farm.train.epochs = args.epochs;
  farm.train.schedule.base_lr = cfg.arch == Arch::kSage ? 0.05 : 0.01;
  farm.train.optimizer.kind = OptimizerKind::kAdam;
  std::printf("training %lld ingredients (%lld workers, %lld epochs)...\n",
              static_cast<long long>(farm.num_ingredients),
              static_cast<long long>(farm.num_workers),
              static_cast<long long>(args.epochs));
  const FarmResult ingredients = train_ingredients(model, ctx, data, farm);
  std::printf("ingredients: mean test acc %.2f%% in %.1fs wall\n",
              ingredients.mean_test_acc * 100, ingredients.wall_seconds);

  const SoupContext sctx{model, ctx, data, ingredients.ingredients};
  std::unique_ptr<Souper> souper;
  if (args.method == "uniform") {
    souper = std::make_unique<UniformSouper>();
  } else if (args.method == "learned") {
    souper = std::make_unique<LearnedSouper>();
  } else {
    GSOUP_CHECK_MSG(false, "unknown souping method '" << args.method << "'");
  }
  const SoupReport report = run_souper(*souper, sctx);
  std::printf("%s soup: test acc %.2f%% (souped in %.2fs)\n",
              report.method.c_str(), report.test_acc * 100, report.seconds);

  const serve::Snapshot snap =
      serve::make_snapshot(cfg, report.soup, data, report.method);
  if (args.shards > 0) {
    serve::ShardServerOptions sopt;
    sopt.num_shards = args.shards;
    sopt.partitioner = args.partitioner;
    serve::ShardedSnapshot ss;
    ss.snapshot = snap;
    ss.shards = serve::make_serving_shards(data.graph, cfg, sopt);
    ss.partitioner = args.partitioner;
    serve::save_sharded_snapshot(args.out_path, ss);
    const ShardStats sstats = shard_stats(ss.shards);
    std::printf(
        "sharded: %lld shards (%s), halo %lld hops, replication %.2fx "
        "(%lld halo nodes, largest shard %lld locals)\n",
        static_cast<long long>(ss.shards.num_shards), args.partitioner.c_str(),
        static_cast<long long>(ss.shards.halo_hops),
        sstats.replication_factor, static_cast<long long>(sstats.total_halo),
        static_cast<long long>(sstats.max_shard_local));
  } else if (quantized != Precision::kFp32) {
    serve::save_quantized_snapshot(args.out_path, snap, quantized);
    std::printf("quantized: %s parameter section\n",
                precision_name(quantized));
  } else {
    serve::save_snapshot(args.out_path, snap);
  }
  std::printf("wrote snapshot %s (%zu params, %lld weights) and dataset %s\n",
              args.out_path.c_str(), snap.params.size(),
              static_cast<long long>(snap.params.total_params()),
              args.data_path.c_str());
  return 0;
}

int cmd_info(const Args& args) {
  require(!args.snapshot_path.empty(), "info needs --snapshot");
  const serve::ShardedSnapshot ss =
      load_sharded_snapshot_checked(args.snapshot_path);
  const serve::Snapshot& snap = ss.snapshot;
  std::printf("model:    %s\n", snap.config.describe().c_str());
  std::printf("method:   %s\n", snap.method.c_str());
  std::printf("graph:    %s (%lld nodes, %lld edges, norm=%s, self_loops=%d)\n",
              snap.graph.dataset.c_str(),
              static_cast<long long>(snap.graph.num_nodes),
              static_cast<long long>(snap.graph.num_edges),
              snap.graph.normalization.c_str(),
              snap.graph.self_loops ? 1 : 0);
  std::printf("params:   %zu tensors, %lld weights, %.2f MiB\n",
              snap.params.size(),
              static_cast<long long>(snap.params.total_params()),
              static_cast<double>(snap.params.bytes()) / (1024.0 * 1024.0));
  if (ss.sharded()) {
    const ShardStats sstats = shard_stats(ss.shards);
    std::printf("sharding: %lld shards (%s), halo %lld hops, "
                "replication %.2fx\n",
                static_cast<long long>(ss.shards.num_shards),
                ss.partitioner.c_str(),
                static_cast<long long>(ss.shards.halo_hops),
                sstats.replication_factor);
    std::uint64_t total_bytes = 0;
    for (const serve::ShardSectionReport& rep : serve::manifest_report(ss)) {
      std::printf("  shard %lld: %lld owned + %lld halo locals, "
                  "%lld edges, %llu section bytes\n",
                  static_cast<long long>(rep.shard),
                  static_cast<long long>(rep.owned),
                  static_cast<long long>(rep.halo),
                  static_cast<long long>(rep.edges),
                  static_cast<unsigned long long>(rep.section_bytes));
      total_bytes += rep.section_bytes;
    }
    // The capacity note replica operators actually need: the per-shard
    // graph state is shared across replicas, so serving at R multiplies
    // engine workspaces, never the section bytes below.
    std::printf("  shard sections: %llu bytes total (shared per shard "
                "across any --replicas R)\n",
                static_cast<unsigned long long>(total_bytes));
  }
  return 0;
}

int cmd_query(const Args& args) {
  require(!args.snapshot_path.empty() && !args.data_path.empty(),
          "query needs --snapshot and --data");
  const serve::ShardedSnapshot ss =
      load_sharded_snapshot_checked(args.snapshot_path);
  const serve::Snapshot& snap = ss.snapshot;
  const Dataset data = load_dataset_checked(args.data_path);
  check_snapshot_graph(snap, data);
  const std::vector<std::int64_t> nodes = parse_node_list(args.nodes);
  require(!nodes.empty(), "query needs --nodes id[,id...]");

  if (ss.sharded()) {
    serve::ShardServerOptions sopt;
    sopt.num_shards = ss.shards.num_shards;
    sopt.partitioner = ss.partitioner;
    sopt.server.mode = parse_mode(args.mode);
    sopt.server.precision = parse_precision_arg(args.precision);
    serve::ShardedServer server(snap, ss.shards, data.features, sopt);
    Timer t;
    const std::vector<serve::QueryResult> results = server.query(nodes);
    const double ms = t.milliseconds();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (!results[i].ok()) {
        throw ExitError(kExitQueryFailed, "query for node " +
                                              std::to_string(nodes[i]) +
                                              " failed: " +
                                              results[i].error().message);
      }
      const serve::Prediction& p = results[i].value();
      std::printf("node %lld -> class %d (logit %.4f, true %d) [shard %d]\n",
                  static_cast<long long>(p.node), p.label, p.score,
                  data.labels[static_cast<std::size_t>(p.node)],
                  server.shard_of(nodes[i]));
    }
    std::printf("batch of %zu answered in %.3f ms across %lld shards "
                "(%s mode)\n",
                nodes.size(), ms,
                static_cast<long long>(server.num_shards()),
                args.mode.c_str());
    return 0;
  }

  auto ctx =
      std::make_shared<const GraphContext>(data.graph, snap.config.arch);
  serve::InferenceEngine engine(snap.config, snap.params, ctx, data.features,
                                parse_mode(args.mode),
                                serve::FeatureSpace::kOriginal,
                                parse_precision_arg(args.precision));
  Tensor out = Tensor::empty(
      {static_cast<std::int64_t>(nodes.size()), snap.config.out_dim});
  Timer t;
  try {
    engine.query(nodes, out);
  } catch (const std::exception& e) {
    throw ExitError(kExitQueryFailed,
                    std::string("query failed: ") + e.what());
  }
  const double ms = t.milliseconds();

  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const float* row = out.data() +
                       static_cast<std::int64_t>(i) * snap.config.out_dim;
    const std::int64_t best = ops::argmax_row(row, snap.config.out_dim);
    std::printf("node %lld -> class %lld (logit %.4f, true %d)\n",
                static_cast<long long>(nodes[i]),
                static_cast<long long>(best), row[best],
                data.labels[static_cast<std::size_t>(nodes[i])]);
  }
  std::printf("batch of %zu answered in %.3f ms (%s mode)\n", nodes.size(),
              ms, args.mode.c_str());
  return 0;
}

/// Shared server load run for `bench` and `metrics`: validates the load
/// flags, builds the server, drives it, and returns the loadgen report
/// plus the server's final stats. The sharded variant also reports the
/// per-shard breakdown and router failure count.
struct LoadRunResult {
  serve::LoadReport report;
  serve::ServerStats stats;
  std::vector<serve::ServerStats> shard_stats;  ///< empty if unsharded
  std::uint64_t router_failed = 0;
  /// Per-replica stats + final health, [shard][replica] (sharded only).
  std::vector<std::vector<serve::ReplicaStats>> replica_stats;
  /// Router-level failover/hedge/probe accounting (sharded only).
  serve::ShardedStats router;
  std::uint64_t chaos_steps_fired = 0;
};

/// Arm a timed failpoint schedule for the duration of a load run. The
/// clock starts when the runner is built — construct it immediately
/// before drive_load so `at_ms` offsets mean "ms into the load".
std::unique_ptr<failpoint::ScheduleRunner> make_chaos_runner(
    const Args& args) {
  if (args.chaos_schedule.empty()) return nullptr;
  std::ifstream in(args.chaos_schedule);
  if (!in) {
    throw ExitError(kExitBadInput, "cannot open --chaos-schedule " +
                                       args.chaos_schedule);
  }
  std::stringstream buf;
  buf << in.rdbuf();
  try {
    return std::make_unique<failpoint::ScheduleRunner>(
        failpoint::parse_schedule(buf.str()));
  } catch (const std::exception& e) {
    throw ExitError(kExitBadInput, std::string("bad --chaos-schedule: ") +
                                       e.what());
  }
}

serve::ServerConfig server_config_from_args(const Args& args) {
  require(args.clients >= 1, "--clients must be >= 1");
  require(args.requests >= 1, "--requests must be >= 1");
  require(args.workers >= 1 && args.workers <= 256,
          "--workers must be in [1, 256]");
  require(args.max_pending >= 1, "--max-pending must be >= 1");
  require(args.admission == "reject" || args.admission == "shed",
          "--admission must be reject or shed");
  serve::ServerConfig cfg;
  cfg.workers = static_cast<std::size_t>(args.workers);
  cfg.max_batch = args.batch;
  cfg.max_delay_ms = args.delay_ms;
  cfg.mode = parse_mode(args.mode);
  cfg.max_pending = static_cast<std::size_t>(args.max_pending);
  cfg.admission = args.admission == "shed"
                      ? serve::AdmissionPolicy::kShedOldest
                      : serve::AdmissionPolicy::kRejectNew;
  cfg.precision = parse_precision_arg(args.precision);
  return cfg;
}

serve::LoadgenOptions loadgen_from_args(const Args& args,
                                        std::int64_t num_nodes) {
  serve::LoadgenOptions load;
  load.requests = args.requests;
  load.clients = args.clients;
  load.num_nodes = num_nodes;
  load.deadline_ms = args.deadline_ms;
  load.max_retries = static_cast<int>(args.retries);
  load.retry_budget = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, args.retry_budget));
  load.retry_backoff_ms = args.backoff_ms;
  return load;
}

LoadRunResult run_server_load(const Args& args, const serve::Snapshot& snap,
                              std::shared_ptr<const GraphContext> ctx,
                              const Dataset& data) {
  const serve::ServerConfig cfg = server_config_from_args(args);
  serve::BatchServer server(snap, std::move(ctx), data.features, cfg);
  LoadRunResult r;
  auto chaos = make_chaos_runner(args);
  r.report = serve::drive_load(server, loadgen_from_args(args,
                                                         data.num_nodes()));
  if (chaos) {
    chaos->stop();
    r.chaos_steps_fired = chaos->steps_fired();
  }
  r.stats = server.stats();
  return r;
}

LoadRunResult run_sharded_server_load(const Args& args,
                                      const serve::ShardedSnapshot& ss,
                                      const Dataset& data) {
  require(args.replicas >= 1 && args.replicas <= 32,
          "--replicas must be in [1, 32]");
  require(args.degraded_policy == "fail" || args.degraded_policy == "stale",
          "--degraded-policy must be fail or stale");
  serve::ShardServerOptions sopt;
  sopt.num_shards = ss.shards.num_shards;
  sopt.partitioner = ss.partitioner;
  sopt.server = server_config_from_args(args);
  sopt.replication_factor = args.replicas;
  sopt.degraded = args.degraded_policy == "stale"
                      ? serve::DegradedPolicy::kServeStale
                      : serve::DegradedPolicy::kFailShardQueries;
  sopt.hedge = args.hedge;
  serve::ShardedServer server(ss.snapshot, ss.shards, data.features, sopt);
  LoadRunResult r;
  auto chaos = make_chaos_runner(args);
  r.report = serve::drive_load(server, loadgen_from_args(args,
                                                         data.num_nodes()));
  if (chaos) {
    chaos->stop();
    r.chaos_steps_fired = chaos->steps_fired();
  }
  serve::ShardedStats st = server.stats();
  r.stats = st.total;
  r.shard_stats = st.shards;
  r.router_failed = st.router_failed;
  r.replica_stats = st.replicas;
  r.router = std::move(st);
  return r;
}

int cmd_bench(const Args& args) {
  require(!args.snapshot_path.empty() && !args.data_path.empty(),
          "bench needs --snapshot and --data");
  const serve::ShardedSnapshot ss =
      load_sharded_snapshot_checked(args.snapshot_path);
  const serve::Snapshot& snap = ss.snapshot;
  const Dataset data = load_dataset_checked(args.data_path);
  check_snapshot_graph(snap, data);
  auto ctx =
      std::make_shared<const GraphContext>(data.graph, snap.config.arch);

  // Unbatched baseline: one engine, one query at a time.
  {
    serve::InferenceEngine engine(snap.config, snap.params, ctx,
                                  data.features, parse_mode(args.mode),
                                  serve::FeatureSpace::kOriginal,
                                  parse_precision_arg(args.precision));
    Tensor out = Tensor::empty({1, snap.config.out_dim});
    Rng rng(1);
    const std::int64_t probes = std::min<std::int64_t>(args.requests, 256);
    std::int64_t id = rng.uniform_int(data.num_nodes());
    Timer t;
    try {
      engine.query(std::span<const std::int64_t>(&id, 1), out);  // warm-up
      t.reset();
      for (std::int64_t i = 0; i < probes; ++i) {
        id = rng.uniform_int(data.num_nodes());
        engine.query(std::span<const std::int64_t>(&id, 1), out);
      }
    } catch (const std::exception& e) {
      throw ExitError(kExitQueryFailed,
                      std::string("baseline query failed: ") + e.what());
    }
    std::printf("single-query baseline: %.0f QPS (%.3f ms/query)\n",
                probes / t.seconds(), t.milliseconds() / probes);
  }

  const LoadRunResult run = ss.sharded()
                                ? run_sharded_server_load(args, ss, data)
                                : run_server_load(args, snap, ctx, data);
  const serve::LoadReport& report = run.report;
  const serve::ServerStats& stats = run.stats;
  std::printf(
      "server: %llu queries in %.2fs -> %.0f QPS | batches %llu (mean %.1f) "
      "| latency p50 %.3f ms, p99 %.3f ms, max %.3f ms\n",
      static_cast<unsigned long long>(stats.queries), report.seconds,
      static_cast<double>(stats.queries) / report.seconds,
      static_cast<unsigned long long>(stats.batches), stats.mean_batch,
      stats.p50_latency_ms, stats.p99_latency_ms, stats.max_latency_ms);
  for (std::size_t s = 0; s < run.shard_stats.size(); ++s) {
    const serve::ServerStats& sh = run.shard_stats[s];
    std::printf("  shard %zu: %llu queries, %llu batches (mean %.1f), "
                "p99 %.3f ms, failed %llu\n",
                s, static_cast<unsigned long long>(sh.queries),
                static_cast<unsigned long long>(sh.batches), sh.mean_batch,
                sh.p99_latency_ms,
                static_cast<unsigned long long>(sh.failed_queries));
    if (s < run.replica_stats.size() && args.replicas > 1) {
      for (std::size_t r = 0; r < run.replica_stats[s].size(); ++r) {
        const serve::ReplicaStats& rep = run.replica_stats[s][r];
        std::printf("    replica %zu: %llu queries, failed %llu, "
                    "health %s\n",
                    r, static_cast<unsigned long long>(rep.server.queries),
                    static_cast<unsigned long long>(
                        rep.server.failed_queries),
                    serve::replica_health_name(rep.health));
      }
    }
  }
  if (ss.sharded()) {
    std::printf("  router: %llu dispatch failures | failovers %llu, "
                "hedges %llu (wins %llu), probes %llu, readmissions %llu, "
                "stale-served %llu, replicas-exhausted %llu\n",
                static_cast<unsigned long long>(run.router_failed),
                static_cast<unsigned long long>(run.router.failovers),
                static_cast<unsigned long long>(run.router.hedges),
                static_cast<unsigned long long>(run.router.hedge_wins),
                static_cast<unsigned long long>(run.router.probes),
                static_cast<unsigned long long>(run.router.readmissions),
                static_cast<unsigned long long>(run.router.stale_served),
                static_cast<unsigned long long>(
                    run.router.replicas_exhausted));
  }
  if (!args.chaos_schedule.empty()) {
    std::printf("  chaos: %llu schedule steps fired\n",
                static_cast<unsigned long long>(run.chaos_steps_fired));
  }
  std::printf(
      "failures: %llu of %lld (retries %llu) | rejected %llu, "
      "deadline-expired %llu, exec-failed %llu (batches %llu), "
      "replicas-exhausted %llu, shutdown %llu\n",
      static_cast<unsigned long long>(report.failures),
      static_cast<long long>(report.requests),
      static_cast<unsigned long long>(report.retries),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.deadline_expired),
      static_cast<unsigned long long>(stats.failed_queries),
      static_cast<unsigned long long>(stats.failed_batches),
      static_cast<unsigned long long>(report.replicas_exhausted),
      static_cast<unsigned long long>(stats.shutdown_failed));
  if (report.failures > 0 && !args.allow_failures) {
    throw ExitError(kExitQueryFailed,
                    std::to_string(report.failures) +
                        " queries failed (first: " + report.first_error +
                        "); pass --allow-failures for overload/fault "
                        "experiments");
  }
  if (report.stale_served > 0) {
    // Every query was answered, but not all by a live replica: a distinct
    // exit code scripts can branch on without parsing stdout.
    std::printf("completed in DEGRADED mode: %llu of %llu answers served "
                "stale\n",
                static_cast<unsigned long long>(report.stale_served),
                static_cast<unsigned long long>(report.ok));
    return kExitDegraded;
  }
  return kExitOk;
}

int cmd_metrics(const Args& args) {
  require(!args.snapshot_path.empty() && !args.data_path.empty(),
          "metrics needs --snapshot and --data");
  const serve::ShardedSnapshot ss =
      load_sharded_snapshot_checked(args.snapshot_path);
  const serve::Snapshot& snap = ss.snapshot;
  const Dataset data = load_dataset_checked(args.data_path);
  check_snapshot_graph(snap, data);
  LoadRunResult run;
  if (ss.sharded()) {
    run = run_sharded_server_load(args, ss, data);
  } else {
    auto ctx =
        std::make_shared<const GraphContext>(data.graph, snap.config.arch);
    run = run_server_load(args, snap, ctx, data);
  }
  std::fprintf(stderr,
               "metrics: drove %llu queries (%llu failures); registry "
               "snapshot follows\n",
               static_cast<unsigned long long>(run.stats.queries),
               static_cast<unsigned long long>(run.report.failures));
  // With --metrics-out the snapshot goes to the file (written by main's
  // output pass); without it, to stdout for piping into a scraper check.
  if (args.metrics_out.empty()) {
    const std::string text = obs::export_prometheus_text();
    std::fwrite(text.data(), 1, text.size(), stdout);
  }
  return kExitOk;
}

/// Write whichever observability outputs were requested. Called on both
/// success and failure exits — a fault-injected bench that exits 4 must
/// still leave its metrics/trace/stats artifacts behind.
void write_obs_outputs(const Args& args) {
  if (!args.metrics_out.empty()) {
    std::ofstream out(args.metrics_out);
    if (out) out << obs::export_prometheus_text();
    if (!out) {
      std::fprintf(stderr, "warning: cannot write --metrics-out %s\n",
                   args.metrics_out.c_str());
    }
  }
  if (!args.stats_json.empty()) {
    std::ofstream out(args.stats_json);
    if (out) out << obs::export_json_text();
    if (!out) {
      std::fprintf(stderr, "warning: cannot write --stats-json %s\n",
                   args.stats_json.c_str());
    }
  }
  if (!args.trace_out.empty() &&
      !obs::trace::export_chrome_file(args.trace_out)) {
    std::fprintf(stderr, "warning: cannot write --trace-out %s\n",
                 args.trace_out.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage(argv[0]);
  // Enable instrumentation up front so the whole command is covered:
  // per-stage exec profiling whenever a metrics snapshot was requested,
  // trace recording whenever a trace file was.
  if (args.cmd == "metrics" || !args.metrics_out.empty() ||
      !args.stats_json.empty()) {
    gsoup::obs::set_profiling(true);
  }
  if (!args.trace_out.empty()) gsoup::obs::trace::set_enabled(true);
  try {
    if (!args.failpoints.empty()) {
      // Malformed specs are usage errors; arm_from_string throws.
      try {
        gsoup::failpoint::arm_from_string(args.failpoints);
      } catch (const std::exception& e) {
        throw ExitError(kExitUsage,
                        std::string("bad --failpoints: ") + e.what());
      }
    }
    int code = -1;
    if (args.cmd == "save") code = cmd_save(args);
    else if (args.cmd == "info") code = cmd_info(args);
    else if (args.cmd == "query") code = cmd_query(args);
    else if (args.cmd == "bench") code = cmd_bench(args);
    else if (args.cmd == "metrics") code = cmd_metrics(args);
    if (code >= 0) {
      write_obs_outputs(args);
      return code;
    }
  } catch (const ExitError& e) {
    write_obs_outputs(args);
    std::fprintf(stderr, "error: %s\n", e.what());
    return e.code;
  } catch (const std::exception& e) {
    write_obs_outputs(args);
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage(argv[0]);
}
