// The two halves every workload runs, in this one process:
//
//  - the soup half: the paper's pipeline — dataset, Phase-1 ingredient
//    farm (harness recipe), then GIS / LS / PLS rounds with rotating order;
//  - the serve half: the soup behind BatchServer or ShardedServer, driven
//    open-loop at a fixed offered rate, plus closed-loop capacity windows.
//
// Both halves first prepare (set-up and warm-up, counted in setup_s); the
// driver then interleaves measured cycles — one soup round, two fixed-rate
// steps, one capacity window — so a slow spell of the host lands in a
// minority of each metric's samples; each half reports medians.
#pragma once

#include <array>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/gis.hpp"
#include "core/learned.hpp"
#include "core/pls.hpp"
#include "core/soup.hpp"
#include "graph/dataset.hpp"
#include "nn/graph_context.hpp"
#include "nn/model.hpp"
#include "nn/param.hpp"
#include "report.hpp"
#include "serve/server.hpp"
#include "serve/shard_server.hpp"
#include "train/ingredient_farm.hpp"

namespace perfbench {

/// Run-wide state shared by the halves.
struct RunContext {
  std::uint64_t seed = 0;
  bool trace = false;
  Report& report;
  SpanLog& spans;
  /// Digest lines for the self-test ("digest <name> <value>").
  std::vector<std::pair<std::string, std::string>> digests;
  /// Set-up seconds accumulated by both halves.
  double setup_s = 0.0;
};

/// Derive a sub-seed for one consumer of the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

struct SoupSpec {
  int preset = 3;             ///< paper preset: 1 arxiv-like, 3 products-like
  double scale = 1.0;         ///< preset scale
  gsoup::Arch arch = gsoup::Arch::kSage;
  std::int64_t ingredients = 4;
  std::int64_t ingredient_epochs = 40;  ///< SAGE trains x5/2 (harness recipe)
  /// Farm repetitions (farm_s is their median); each trains the same
  /// ingredients from the same seeds.
  int farm_reps = 1;
};

class SoupPipeline {
 public:
  SoupPipeline(const SoupSpec& spec, RunContext& rc);

  /// Set-up (median of repetitions), farm, warm-up rounds; ends with the
  /// first settled round, which is the first measured one.
  void prepare();
  /// One measured round. A traced round runs with library tracing on and
  /// counts only towards obs.trace_overhead_ratio.
  void round(bool traced);
  /// Reports the end-to-end metrics (plain run) or the probes (traced).
  void finish();

  const SoupSpec& spec() const { return spec_; }
  const gsoup::Dataset& data() const { return data_; }
  const gsoup::ModelConfig& config() const { return model_->config(); }
  /// The PLS soup of the first measured round: the model that is served.
  const gsoup::ParamStore& served_soup() const {
    return plain_.front().reports[kPls].soup;
  }

 private:
  enum Strategy { kGis = 0, kLs = 1, kPls = 2 };
  struct Round {
    std::array<gsoup::SoupReport, 3> reports;
    double total_s = 0.0;
  };

  void set_up();
  void farm();
  Round run_round(int rotation);
  void check_report(Strategy s, const gsoup::SoupReport& r, int round);
  void probes();

  const SoupSpec& spec_;
  RunContext& rc_;
  gsoup::Dataset data_;
  std::unique_ptr<gsoup::GraphContext> ctx_;
  std::unique_ptr<gsoup::GnnModel> model_;
  std::unique_ptr<gsoup::PartitionLearnedSouper> pls_;
  std::unique_ptr<gsoup::GisSouper> gis_;
  std::unique_ptr<gsoup::LearnedSouper> ls_;
  gsoup::FarmResult farm_;
  double best_ingredient_val_ = 0.0;
  std::vector<double> partition_ms_, farm_s_;
  std::string ingredients_digest_;
  bool have_first_ = false;
  std::array<std::pair<double, double>, 3> first_acc_{};
  std::vector<Round> plain_;
  std::vector<double> traced_s_;
};

struct ServeSpec {
  /// The serving graph: the soup half's preset at this scale (same
  /// feature width and classes, so the soup serves it).
  double graph_scale = 8.0;
  /// ShardedServer over 2 shards (one worker each) instead of one
  /// BatchServer with 2 workers.
  bool sharded = false;
  /// Serving is the workload's heavy half: its traced steps, not the soup
  /// rounds, define obs.trace_overhead_ratio.
  bool primary = false;
};

class ServePipeline {
 public:
  ServePipeline(const ServeSpec& spec, const SoupPipeline& soup,
                RunContext& rc);
  ~ServePipeline();

  /// Serving graph, snapshot round trip, server, oracle labels, warm-up.
  void prepare();
  /// Fixed-rate steps and, in a plain run, one capacity window. A traced
  /// cycle runs its steps with library tracing and profiling on.
  void cycle(bool traced);
  void finish();

  struct Query {
    double due_ms = 0.0;
    double sent_ms = 0.0;
    double done_ms = 0.0;
    bool ok = false;  ///< answered with the oracle's label
    std::int32_t label = -1;
  };
  struct Step {
    std::vector<Query> queries;
    double duration_ms = 0.0;
    std::int64_t failed = 0;
  };

 private:
  struct Traced;

  void plain_step(std::uint64_t seed);
  void traced_step(std::uint64_t seed);
  Step open_loop(double seconds, std::uint64_t seed);
  double closed_loop(double seconds, std::uint64_t seed);
  std::future<gsoup::serve::QueryResult> submit(std::int64_t node);

  const ServeSpec& spec_;
  const SoupPipeline& soup_;
  RunContext& rc_;
  gsoup::Dataset graph_;
  gsoup::serve::Snapshot snapshot_;
  std::shared_ptr<const gsoup::GraphContext> ctx_;
  std::unique_ptr<gsoup::serve::BatchServer> single_;
  std::unique_ptr<gsoup::serve::ShardedServer> sharded_;
  std::vector<std::int64_t> oracle_;
  int steps_ = 0;
  std::vector<Step> plain_;
  std::vector<double> capacity_;
  std::unique_ptr<Traced> traced_;
};

}  // namespace perfbench
