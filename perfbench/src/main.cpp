// perfbench: the repository benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// Runs one workload (see kWorkloads and perfbench/README.md) and prints
// one JSON result line on stdout: with --trace 0 the end-to-end metrics,
// with --trace 1 the per-layer metrics. Logs, per-step generator reports
// and self-test digests go to stderr. Start it with OMP_NUM_THREADS=1
// (run.py does): every library thread then gets one OpenMP lane, and only
// the main thread widens its team for set-up and souping.
#include <omp.h>

#include <cstdlib>
#include <iostream>
#include <string>

#include "obs/trace.hpp"
#include "phases.hpp"
#include "util/timer.hpp"

namespace perfbench {
namespace {

/// OpenMP team of the main thread (set-up, souping): the whole machine.
/// Farm workers and serving threads keep one lane each.
constexpr int kMainLanes = 4;

struct Workload {
  const char* name;
  SoupSpec soup;
  ServeSpec serve;
};

// Every workload serves its soup on its preset at a scale of 128k nodes:
// large enough that a 64-query batch's 2-hop closure is a minority of the
// graph, and the same serving configuration (rate, steps, windows) in all
// four. The serve workloads' soup comes from a companion pipeline on
// products-like at scale 0.25 with a shortened ingredient recipe and a
// farm repeated three times.
const SoupSpec kCompanionSoup{.preset = 3, .scale = 0.25,
                              .ingredient_epochs = 16, .farm_reps = 3};

const Workload kWorkloads[] = {
    {"soup-products-sage",
     {.preset = 3, .scale = 0.5, .arch = gsoup::Arch::kSage,
      .ingredients = 4},
     {.graph_scale = 8.0}},
    {"soup-arxiv-gat",
     {.preset = 1, .scale = 2.0, .arch = gsoup::Arch::kGat,
      .ingredients = 8},
     {.graph_scale = 32.0}},
    {"serve-sage-single", kCompanionSoup, {.primary = true}},
    {"serve-sage-sharded", kCompanionSoup, {.sharded = true, .primary = true}},
};

// Measured cycles (soup round, fixed-rate steps, capacity window) run
// until --seconds have passed, and at least this many.
constexpr int kMinCycles = 3;

struct MetricDef {
  const char* name;
  const char* unit;
};

const char* const kEndToEnd[] = {
    "setup_s",         "farm_s",          "gis_s",
    "ls_s",            "pls_s",           "gis_test_acc",
    "ls_test_acc",     "pls_test_acc",    "gis_mix_peak_mb",
    "ls_mix_peak_mb",  "pls_mix_peak_mb", "peak_rss_mb",
    "serve_p50_ms",    "serve_capacity_qps",
};

// Every per-layer metric; a layer that does not run on a workload reports 0.
const MetricDef kPerLayer[] = {
    {"graph.generate_ms", "ms"},
    {"partition.partition_ms", "ms"},
    {"partition.union_subgraph_ms", "ms"},
    {"partition.shard_build_ms", "ms"},
    {"nn.context_build_ms", "ms"},
    {"ag.forward_ms.full", "ms"},
    {"ag.backward_ms.full", "ms"},
    {"ag.forward_ms.sub", "ms"},
    {"ag.backward_ms.sub", "ms"},
    {"ag.spmm_ms", "ms"},
    {"ag.spmm_gbps_computed", "GB/s"},
    {"ag.attention_ms", "ms"},
    {"tensor.gemm_ms", "ms"},
    {"tensor.gemm_gflops", "GFLOP/s"},
    {"exec.full_forward_ms", "ms"},
    {"exec.subgraph_plan_ms", "ms"},
    {"exec.subgraph_query_ms", "ms"},
    {"exec.subgraph_nodes", "count"},
    {"exec.stage_ms.gather", "ms"},
    {"exec.stage_ms.spmm", "ms"},
    {"exec.stage_ms.gemm", "ms"},
    {"exec.stage_ms.attention", "ms"},
    {"exec.stage_ms.epilogue", "ms"},
    {"train.epoch_ms", "ms"},
    {"train.farm_efficiency", "fraction"},
    {"train.evaluate_split_ms", "ms"},
    {"core.gis.evaluations", "count"},
    {"core.gis.eval_ms", "ms"},
    {"core.build_soup_ms", "ms"},
    {"core.ls.epoch_ms", "ms"},
    {"core.pls.epoch_ms", "ms"},
    {"core.pls.subgraph_fraction", "fraction"},
    {"core.gis.covered_frac", "fraction"},
    {"core.ls.covered_frac", "fraction"},
    {"core.pls.covered_frac", "fraction"},
    {"io.snapshot_write_ms", "ms"},
    {"io.snapshot_read_ms", "ms"},
    {"serve.queue_wait_ms.p50", "ms"},
    {"serve.queue_wait_ms.p99", "ms"},
    {"serve.batch_form_ms.p50", "ms"},
    {"serve.exec_ms.p50", "ms"},
    {"serve.exec_ms.p99", "ms"},
    {"serve.mean_batch", "count"},
    {"serve.batches", "count"},
    {"serve.inner_p50_ms", "ms"},
    {"router.overhead_p50_ms", "ms"},
    {"router.failovers", "count"},
    {"router.hedges", "count"},
    {"load.late_p99_ms", "ms"},
    {"load.backlog_end", "count"},
    {"obs.trace_overhead_ratio", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
        have_seed = true;
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (k == "--trace-out") {
        a.trace_out = v;
      } else {
        usage("unknown flag " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (a.workload.empty() || !have_seed || !(a.seconds > 0.0)) {
    usage("--workload, --seed and a positive --seconds are required");
  }
  return a;
}

int run(const Args& args) {
  const Workload* w = nullptr;
  for (const auto& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) usage("unknown workload " + args.workload);

  omp_set_num_threads(kMainLanes);
  // Rings are sized at a thread's first event; a traced serving step
  // emits a few events per query on each of the submitting, dispatcher
  // and worker threads.
  if (args.trace) gsoup::obs::trace::set_ring_capacity(1 << 17);

  Report report;
  SpanLog spans(args.trace);
  RunContext rc{.seed = args.seed, .trace = args.trace, .report = report,
                .spans = spans, .digests = {}};
  SoupPipeline soup(w->soup, rc);
  soup.prepare();
  ServePipeline serve(w->serve, soup, rc);
  serve.prepare();
  // A traced run alternates plain and traced cycles.
  gsoup::Timer t;
  for (int n = 0; n < kMinCycles || t.seconds() < args.seconds; ++n) {
    const bool traced = args.trace && n % 2 == 1;
    soup.round(traced);
    serve.cycle(traced);
  }
  soup.finish();
  serve.finish();

  for (const auto& [name, hex] : rc.digests) {
    std::cerr << "digest " << name << " " << hex << "\n";
  }
  if (args.trace) {
    for (const auto& m : kPerLayer) {
      if (!report.has(m.name)) report.metric(m.name, 0.0, m.unit);
    }
    if (!args.trace_out.empty() && !spans.write(args.trace_out)) {
      log_line("could not write " + args.trace_out);
    }
  } else {
    report.metric("setup_s", rc.setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    for (const char* name : kEndToEnd) {
      report.check(report.has(name),
                   std::string("end-to-end metric measured: ") + name);
    }
  }
  report.print_json(std::cout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
