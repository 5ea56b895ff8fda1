#include "exec/executor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>

#include "ag/graph_ops.hpp"
#include "ag/ops.hpp"
#include "obs/metrics.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace gsoup::exec {

namespace {

// In-place building blocks for infer mode: identical numerics to the
// tape ops (ag::matmul is zeros + matmul_acc; ag::add_bias / relu / elu
// apply the same scalar expressions) without the per-op allocation.

/// out = x · w into a preallocated view.
void linear_into(MatView x, MatView w, Tensor& out) {
  out.zero_();
  ops::matmul_acc(x, w, out);
}

void add_bias_inplace(Tensor& x, const Tensor& bias) {
  const std::int64_t m = x.shape(0), n = x.shape(1);
  GSOUP_CHECK_MSG(bias.numel() == n, "bias width mismatch");
  float* __restrict__ px = x.data();
  const float* __restrict__ pb = bias.data();
#pragma omp parallel for schedule(static) if (m * n >= (1 << 15))
  for (std::int64_t i = 0; i < m; ++i) {
    float* __restrict__ row = px + i * n;
#pragma omp simd
    for (std::int64_t j = 0; j < n; ++j) row[j] += pb[j];
  }
}

void relu_inplace(Tensor& x) {
  float* __restrict__ p = x.data();
  const std::int64_t n = x.numel();
#pragma omp parallel for simd schedule(static) if (n >= (1 << 15))
  for (std::int64_t i = 0; i < n; ++i) p[i] = p[i] > 0.0f ? p[i] : 0.0f;
}

void elu_inplace(Tensor& x) {
  float* __restrict__ p = x.data();
  const std::int64_t n = x.numel();
#pragma omp parallel for schedule(static) if (n >= (1 << 15))
  for (std::int64_t i = 0; i < n; ++i)
    p[i] = p[i] > 0.0f ? p[i] : std::expm1(p[i]);
}

/// Activation slab rotation: a layer reading slab `idx` (-1: the caller's
/// feature storage) writes slab next_slab(idx) and uses the third as
/// scratch.
int next_slab(int idx) { return (idx + 1) % 3; }

/// Times the enclosing block into one of the executor's pre-resolved
/// stage histograms. Profiling off — the default — construction is a
/// single relaxed atomic load and a branch, no clock read (the same
/// discipline as util/failpoint's disarmed path).
class StageTimer {
 public:
  StageTimer(obs::Histogram* const* hists, Stage stage) noexcept {
    if (obs::profiling_enabled()) {
      hist_ = hists[static_cast<int>(stage)];
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~StageTimer() {
    if (hist_ != nullptr) {
      hist_->observe(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start_)
                         .count());
    }
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  obs::Histogram* hist_ = nullptr;
  std::chrono::steady_clock::time_point start_{};
};

/// Lowercase arch tag for metric labels. arch_name() is the display
/// name ("GraphSAGE"); labels follow the lowercase convention from the
/// observability naming scheme.
const char* arch_label(Arch arch) {
  switch (arch) {
    case Arch::kGcn: return "gcn";
    case Arch::kSage: return "sage";
    case Arch::kGat: return "gat";
  }
  return "unknown";
}

}  // namespace

// ---- Train mode -----------------------------------------------------------

TapeBindings::TapeBindings(const LayerPlan& plan, const ParamMap& params) {
  steps_.reserve(plan.steps().size());
  for (const LayerStep& step : plan.steps()) {
    Bound b;
    const auto resolve = [&](const std::string& name) -> ag::Value {
      return name.empty() ? ag::Value{} : params.at(name);
    };
    b.weight = resolve(step.weight);
    b.weight_self = resolve(step.weight_self);
    b.weight_neigh = resolve(step.weight_neigh);
    b.bias = resolve(step.bias);
    b.attn_dst = resolve(step.attn_dst);
    b.attn_src = resolve(step.attn_src);
    steps_.push_back(std::move(b));
  }
}

ag::Value run_train(const LayerPlan& plan, const ag::Value& features,
                    const ParamMap& params, bool training, Rng* rng) {
  return run_train(plan, features, TapeBindings(plan, params), training, rng);
}

ag::Value run_train(const LayerPlan& plan, const ag::Value& features,
                    const TapeBindings& bindings, bool training, Rng* rng) {
  const ModelConfig& cfg = plan.config();
  const GraphContext& ctx = plan.ctx();
  GSOUP_CHECK_MSG(!training || rng != nullptr,
                  "training forward needs an rng for dropout");
  GSOUP_CHECK_MSG(features->value.shape(1) == cfg.in_dim,
                  "feature dim " << features->value.shape_str()
                                 << " != model in_dim " << cfg.in_dim);
  GSOUP_CHECK_MSG(
      bindings.steps().size() == plan.steps().size(),
      "tape bindings were built from a plan with a different depth");

  ag::Value h = features;
  for (std::size_t l = 0; l < plan.steps().size(); ++l) {
    const LayerStep& step = plan.steps()[l];
    const TapeBindings::Bound& p = bindings.steps()[l];
    if (training && cfg.dropout > 0.0f) {
      h = ag::dropout(h, cfg.dropout, *rng, true);
    }
    switch (cfg.arch) {
      case Arch::kGcn: {
        // H' = Â (H W) + b over the context's cached layout when one was
        // compiled in. The transpose layout only feeds the backward, so
        // no-grad passes never trigger its lazy build.
        ag::Value hw = ag::matmul(h, p.weight);
        ag::Value agg = ag::spmm(
            ctx.gcn(), ctx.gcn_t(), hw, step.spmm_layout,
            ag::grad_enabled() ? ctx.spmm_layout_t() : nullptr);
        h = ag::add_bias(agg, p.bias);
        if (!step.last) h = ag::relu(h);
        break;
      }
      case Arch::kSage: {
        // H' = H W_self + (D⁻¹A H) W_neigh + b
        ag::Value self_part = ag::matmul(h, p.weight_self);
        ag::Value agg = ag::spmm(
            ctx.mean(), ctx.mean_t(), h, step.spmm_layout,
            ag::grad_enabled() ? ctx.spmm_layout_t() : nullptr);
        ag::Value neigh_part = ag::matmul(agg, p.weight_neigh);
        h = ag::add_bias(ag::add(self_part, neigh_part), p.bias);
        if (!step.last) h = ag::relu(h);
        break;
      }
      case Arch::kGat: {
        ag::Value hw = ag::matmul(h, p.weight);
        ag::Value s_dst = ag::per_head_dot(hw, p.attn_dst, step.heads);
        ag::Value s_src = ag::per_head_dot(hw, p.attn_src, step.heads);
        // Backward routing was decided at compile time
        // (step.attn_layout_backward): single-head steps keep the span
        // kernels, and forward-only passes never force the lazy
        // transpose build.
        const graph::BlockedCsr* layout_t =
            ag::grad_enabled() && step.attn_layout_backward
                ? ctx.attn_layout_t()
                : nullptr;
        ag::Value agg = ag::gat_attention(ctx.raw(), ctx.raw_t(), hw, s_dst,
                                          s_src, step.heads, cfg.attn_slope,
                                          step.attn_layout, layout_t);
        h = ag::add_bias(agg, p.bias);
        if (!step.last) h = ag::elu(h);
        break;
      }
    }
  }
  return h;
}

ag::Value run_train_blocks(const ModelConfig& cfg,
                           std::span<const Block> blocks,
                           const ag::Value& features, const ParamMap& params,
                           bool training, Rng* rng) {
  GSOUP_CHECK_MSG(cfg.arch == Arch::kSage,
                  "minibatch forward is implemented for GraphSAGE");
  GSOUP_CHECK_MSG(
      static_cast<std::int64_t>(blocks.size()) == cfg.num_layers,
      "need one block per layer");
  GSOUP_CHECK_MSG(!training || rng != nullptr,
                  "training forward needs an rng for dropout");

  ag::Value h = features;  // rows: blocks[0].src_nodes
  for (std::int64_t l = 0; l < cfg.num_layers; ++l) {
    const Block& block = blocks[static_cast<std::size_t>(l)];
    const bool last = l + 1 == cfg.num_layers;
    GSOUP_CHECK_MSG(h->value.shape(0) == block.num_src(),
                    "block/source row mismatch at layer " << l);
    if (training && cfg.dropout > 0.0f) {
      h = ag::dropout(h, cfg.dropout, *rng, true);
    }
    // Destination rows are a prefix of source rows (DGL block convention).
    ag::Value h_dst = ag::narrow_rows(h, block.num_dst);
    ag::Value self_part =
        ag::matmul(h_dst, params.at(layer_param_name(l, "weight_self")));
    ag::Value agg = ag::block_spmm(block, h);
    ag::Value neigh_part =
        ag::matmul(agg, params.at(layer_param_name(l, "weight_neigh")));
    h = ag::add_bias(ag::add(self_part, neigh_part),
                     params.at(layer_param_name(l, "bias")));
    if (!last) h = ag::relu(h);
  }
  return h;
}

// ---- Infer mode -----------------------------------------------------------

Executor::Executor(const LayerPlan& plan, const ParamStore& params)
    : plan_(plan) {
  // Weight panels are the second storage point: half plans quantize them
  // once here (the run_* paths allocate nothing either).
  const Precision prec = plan.precision();
  step_params_.reserve(plan.steps().size());
  for (const LayerStep& step : plan.steps()) {
    StepParams p;
    const auto resolve = [&](const std::string& name) -> const Tensor* {
      return name.empty() ? nullptr : &params.get(name);
    };
    const auto weight = [&](const std::string& name) -> MatView {
      if (name.empty()) return {};
      if (prec == Precision::kFp32) return params.get(name);
      weight_panels_.push_back(HalfBuffer::quantize(params.get(name), prec));
      return weight_panels_.back();
    };
    p.weight = weight(step.weight);
    p.weight_self = weight(step.weight_self);
    p.weight_neigh = weight(step.weight_neigh);
    p.bias = resolve(step.bias);
    p.attn_dst = resolve(step.attn_dst);
    p.attn_src = resolve(step.attn_src);
    step_params_.push_back(p);
  }

  // Stage histograms resolved once per executor — registry lookups (and
  // their string building) stay out of every run_* call.
  for (int s = 0; s < kNumStages; ++s) {
    const std::string labels =
        std::string("arch=\"") + arch_label(plan.config().arch) +
        "\",stage=\"" + stage_name(static_cast<Stage>(s)) + "\"";
    stage_hist_[s] = &obs::histogram(
        "exec.stage_ms", labels, {},
        "Per-stage infer execution time in milliseconds");
  }

  // Everything any run_* call will ever touch, allocated once from the
  // plan's declared geometry.
  for (auto& buf : buf_) buf = Tensor::empty({plan.layer_slab_numel()});
  if (prec != Precision::kFp32) {
    for (auto& buf : hbuf_) {
      buf = HalfBuffer::empty({plan.layer_slab_numel()}, prec);
    }
  }
  if (plan.score_slab_numel() > 0) {
    score_dst_ws_ = Tensor::empty({plan.score_slab_numel()});
    score_src_ws_ = Tensor::empty({plan.score_slab_numel()});
  }
}

Tensor Executor::ws(int idx, std::int64_t rows, std::int64_t cols) {
  return buf_[idx].view_prefix({rows, cols});
}

MatView Executor::store(const Tensor& x, int idx, Stage stage) {
  if (plan_.precision() == Precision::kFp32) return x;
  StageTimer t(stage_hist_, stage);
  HalfBuffer h = hbuf_[idx].view_prefix(x.shape());
  h.quantize_from(x);
  return h;
}

std::size_t Executor::workspace_bytes() const {
  std::size_t total = 0;
  for (const auto& buf : buf_) total += buf.bytes();
  for (const auto& buf : hbuf_) {
    if (buf.defined()) total += buf.bytes();
  }
  if (score_dst_ws_.defined()) {
    total += score_dst_ws_.bytes() + score_src_ws_.bytes();
  }
  return total;
}

void Executor::run_layer(const LayerStep& step, const StepParams& p,
                         std::span<const std::int64_t> indptr,
                         std::span<const std::int32_t> indices,
                         std::span<const float> values, MatView h_in,
                         int in_idx, Tensor& out,
                         const graph::BlockedCsr* spmm_layout,
                         const graph::BlockedCsr* attn_layout) {
  const ModelConfig& cfg = plan_.config();
  const std::int64_t num_src = h_in.rows();
  const std::int64_t num_dst = out.shape(0);
  // Buffer discipline: h_in occupies slab in_idx, `out` the next one;
  // the third is this layer's scratch.
  const int scratch_idx = next_slab(next_slab(in_idx));

  switch (cfg.arch) {
    case Arch::kGcn: {
      // H' = Â (H W) + b. H·W is a storage point: the SpMM re-reads each
      // row once per incident edge, so half plans gather 16-bit rows.
      Tensor hw = ws(scratch_idx, num_src, step.out_width);
      {
        StageTimer t(stage_hist_, Stage::kGemm);
        linear_into(h_in, p.weight, hw);
      }
      const MatView hw_in = store(hw, scratch_idx, Stage::kSpmm);
      {
        StageTimer t(stage_hist_, Stage::kSpmm);
        if (spmm_layout != nullptr) {
          ag::spmm_blocked_overwrite(*spmm_layout, hw_in, out);
        } else {
          ag::spmm_spans_overwrite(indptr, indices, values, hw_in, out);
        }
      }
      StageTimer t(stage_hist_, Stage::kEpilogue);
      add_bias_inplace(out, *p.bias);
      if (!step.last) relu_inplace(out);
      break;
    }
    case Arch::kSage: {
      // H' = H_dst W_self + (D⁻¹A H) W_neigh + b; destinations are a
      // prefix of sources, so H_dst is a leading-rows view of H. The
      // combine keeps the tape's exact float order — (self + neigh) +
      // bias, with `self` the complete self GEMM product — in one of two
      // ways. When the whole contraction fits one blocked k-panel
      // (gemm_can_combine_bias), the neigh GEMM lands in `out` first and
      // the self GEMM's register-tile store applies (acc + out) + bias
      // directly: each output element's `acc` is the full self product,
      // so the fused store computes the identical expression without the
      // extra slab write+read+combine pass. Otherwise the two GEMMs land
      // in separate buffers and an elementwise epilogue combines them —
      // never accumulating one GEMM into the other's output, whose
      // different partial-sum order would break the bit-exact
      // train/infer parity contract. After agg and self are computed
      // h_in is dead, so its workspace slab (or the third one when the
      // input is external) holds neigh on the fallback path.
      const MatView h_dst = h_in.top_rows(num_dst);
      Tensor agg = ws(scratch_idx, num_dst, step.in_dim);
      {
        StageTimer t(stage_hist_, Stage::kSpmm);
        if (spmm_layout != nullptr) {
          ag::spmm_blocked_overwrite(*spmm_layout, h_in, agg);
        } else {
          ag::spmm_spans_overwrite(indptr, indices, values, h_in, agg);
        }
      }
      if (ops::gemm_can_combine_bias(num_dst, step.out_width, step.in_dim)) {
        StageTimer t(stage_hist_, Stage::kGemm);
        linear_into(agg, p.weight_neigh, out);
        ops::matmul_combine_bias(h_dst, p.weight_self, *p.bias, out);
      } else {
        const int neigh_idx = in_idx >= 0 ? in_idx : 2;
        Tensor neigh = ws(neigh_idx, num_dst, step.out_width);
        {
          StageTimer t(stage_hist_, Stage::kGemm);
          linear_into(h_dst, p.weight_self, out);
          linear_into(agg, p.weight_neigh, neigh);
        }
        StageTimer epilogue_timer(stage_hist_, Stage::kEpilogue);
        const std::int64_t m = out.shape(0), w = out.shape(1);
        float* __restrict__ po = out.data();
        const float* __restrict__ pn = neigh.data();
        const float* __restrict__ pb = p.bias->data();
#pragma omp parallel for schedule(static) if (m * w >= (1 << 15))
        for (std::int64_t i = 0; i < m; ++i) {
          float* __restrict__ orow = po + i * w;
          const float* __restrict__ nrow = pn + i * w;
#pragma omp simd
          for (std::int64_t j = 0; j < w; ++j) {
            orow[j] = (orow[j] + nrow[j]) + pb[j];
          }
        }
      }
      if (!step.last) {
        StageTimer t(stage_hist_, Stage::kEpilogue);
        relu_inplace(out);
      }
      break;
    }
    case Arch::kGat: {
      // Only the GEMM reads stored operands: the attention kernels read
      // the fp32 H·W product and per-head scores.
      Tensor hw = ws(scratch_idx, num_src, step.out_width);
      Tensor s_src = score_src_ws_.view_prefix({num_src, step.heads});
      Tensor s_dst = score_dst_ws_.view_prefix({num_dst, step.heads});
      {
        StageTimer t(stage_hist_, Stage::kGemm);
        linear_into(h_in, p.weight, hw);
        ops::per_head_dot_into(hw, *p.attn_src, step.heads, s_src);
        Tensor hw_dst = hw.view_prefix({num_dst, step.out_width});
        ops::per_head_dot_into(hw_dst, *p.attn_dst, step.heads, s_dst);
      }
      // Infer lowering: the alpha-skip kernel — no [E, heads] store, no
      // normalisation walk; bit-identical output to the training forward.
      {
        StageTimer t(stage_hist_, Stage::kAttention);
        if (attn_layout != nullptr) {
          ag::gat_attention_infer(*attn_layout, hw, s_dst, s_src, step.heads,
                                  cfg.attn_slope, out);
        } else {
          ag::gat_attention_infer(indptr, indices, hw, s_dst, s_src,
                                  step.heads, cfg.attn_slope, out);
        }
      }
      StageTimer t(stage_hist_, Stage::kEpilogue);
      add_bias_inplace(out, *p.bias);
      if (!step.last) elu_inplace(out);
      break;
    }
  }
}

void Executor::run_full(MatView features, Tensor& out) {
  const std::int64_t n = plan_.num_nodes();
  GSOUP_CHECK_MSG(features.precision() == plan_.precision(),
                  "run_full: feature precision does not match the plan's "
                  "storage precision ("
                      << precision_name(plan_.precision()) << ")");
  GSOUP_CHECK_MSG(features.rows() == n &&
                      features.cols() == plan_.config().in_dim,
                  "run_full: feature matrix " << features.shape_str()
                                              << " does not match the plan");
  GSOUP_CHECK_MSG(out.rank() == 2 && out.shape(0) == n &&
                      out.shape(1) == plan_.config().out_dim,
                  "run_full: bad output shape " << out.shape_str());
  const Csr& g = plan_.message_graph();
  MatView h = features;
  int in_idx = -1;
  for (std::size_t l = 0; l < plan_.steps().size(); ++l) {
    const LayerStep& step = plan_.steps()[l];
    const int out_idx = next_slab(in_idx);
    Tensor y = step.last ? out : ws(out_idx, n, step.out_width);
    run_layer(step, step_params_[l], g.indptr, g.indices, g.values, h,
              in_idx, y, step.spmm_layout, step.attn_layout);
    if (!step.last) h = store(y, out_idx, Stage::kEpilogue);
    in_idx = out_idx;
  }
}

const Tensor& Executor::run_subgraph(const SubgraphPlan& sp,
                                     MatView features) {
  GSOUP_CHECK_MSG(
      static_cast<std::int64_t>(sp.layers.size()) == plan_.num_layers(),
      "run_subgraph: plan has " << sp.layers.size() << " layers, model "
                                << plan_.num_layers());
  GSOUP_CHECK_MSG(features.precision() == plan_.precision(),
                  "run_subgraph: feature precision does not match the "
                  "plan's storage precision ("
                      << precision_name(plan_.precision()) << ")");
  // The gathered input rows are the first storage point: they stay at
  // the features' width (a 16-bit row copy for half plans — half the
  // gather traffic) in activation slab 0.
  const SubgraphLayer& input = sp.layers.front();
  const std::int64_t rows = input.num_src(), cols = plan_.config().in_dim;
  MatView h;
  {
    StageTimer t(stage_hist_, Stage::kGather);
    if (plan_.precision() == Precision::kFp32) {
      Tensor x = ws(0, rows, cols);
      ops::gather_rows_into(features, input.src_nodes, x);
      h = x;
    } else {
      HalfBuffer x = hbuf_[0].view_prefix({rows, cols});
      ops::gather_rows_into(features, input.src_nodes, x);
      h = x;
    }
  }
  int in_idx = 0;
  for (std::size_t l = 0; l < plan_.steps().size(); ++l) {
    const LayerStep& step = plan_.steps()[l];
    const SubgraphLayer& P = sp.layers[l];
    const int out_idx = next_slab(in_idx);
    subgraph_out_ = ws(out_idx, P.num_dst, step.out_width);
    run_layer(step, step_params_[l], P.indptr, P.indices, P.values, h,
              in_idx, subgraph_out_, nullptr, nullptr);
    if (!step.last) h = store(subgraph_out_, out_idx, Stage::kEpilogue);
    in_idx = out_idx;
  }
  return subgraph_out_;
}

}  // namespace gsoup::exec
