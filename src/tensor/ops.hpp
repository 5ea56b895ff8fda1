// Dense kernels: GEMM, elementwise maps, reductions, softmax.
//
// These are the raw numeric primitives; the autograd layer (src/ag) wraps
// them with backward rules. Kernels parallelise with OpenMP over rows, the
// natural decomposition for node-feature matrices.
#pragma once

#include <cstdint>
#include <span>

#include "tensor/half.hpp"
#include "tensor/tensor.hpp"

namespace gsoup::ops {

// ---- GEMM ---------------------------------------------------------------

/// C = A · B. A is [m,k], B is [k,n], C out [m,n].
Tensor matmul(const Tensor& a, const Tensor& b);
/// C = Aᵀ · B. A is [k,m], B is [k,n], C out [m,n]. (Used by matmul backward.)
Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// C = A · Bᵀ. A is [m,k], B is [n,k], C out [m,n]. (Used by matmul backward.)
Tensor matmul_nt(const Tensor& a, const Tensor& b);
/// In-place accumulate: c += A · B, fp32 accumulation whatever the
/// operands' storage precision. Half-stored operands (a HalfBuffer
/// viewed as a MatView) widen to fp32 while the blocked path packs them
/// — A strips per micro-panel, B panels once per tile — so the schedule
/// and accumulation order are IDENTICAL to the fp32 kernel: results are
/// bit-equal to running the fp32 GEMM over quantize-widened copies of the
/// inputs. Two half operands must share one precision.
void matmul_acc(MatView a, MatView b, Tensor& c);

// ---- Fused GEMM + combine + bias ----------------------------------------
// c = (A·B + c) + bias, the SAGE (self + neigh) + bias combine folded into
// the GEMM's register-tile store. Bit-equal to "tmp = A·B; c = (tmp + c) +
// bias" in exactly the regime gemm_can_combine_bias admits: the blocked
// path with the whole contraction in ONE k-panel, so each output element
// is completed in registers and stored once — the fused store sees the
// same `tmp` bits the separate epilogue would have read back.

/// True if matmul_combine_bias may be used for an [m,k]x[k,n] product.
bool gemm_can_combine_bias(std::int64_t m, std::int64_t n, std::int64_t k);
/// c = (A·B + c) + bias. Requires gemm_can_combine_bias(m, n, k); the
/// operands may be stored at any precision, as for matmul_acc.
void matmul_combine_bias(MatView a, MatView b, const Tensor& bias,
                         Tensor& c);

// ---- Naive GEMM references ----------------------------------------------
// The simple row-parallel loops the packed/blocked kernels above fall back
// to below the blocking threshold. Exposed so tests can use them as the
// correctness oracle and the bench harness as the speedup baseline.

/// c += A · B, naive i-k-j loop.
void matmul_naive_acc(const Tensor& a, const Tensor& b, Tensor& c);
/// C = Aᵀ · B, naive loop.
Tensor matmul_tn_naive(const Tensor& a, const Tensor& b);
/// C = A · Bᵀ, naive dot-product loop.
Tensor matmul_nt_naive(const Tensor& a, const Tensor& b);

/// Explicit transpose copy of a rank-2 tensor.
Tensor transpose(const Tensor& a);

// ---- Elementwise --------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b);
/// out[i,j] = a[i,j] + bias[j] (row broadcast).
Tensor add_row_broadcast(const Tensor& a, const Tensor& bias);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor scale(const Tensor& a, float s);

Tensor relu(const Tensor& a);
/// ELU with alpha=1: x>0 ? x : exp(x)-1.
Tensor elu(const Tensor& a);
Tensor leaky_relu(const Tensor& a, float slope);

// ---- Reductions / softmax -----------------------------------------------

float sum(const Tensor& a);
float dot(const Tensor& a, const Tensor& b);

/// Row-wise numerically-stable softmax of a [m,n] tensor.
Tensor row_softmax(const Tensor& a);
/// Row-wise log-softmax of a [m,n] tensor.
Tensor row_log_softmax(const Tensor& a);

/// argmax over each row; out has length m.
std::vector<std::int64_t> row_argmax(const Tensor& a);

/// Softmax over a flat vector (used for ingredient interpolation logits).
Tensor vec_softmax(const Tensor& a);

/// Index of the largest element in a raw row of length n (first wins on
/// ties). Allocation-free counterpart of row_argmax for the serving hot
/// paths, shared so tie-breaking stays consistent everywhere.
inline std::int64_t argmax_row(const float* row, std::int64_t n) {
  std::int64_t best = 0;
  for (std::int64_t j = 1; j < n; ++j) {
    if (row[j] > row[best]) best = j;
  }
  return best;
}

/// Per-head inner product into a preallocated output: out[i,h] =
/// Σ_j x[i, h*d+j] · a[h*d+j] for x [n, heads*d], a rank-1 [heads*d],
/// out [n, heads]. Shared by the GAT training forward (ag::per_head_dot)
/// and the autograd-free serving engine so both produce identical scores.
void per_head_dot_into(const Tensor& x, const Tensor& a, std::int64_t heads,
                       Tensor& out);

/// out[i] = src[row_ids[i]] into a preallocated out ([row_ids.size(),
/// src.cols]). Allocation-free row gather shared by the graph locality
/// layer (permuting features/logits between the caller's and a
/// GraphPlan's vertex numbering), the serving engine's batch row lookups
/// and the executor's subgraph input rows. Rows stored at out's precision
/// are copied at storage width; half rows gathered into an fp32 `out`
/// widen as they are copied (one bulk widen per row, F16C when the CPU
/// has it), so a half feature matrix or cached logits table halves the
/// gather traffic at no extra pass. Quantizing on gather is not offered.
void gather_rows_into(MatView src, std::span<const std::int32_t> row_ids,
                      Tensor& out);
void gather_rows_into(MatView src, std::span<const std::int64_t> row_ids,
                      Tensor& out);
void gather_rows_into(MatView src, std::span<const std::int32_t> row_ids,
                      HalfBuffer& out);
void gather_rows_into(MatView src, std::span<const std::int64_t> row_ids,
                      HalfBuffer& out);

// ---- Comparison helpers (tests) -----------------------------------------

/// max_i |a_i - b_i| over equal-shaped tensors.
float max_abs_diff(const Tensor& a, const Tensor& b);
/// True if all elements are finite.
bool all_finite(const Tensor& a);

}  // namespace gsoup::ops
