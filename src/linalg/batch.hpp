/**
 * @file
 * Batched (multi-lane) vector kernels for the ControllerBank hot path.
 *
 * Layout: a *plane* stores one logical vector for many lanes at once,
 * lane-contiguous. Element k of lane l lives at `v[k * stride + l]`,
 * with `stride >= lanes` (the bank rounds stride up to its lane
 * capacity so planes stay put while lanes are added). Batching this way
 * turns the scalar controller's short gemv (rows <= ~8) into long
 * unit-stride loops over lanes, which is what auto-vectorizers want.
 *
 * BIT-EQUIVALENCE CONTRACT: for every lane l, gemvBatch performs
 * exactly the accumulation sequence of MatrixT::gemv (k ascending,
 * accumulator starting at +0.0, one rounding per multiply and one per
 * add, multiplies and adds in separate statements so no fused
 * multiply-add can form), and axpyBatch mirrors MatrixT::axpy. Lanes
 * are independent columns: interleaving them never reorders any single
 * lane's arithmetic, so a bank lane's trajectory is bit-identical to
 * the scalar controller's — tests/control/bank_equivalence_test and
 * the golden-trace digests rely on this. There is deliberately no
 * zero-skip: 0 * NaN and 0 * Inf poison from a corrupted matrix or
 * measurement must propagate (see the contract on MatrixT::operator*).
 */

#pragma once

#include <cstddef>

namespace mimoarch::batch {

/**
 * Batched gemv over a lane plane:
 *
 *   out[i * stride + l] = sum_k a[i * cols + k] * x[k * stride + l]
 *
 * for every lane l in [0, lanes). @p a is one shared row-major
 * rows x cols matrix (the bank's deduplicated design matrix); @p x and
 * @p out are planes with the layout above. @p out must not alias @p x.
 * Lanes in [lanes, stride) are left untouched.
 */
inline void
gemvBatch(double *__restrict out, const double *__restrict a,
          size_t rows, size_t cols, const double *__restrict x,
          size_t lanes, size_t stride)
{
    // Register-blocked: four lanes accumulate across all of k before
    // anything is stored, so each lane-MAC costs one load instead of a
    // load-modify-store pass over the out row (the SLP vectorizer
    // turns each block into two SSE2 — or, in an AVX2 function clone,
    // one ymm — accumulators). Per lane the accumulation is still
    // +0.0 then k-ascending mul/add in separate statements: the same
    // rounding sequence as MatrixT::gemv, bit for bit.
    for (size_t i = 0; i < rows; ++i) {
        double *oi = out + i * stride;
        const double *ai = a + i * cols;
        size_t l = 0;
        for (; l + 4 <= lanes; l += 4) {
            double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
            for (size_t k = 0; k < cols; ++k) {
                const double aik = ai[k];
                const double *xk = x + k * stride + l;
                const double t0 = aik * xk[0];
                a0 += t0;
                const double t1 = aik * xk[1];
                a1 += t1;
                const double t2 = aik * xk[2];
                a2 += t2;
                const double t3 = aik * xk[3];
                a3 += t3;
            }
            oi[l] = a0;
            oi[l + 1] = a1;
            oi[l + 2] = a2;
            oi[l + 3] = a3;
        }
        for (; l < lanes; ++l) {
            double acc = 0.0;
            for (size_t k = 0; k < cols; ++k) {
                const double t = ai[k] * x[k * stride + l];
                acc += t;
            }
            oi[l] = acc;
        }
    }
}

/**
 * Batched axpy over a lane plane: for every lane l and row r,
 *
 *   y[r * stride + l] += alpha * x[r * stride + l]
 *
 * One rounding per multiply and one per add, exactly like
 * MatrixT::axpy. @p y must not alias @p x.
 */
inline void
axpyBatch(double *__restrict y, double alpha,
          const double *__restrict x, size_t rows, size_t lanes,
          size_t stride)
{
    for (size_t r = 0; r < rows; ++r) {
        double *yr = y + r * stride;
        const double *xr = x + r * stride;
        for (size_t l = 0; l < lanes; ++l) {
            const double t = alpha * xr[l];
            yr[l] += t;
        }
    }
}

} // namespace mimoarch::batch
