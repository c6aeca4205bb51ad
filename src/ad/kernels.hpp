#pragma once

/// \file kernels.hpp
/// Tape-free row kernels shared by the taped ops (`linear_act`,
/// `layer_norm`) and `Mlp::forward_rows`'s tape-free pass. Both callers
/// run the same arithmetic on every row, so the two paths produce the
/// same bytes (DESIGN.md §7).

#include "ad/ops.hpp"

namespace gns::ad {

/// Rows per tile of the tape-free passes: the unit `exec::parallel_for`
/// hands out. Any value gives the same bytes (rows are independent); it
/// only sets the scratch size and the load balance.
inline constexpr int kRowTile = 32;

/// y[i,:] = act(x[i,:]·W + b) for `n` rows, serially: x is [n,k] with row
/// stride k, W is [k,m], `bias` is [m] or null, y is [n,m] with row stride
/// m and is overwritten. Element for element the FP sequence of matmul ->
/// add -> relu/tanh_op.
void linear_act_rows(const Real* x, const Real* w, const Real* bias, Real* y,
                     int n, int k, int m, FusedAct act);

/// One row of layer_norm's forward: y = gamma * (x - mu) * inv_s + beta
/// over `m` columns.
void layer_norm_row(const Real* x, const Real* gamma, const Real* beta,
                    Real eps, Real* y, int m);

}  // namespace gns::ad
