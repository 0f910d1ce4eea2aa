// Gauss-Seidel solver kernels: the generic one-sweep-at-a-time kernel for
// any QtOperatorConcept (the matrix-free operator takes this path), the
// normalization and residual reductions, and a raw-CSR fast path for the
// explicit QtMatrix.
//
// The fast path (gauss_seidel_sweeps on a QtCsrView) pipelines several
// sweeps in a wavefront: T sweeps are in flight at once, sweep s+t trailing
// sweep s+t-1 by a row distance D > the matrix bandwidth, so every read
// sees exactly the value a sequential sweep sequence would — the iterates
// are bitwise identical to T back-to-back generic sweeps, but the per-row
// dependency chain (accumulate -> divide, the solver's actual bottleneck;
// the kernel is latency-bound, not bandwidth-bound) overlaps across the T
// in-flight sweeps. Measured on the Fig. 10 M=10 chain (126k states,
// bandwidth 1254): ~2x per sweep over the sequential loop.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <utility>

#include "ctmc/solver_options.hpp"
#include "common/types.hpp"

namespace gprsim::ctmc {
namespace detail {

// --- reductions ---------------------------------------------------------

/// Left-to-right normalization — the seed solver's arithmetic.
inline void normalize(std::span<double> x) {
    double sum = 0.0;
    for (double v : x) {
        sum += v;
    }
    if (sum <= 0.0) {
        throw std::runtime_error("steady-state solve collapsed to the zero vector");
    }
    for (double& v : x) {
        v /= sum;
    }
}

/// max_i |(pi Q)_i| / Lambda for a normalized pi.
template <QtOperatorConcept Op>
double scaled_residual(const Op& op, std::span<const double> x, double uniformization_rate) {
    double worst = 0.0;
    for (index_type i = 0; i < op.size(); ++i) {
        double acc = op.diagonal(i) * x[static_cast<std::size_t>(i)];
        op.for_each_incoming(i, [&](index_type j, double rate) {
            acc += rate * x[static_cast<std::size_t>(j)];
        });
        worst = std::max(worst, std::fabs(acc));
    }
    return worst / uniformization_rate;
}

/// Lambda = max_i |Q_ii| (uniformization rate).
template <QtOperatorConcept Op>
double max_exit_rate(const Op& op) {
    double lambda = 0.0;
    for (index_type i = 0; i < op.size(); ++i) {
        lambda = std::max(lambda, -op.diagonal(i));
    }
    if (lambda <= 0.0) {
        throw std::invalid_argument("generator has no transitions (all diagonal zero)");
    }
    return lambda;
}

// --- sweep kernels ------------------------------------------------------

/// One in-place forward Gauss-Seidel sweep (the seed arithmetic).
template <QtOperatorConcept Op>
void gauss_seidel_forward(const Op& op, std::span<double> x) {
    for (index_type i = 0; i < op.size(); ++i) {
        const double d = op.diagonal(i);
        if (d == 0.0) {
            continue;  // isolated state keeps its (zero) mass
        }
        double acc = 0.0;
        op.for_each_incoming(i, [&](index_type j, double rate) {
            acc += rate * x[static_cast<std::size_t>(j)];
        });
        x[static_cast<std::size_t>(i)] = acc / -d;
    }
}

// --- raw-CSR Gauss-Seidel fast path -------------------------------------

/// Borrowed contiguous view of a QtMatrix: off-diagonal CSR arrays plus the
/// diagonal, with the assembly-time bandwidth. The pipelined sweep kernels
/// work on this view so the hot loops touch plain arrays (32-bit columns,
/// no span re-materialization, no per-entry callback) the compiler can
/// schedule aggressively.
struct QtCsrView {
    index_type n = 0;
    const index_type* row_ptr = nullptr;
    const col_type* cols = nullptr;
    const double* vals = nullptr;
    const double* diag = nullptr;
    index_type bandwidth = 0;
};

inline QtCsrView csr_view(const QtMatrix& qt) {
    const SparseMatrix& off = qt.off_diagonal();
    return {qt.size(),        off.row_ptr_data(), off.col_data(),
            off.value_data(), qt.diagonal_data(), off.bandwidth()};
}

/// One Gauss-Seidel update of row i on the raw view; the same arithmetic
/// as a row of gauss_seidel_forward.
inline void gs_row_update(const QtCsrView& m, double* x, index_type i) {
    const double d = m.diag[i];
    if (d == 0.0) {
        return;  // isolated state keeps its (zero) mass
    }
    double acc = 0.0;
    const index_type end = m.row_ptr[i + 1];
    for (index_type p = m.row_ptr[i]; p < end; ++p) {
        acc += m.vals[p] * x[m.cols[p]];
    }
    x[i] = acc / -d;
}

/// T forward sweeps pipelined in one wavefront pass. Chain t executes sweep
/// t of the group and trails chain t-1 by D rows; with D > bandwidth every
/// row it reads above itself still holds the previous sweep's value and
/// every row below holds its own sweep's value — exactly the sequential
/// schedule, so the pass is bitwise identical to T back-to-back
/// gauss_seidel_forward calls. The win is throughput: the per-row
/// divide/accumulate dependency chains of the T sweeps interleave instead
/// of serializing. When `final_sum` is non-null the trailing chain (the
/// group's last sweep) accumulates x left-to-right as it writes, which
/// equals summing the finished vector afterwards.
template <int T>
void gs_wavefront_pass(const QtCsrView& m, double* x, index_type D, double* final_sum) {
    static_assert(T >= 1);
    const index_type n = m.n;
    const index_type trail_offset = static_cast<index_type>(T - 1) * D;

    const auto guarded_step = [&](index_type lead) {
        [&]<std::size_t... Ts>(std::index_sequence<Ts...>) {
            ([&] {
                const index_type row = lead - static_cast<index_type>(Ts) * D;
                if (row >= 0 && row < n) {
                    gs_row_update(m, x, row);
                    if constexpr (Ts == static_cast<std::size_t>(T - 1)) {
                        if (final_sum != nullptr) {
                            *final_sum += x[row];
                        }
                    }
                }
            }(),
             ...);
        }(std::make_index_sequence<static_cast<std::size_t>(T)>{});
    };

    index_type lead = 0;
    const index_type total = n + trail_offset;
    for (const index_type prologue_end = std::min(trail_offset, n); lead < prologue_end;
         ++lead) {
        guarded_step(lead);
    }
    // Steady state: all T chains in range — no bounds checks, the fold
    // expression keeps the T row updates in one straight-line loop body.
    for (; lead < n; ++lead) {
        [&]<std::size_t... Ts>(std::index_sequence<Ts...>) {
            (gs_row_update(m, x, lead - static_cast<index_type>(Ts) * D), ...);
        }(std::make_index_sequence<static_cast<std::size_t>(T)>{});
        if (final_sum != nullptr) {
            *final_sum += x[lead - trail_offset];
        }
    }
    for (; lead < total; ++lead) {
        guarded_step(lead);
    }
}

/// Runs `count` forward Gauss-Seidel sweeps on the raw view, pipelined in
/// wavefront groups of up to 4 sweeps. Bitwise identical to `count`
/// sequential gauss_seidel_forward passes. Returns the left-to-right sum of
/// x after the last sweep (equal to summing the final vector separately:
/// the trailing chain writes rows in order, and skipped zero-diagonal rows
/// contribute their unchanged value).
inline double gauss_seidel_sweeps(const QtCsrView& m, double* x, index_type count) {
    double sum = 0.0;
    const index_type D = m.bandwidth + 8;  // > bandwidth: safe wavefront gap
    // Pipelining pays off only when the steady state dominates; tiny chains
    // (or near-dense bandwidth) run the plain sequential schedule (T == 1).
    const bool pipeline = count > 1 && 8 * D < m.n;
    index_type left = count;
    while (left > 0) {
        if (pipeline && left >= 4) {
            gs_wavefront_pass<4>(m, x, D, left == 4 ? &sum : nullptr);
            left -= 4;
        } else if (pipeline && left >= 2) {
            gs_wavefront_pass<2>(m, x, D, left == 2 ? &sum : nullptr);
            left -= 2;
        } else {
            gs_wavefront_pass<1>(m, x, D, left == 1 ? &sum : nullptr);
            left -= 1;
        }
    }
    return sum;
}

/// Divides x by `sum` and evaluates the scaled residual in one pass, the
/// division running D > bandwidth rows ahead of the residual accumulation
/// so every residual row reads only fully normalized entries. Bitwise
/// identical to the divide loop of detail::normalize followed by
/// scaled_residual (max combines exactly, so fusing cannot change it).
/// Throws like normalize when the sweep collapsed to a non-positive sum.
inline double fused_normalize_residual(const QtCsrView& m, double* x, double sum,
                                       double uniformization_rate) {
    if (sum <= 0.0) {
        throw std::runtime_error("steady-state solve collapsed to the zero vector");
    }
    const index_type n = m.n;
    const index_type D = m.bandwidth + 1;
    double worst = 0.0;
    for (index_type lead = 0; lead < n + D; ++lead) {
        if (lead < n) {
            x[lead] /= sum;
        }
        const index_type i = lead - D;
        if (i >= 0) {
            double acc = m.diag[i] * x[i];
            const index_type end = m.row_ptr[i + 1];
            for (index_type p = m.row_ptr[i]; p < end; ++p) {
                acc += m.vals[p] * x[m.cols[p]];
            }
            worst = std::max(worst, std::fabs(acc));
        }
    }
    return worst / uniformization_rate;
}

}  // namespace detail
}  // namespace gprsim::ctmc
