// Gauss-Seidel solver kernels: the line sweep for any QtOperatorConcept,
// the layout check it relies on, and the normalization and residual
// reductions.
//
// The sweep is block ("line") Gauss-Seidel with tridiagonal blocks
// (Stewart, Introduction to the Numerical Solution of Markov Chains, 1994,
// section 3.4). An operator with L levels and P = n / L phases is swept one
// phase column {f, f+P, ..., f+(L-1)P} at a time, f ascending: the column's
// L equations are solved exactly by Thomas elimination, with every entry
// from outside the column taken at its current value. For the GPRS chain a
// column is one (n, m, r) phase across all buffer levels k, so a correction
// crosses the whole buffer in one sweep instead of one level per sweep.
// With L = 1 every column is a single state and the sweep is exactly the
// point forward Gauss-Seidel sweep.
//
// Thomas elimination needs no pivoting here: the column matrix is the
// principal submatrix of -Q^T on the column, which is column diagonally
// dominant because each state's exit rate covers its in-column exits, and
// nonsingular for an irreducible chain with more than one phase. On a
// QtMatrix the kernels read the rows in stored order, where a column's
// rows are contiguous (see QtMatrix). The scratch is O(L): no array of the
// chain's size is added.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

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
    if (!(sum > 0.0)) {
        throw std::runtime_error("steady-state solve collapsed to the zero vector");
    }
    for (double& v : x) {
        v /= sum;
    }
}

/// Diagonal and incoming entries of state i, read from stored row s when
/// the operator is a QtMatrix (whose kernels walk its rows in stored order,
/// see QtMatrix) and through the operator's own accessors otherwise.
template <QtOperatorConcept Op>
double row_diagonal(const Op& op, index_type i, index_type s) {
    if constexpr (std::is_same_v<Op, QtMatrix>) {
        return op.stored_diagonal(s);
    } else {
        return op.diagonal(i);
    }
}

template <QtOperatorConcept Op, typename F>
void for_each_row_incoming(const Op& op, index_type i, index_type s, F&& f) {
    if constexpr (std::is_same_v<Op, QtMatrix>) {
        op.for_each_stored_incoming(s, f);
    } else {
        op.for_each_incoming(i, f);
    }
}

/// Calls visit(i, s) for every state i in line order: phase f ascending,
/// level k ascending within it, i = f + k P and s = f L + k, where s is a
/// QtMatrix's stored row. With one level this is index order.
template <typename Visit>
void for_each_in_line_order(index_type n, index_type levels, Visit&& visit) {
    const index_type phases = n / levels;
    index_type s = 0;
    for (index_type f = 0; f < phases; ++f) {
        for (index_type k = 0, i = f; k < levels; ++k, i += phases, ++s) {
            visit(i, s);
        }
    }
}

/// The operator's level count: op.levels() when it declares one, else 1.
template <QtOperatorConcept Op>
index_type operator_levels(const Op& op) {
    if constexpr (requires { op.levels(); }) {
        return static_cast<index_type>(op.levels());
    } else {
        return 1;
    }
}

/// max_i |(pi Q)_i| / Lambda for a normalized pi.
template <QtOperatorConcept Op>
double scaled_residual(const Op& op, std::span<const double> x, double uniformization_rate) {
    double worst = 0.0;
    for_each_in_line_order(op.size(), operator_levels(op), [&](index_type i, index_type s) {
        double acc = row_diagonal(op, i, s) * x[static_cast<std::size_t>(i)];
        for_each_row_incoming(op, i, s, [&](index_type j, double rate) {
            acc += rate * x[static_cast<std::size_t>(j)];
        });
        worst = std::max(worst, std::fabs(acc));
    });
    return worst / uniformization_rate;
}

/// Lambda = max_i |Q_ii| (uniformization rate).
template <QtOperatorConcept Op>
double max_exit_rate(const Op& op) {
    double lambda = 0.0;
    for_each_in_line_order(op.size(), operator_levels(op), [&](index_type i, index_type s) {
        lambda = std::max(lambda, -row_diagonal(op, i, s));
    });
    if (lambda <= 0.0) {
        throw std::invalid_argument("generator has no transitions (all diagonal zero)");
    }
    return lambda;
}

// --- line layout --------------------------------------------------------

/// Throws std::invalid_argument unless `levels` divides the state count
/// and, for more than one level, every state has a positive exit rate and
/// every entry inside a phase column lies one level away (+-P).
template <QtOperatorConcept Op>
void validate_line_layout(const Op& op, index_type levels) {
    const index_type n = op.size();
    if (levels < 1 || n % levels != 0) {
        throw std::invalid_argument("solve_steady_state: the level count " +
                                    std::to_string(levels) + " does not divide the " +
                                    std::to_string(n) + " states");
    }
    if (levels == 1) {
        return;
    }
    const index_type phases = n / levels;
    for_each_in_line_order(n, levels, [&](index_type i, index_type s) {
        if (!(row_diagonal(op, i, s) < 0.0)) {
            throw std::invalid_argument(
                "solve_steady_state: a state without exits in a multi-level layout");
        }
        for_each_row_incoming(op, i, s, [&](index_type j, double) {
            // In the column iff the distance is a multiple of P; the
            // modulo is needed only beyond one level.
            const index_type gap = j > i ? j - i : i - j;
            if (gap != phases && (gap < phases ? gap == 0 : gap % phases == 0)) {
                throw std::invalid_argument(
                    "solve_steady_state: entry (" + std::to_string(i) + ", " +
                    std::to_string(j) + ") lies in its phase column but not one level away");
            }
        });
    });
}

// --- sweep kernel -------------------------------------------------------

/// O(levels) elimination scratch of the line sweep, reused across sweeps.
struct LineScratch {
    explicit LineScratch(index_type levels)
        : pivot(static_cast<std::size_t>(levels)),
          rhs(static_cast<std::size_t>(levels)),
          upper(static_cast<std::size_t>(levels)) {}

    std::vector<double> pivot;  // eliminated diagonal of level k
    std::vector<double> rhs;    // eliminated right-hand side of level k
    std::vector<double> upper;  // rate in from level k+1
};

/// What one sweep leaves besides the new iterate.
struct SweepTotals {
    double sum = 0.0;     // sum of the swept (unnormalized) vector
    double update = 0.0;  // sum_i |x_i(new) - x_i(old)|
};

/// Row i (stored row s) of the line sweep, whose column neighbours are
/// i - P and i + P: returns the incoming flow from outside the column at
/// the current x and sets `below` / `up` to the rates in from one level
/// down / up (left as they are when absent). A QtMatrix row's columns
/// are sorted, so the two column entries split it into three runs; with
/// one level neither exists and the sum runs over the row in order,
/// exactly as a point sweep's.
template <QtOperatorConcept Op>
double line_row(const Op& op, index_type i, index_type s, index_type phases, const double* x,
                double& below, double& up) {
    const index_type lo = i - phases;
    const index_type hi = i + phases;
    double acc = 0.0;
    if constexpr (std::is_same_v<Op, QtMatrix>) {
        const auto cols = op.off_diagonal().row_cols(s);
        const auto vals = op.off_diagonal().row_values(s);
        const std::size_t end = cols.size();
        std::size_t p = 0;
        for (; p < end && cols[p] < lo; ++p) {
            acc += vals[p] * x[cols[p]];
        }
        if (p < end && cols[p] == lo) {
            below = vals[p++];
        }
        for (; p < end && cols[p] < hi; ++p) {
            acc += vals[p] * x[cols[p]];
        }
        if (p < end && cols[p] == hi) {
            up = vals[p++];
        }
        for (; p < end; ++p) {
            acc += vals[p] * x[cols[p]];
        }
    } else {
        (void)s;
        op.for_each_incoming(i, [&](index_type j, double rate) {
            if (j == lo) {
                below = rate;
            } else if (j == hi) {
                up = rate;
            } else {
                acc += rate * x[j];
            }
        });
    }
    return acc;
}

/// One in-place forward line Gauss-Seidel sweep. For each phase f the
/// column's equations
///     d_k x_k - below_k x_{k-1} - upper_k x_{k+1} = b_k,
/// d_k = -Q_ii, below_k / upper_k the rates in from one level down / up,
/// b_k every other incoming flow at its current value, are solved by
/// Thomas elimination. A state with a zero pivot (an isolated state, which
/// only a one-level operator may have) keeps its value. The layout must
/// have passed validate_line_layout.
template <QtOperatorConcept Op>
SweepTotals line_gauss_seidel_sweep(const Op& op, std::span<double> x, LineScratch& scratch) {
    const auto levels = static_cast<index_type>(scratch.pivot.size());
    const index_type phases = op.size() / levels;
    double* const pivot = scratch.pivot.data();
    double* const rhs = scratch.rhs.data();
    double* const upper = scratch.upper.data();
    SweepTotals totals;
    for (index_type f = 0, s0 = 0; f < phases; ++f, s0 += levels) {
        for (index_type k = 0, i = f; k < levels; ++k, i += phases) {
            double below = 0.0;  // rates in from one level down / up
            double up = 0.0;
            double acc = line_row(op, i, s0 + k, phases, x.data(), below, up);
            double d = -row_diagonal(op, i, s0 + k);
            if (k > 0) {
                const double factor = below / pivot[k - 1];
                d -= factor * upper[k - 1];
                acc += factor * rhs[k - 1];
            }
            pivot[k] = d;
            rhs[k] = acc;
            upper[k] = up;
        }
        double next = 0.0;  // x of level k+1, already solved
        for (index_type k = levels - 1, i = f + k * phases; k >= 0; --k, i -= phases) {
            double& xi = x[static_cast<std::size_t>(i)];
            if (pivot[k] != 0.0) {
                // upper of the top level is 0, so its value is rhs / pivot.
                const double value = (rhs[k] + upper[k] * next) / pivot[k];
                totals.update += std::fabs(value - xi);
                xi = value;
            }
            next = xi;
            totals.sum += xi;
        }
    }
    return totals;
}

}  // namespace detail
}  // namespace gprsim::ctmc
