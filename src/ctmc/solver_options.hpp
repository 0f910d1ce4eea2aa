// Solver vocabulary shared by every layer of the steady-state stack: the
// transposed-generator operator concept, the explicit CSR operator, and the
// option/result structs consumed by SolverEngine (see engine.hpp).
//
// All solvers compute the stationary distribution pi of an irreducible CTMC
// with generator Q, i.e. the solution of  pi * Q = 0,  sum(pi) = 1.
// They operate on the *transposed* generator: a type modelling the
// QtOperatorConcept below exposes, for every state i, the diagonal Q_ii and
// the incoming transition rates Q_ji (j != i). This works both for an
// explicitly stored CSR matrix (QtMatrix) and for matrix-free operators that
// enumerate transitions on the fly (used when the chain does not fit in RAM).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "ctmc/sparse_matrix.hpp"
#include "common/types.hpp"

namespace gprsim::ctmc {

/// Requirements for a transposed-generator operator usable by the solvers.
///
///   index_type size() const;                 // number of states
///   double diagonal(index_type i) const;     // Q_ii  (strictly negative
///                                            //  for non-absorbing states)
///   void for_each_incoming(index_type i, F&& f) const;
///                                            // f(j, rate) for every j != i
///                                            //  with Q_ji = rate > 0
///
/// and optionally
///
///   index_type levels() const;               // buffer levels L (absent: 1)
///
/// An operator with L > 1 levels declares a level-outermost layout: with
/// P = size() / L phases, state f + k P is phase f at level k, and the only
/// transitions inside a phase's column {f, f+P, f+2P, ...} move one level
/// (entries at +-P). The solver then sweeps whole columns ("lines") at once
/// (see kernels.hpp).
template <typename Op>
concept QtOperatorConcept = requires(const Op& op, index_type i) {
    { op.size() } -> std::convertible_to<index_type>;
    { op.diagonal(i) } -> std::convertible_to<double>;
    op.for_each_incoming(i, [](index_type, double) {});
};

/// Transposed generator stored explicitly: off-diagonal CSR + diagonal array.
///
/// With one level (the default) stored row i is state i. With L > 1 levels
/// (see QtOperatorConcept) the rows are stored line by line: stored row
/// s = f L + k holds state f + k P, P = size() / L, so each phase column
/// the line sweep solves is contiguous in memory. Column indices are state
/// indices either way.
class QtMatrix {
public:
    QtMatrix() = default;
    /// `stored_rows` (entry (s, j) = Q_ji for the state i of stored row s,
    /// j != i) and `stored_diagonal` are in the stored order above.
    QtMatrix(SparseMatrix stored_rows, std::vector<double> stored_diagonal,
             index_type levels = 1)
        : off_diag_(std::move(stored_rows)),
          diag_(std::move(stored_diagonal)),
          levels_(levels) {
        if (off_diag_.rows() != static_cast<index_type>(diag_.size()) ||
            off_diag_.cols() != static_cast<index_type>(diag_.size())) {
            throw std::invalid_argument("QtMatrix: dimension mismatch");
        }
        if (levels_ < 1 || size() % levels_ != 0) {
            throw std::invalid_argument("QtMatrix: the level count must divide the size");
        }
        phases_ = size() / levels_;
    }

    index_type size() const { return static_cast<index_type>(diag_.size()); }
    index_type levels() const { return levels_; }

    double diagonal(index_type i) const { return stored_diagonal(stored_row(i)); }
    template <typename F>
    void for_each_incoming(index_type i, F&& f) const {
        for_each_stored_incoming(stored_row(i), f);
    }

    /// Diagonal and incoming entries by stored row, for kernels that walk
    /// the rows in stored order.
    double stored_diagonal(index_type s) const { return diag_[static_cast<std::size_t>(s)]; }
    template <typename F>
    void for_each_stored_incoming(index_type s, F&& f) const {
        const auto cols = off_diag_.row_cols(s);
        const auto values = off_diag_.row_values(s);
        for (std::size_t p = 0; p < cols.size(); ++p) {
            f(static_cast<index_type>(cols[p]), values[p]);
        }
    }

    /// The stored rows (state order only when levels() == 1).
    const SparseMatrix& off_diagonal() const { return off_diag_; }
    std::size_t memory_bytes() const {
        return off_diag_.memory_bytes() + diag_.capacity() * sizeof(double);
    }

private:
    /// Stored row of state i.
    index_type stored_row(index_type i) const {
        return levels_ == 1 ? i : (i % phases_) * levels_ + i / phases_;
    }

    SparseMatrix off_diag_;
    std::vector<double> diag_;
    index_type levels_ = 1;
    index_type phases_ = 0;
};

/// Builds a QtMatrix from an enumerator of *outgoing* transitions.
///
/// `outgoing(i, emit)` must call `emit(j, rate)` for every transition
/// i -> j (j != i, rate > 0) of the chain. The diagonal is derived as the
/// negated row sum, so the result is a proper generator by construction.
template <typename Outgoing>
QtMatrix build_qt_matrix(index_type num_states, Outgoing&& outgoing) {
    std::vector<double> diag(static_cast<std::size_t>(num_states), 0.0);
    std::vector<Triplet> triplets;
    for (index_type i = 0; i < num_states; ++i) {
        outgoing(i, [&](index_type j, double rate) {
            if (rate <= 0.0) {
                return;
            }
            diag[static_cast<std::size_t>(i)] -= rate;
            triplets.push_back({j, i, rate});  // transposed: row=target, col=source
        });
    }
    SparseMatrix off = SparseMatrix::from_triplets(num_states, num_states, std::move(triplets));
    return QtMatrix(std::move(off), std::move(diag));
}

/// Iteration scheme used by SolverEngine::solve() / solve_steady_state().
/// There is one: in-place forward line Gauss-Seidel sweeps (kernels.hpp).
/// The enum survives as the vocabulary of the spec-level `solver.method`
/// strings, where "auto" is a second spelling of the same scheme.
enum class SolveMethod {
    gauss_seidel,
    auto_select = gauss_seidel,
};

/// Canonical spelling of a method ("gauss_seidel"). Since auto_select is
/// an alias, it prints as "gauss_seidel" too.
inline const char* method_name(SolveMethod) { return "gauss_seidel"; }

/// Inverse of method_name, also accepting "auto"; nullopt for any other
/// spelling (callers turn that into their own typed error).
inline std::optional<SolveMethod> method_from_name(std::string_view name) {
    if (name == "gauss_seidel" || name == "auto") return SolveMethod::gauss_seidel;
    return std::nullopt;
}

/// The accepted method spellings, for error messages.
inline constexpr const char* kMethodSpellings = "auto, gauss_seidel";

struct SolveOptions {
    SolveMethod method = SolveMethod::gauss_seidel;
    /// Convergence target. A solve stops after the first sweep whose
    /// normalized update (SolveResult::update) and scaled residual
    /// max_i |(pi Q)_i| / Lambda, Lambda = max_i |Q_ii|, are both at most
    /// this value.
    double tolerance = 1e-12;
    index_type max_iterations = 200000;
    /// Row ordering applied to the solve (order[new] = old; empty = keep
    /// the operator's ordering). Only supported for explicit QtMatrix
    /// operators: the engine permutes the matrix and the initial vector,
    /// sweeps the reordered system, and inverse-applies the permutation to
    /// the returned distribution, so callers never see internal indices.
    /// An identity permutation is detected and skipped; any other one
    /// solves a reindexed matrix with one level (point sweeps), since a
    /// permuted layout no longer has the level structure.
    std::vector<index_type> permutation;
    /// Has no effect: every solve runs serially (campaign points, not
    /// threads inside a solve, are the parallelism). Kept so existing
    /// callers that set it still compile.
    int num_threads = 1;
    /// Warm start; empty means the uniform distribution. Non-negative,
    /// renormalized internally.
    std::vector<double> initial;
    /// Optional progress callback: (sweeps done, current residual), called
    /// at every residual evaluation.
    std::function<void(index_type, double)> progress;
};

struct SolveResult {
    std::vector<double> distribution;
    index_type iterations = 0;
    double residual = 0.0;
    /// The probability mass the last sweep moved: sum_i |x_i(new) -
    /// x_i(old)| over the sum of the swept vector. It bounds the sweep's
    /// change of any measure E[f] by max |f| times this value.
    double update = 0.0;
    bool converged = false;
    double seconds = 0.0;
    /// Number of scaled-residual evaluations the solve performed (each is
    /// an O(nnz) pass, run only after a sweep whose update passed).
    index_type residual_evaluations = 0;
};

}  // namespace gprsim::ctmc
