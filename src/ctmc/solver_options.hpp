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
template <typename Op>
concept QtOperatorConcept = requires(const Op& op, index_type i) {
    { op.size() } -> std::convertible_to<index_type>;
    { op.diagonal(i) } -> std::convertible_to<double>;
    op.for_each_incoming(i, [](index_type, double) {});
};

/// Transposed generator stored explicitly: off-diagonal CSR + diagonal array.
class QtMatrix {
public:
    QtMatrix() = default;
    QtMatrix(SparseMatrix off_diagonal_qt, std::vector<double> diagonal)
        : off_diag_(std::move(off_diagonal_qt)), diag_(std::move(diagonal)) {
        if (off_diag_.rows() != static_cast<index_type>(diag_.size()) ||
            off_diag_.cols() != static_cast<index_type>(diag_.size())) {
            throw std::invalid_argument("QtMatrix: dimension mismatch");
        }
    }

    index_type size() const { return static_cast<index_type>(diag_.size()); }
    double diagonal(index_type i) const { return diag_[static_cast<std::size_t>(i)]; }

    template <typename F>
    void for_each_incoming(index_type i, F&& f) const {
        const auto cols = off_diag_.row_cols(i);
        const auto values = off_diag_.row_values(i);
        for (std::size_t p = 0; p < cols.size(); ++p) {
            f(cols[p], values[p]);
        }
    }

    const SparseMatrix& off_diagonal() const { return off_diag_; }
    /// Contiguous diagonal array (size() entries) for the raw sweep kernels.
    const double* diagonal_data() const { return diag_.data(); }
    std::size_t memory_bytes() const {
        return off_diag_.memory_bytes() + diag_.capacity() * sizeof(double);
    }

private:
    SparseMatrix off_diag_;  // entry (i, j) = Q_ji, i != j
    std::vector<double> diag_;
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
/// There is one: in-place forward Gauss-Seidel sweeps. The enum survives as
/// the vocabulary of the spec-level `solver.method` strings, where "auto"
/// is a second spelling of the same scheme.
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
    /// Convergence target on max_i |(pi Q)_i| / Lambda with
    /// Lambda = max_i |Q_ii| (a dimensionless residual).
    double tolerance = 1e-12;
    index_type max_iterations = 200000;
    /// Normalization interval in sweeps. The iterate is renormalized at
    /// every multiple of `check_interval` (a fixed schedule — the division
    /// changes the iterate, so it must not depend on anything adaptive for
    /// results to stay reproducible); the residual is evaluated there too,
    /// unless adaptive_checks thins the residual schedule.
    index_type check_interval = 10;
    /// Derive the residual-evaluation interval from the observed
    /// convergence rate: once two residuals have been seen, checks are
    /// scheduled at conservative multiples of check_interval (at most half
    /// the predicted remaining sweeps, capped at 16 intervals), skipping
    /// the O(nnz) residual passes a long solve would otherwise burn every
    /// interval. Normalization stays on the fixed every-interval schedule,
    /// so the iterate trajectory — and the converged distribution — is
    /// bitwise identical to adaptive_checks = false; only
    /// SolveResult::residual_evaluations (and the progress callback
    /// cadence) changes. Disable to force a residual at every interval.
    bool adaptive_checks = true;
    /// Row ordering applied to the solve (order[new] = old; empty = keep
    /// the operator's ordering). Only supported for explicit QtMatrix
    /// operators: the engine permutes the matrix and the initial vectors,
    /// sweeps the reordered system, and inverse-applies the permutation to
    /// the returned distribution, so callers never see internal indices.
    /// An identity permutation is detected and skipped (the GPRS
    /// generator's QBD level grouping — core::qbd_level_ordering — is the
    /// identity because the state codec already stores the buffer level
    /// outermost).
    std::vector<index_type> permutation;
    /// Has no effect: every solve runs serially (campaign points, not
    /// threads inside a solve, are the parallelism). Kept so existing
    /// callers that set it still compile.
    int num_threads = 1;
    /// Warm start; empty means the uniform distribution. Non-negative,
    /// renormalized internally.
    std::vector<double> initial;
    /// Competing warm starts, in preference order: when non-empty the
    /// engine evaluates the scaled residual of every candidate (one O(nnz)
    /// pass each, no iterations consumed) and starts from the winner;
    /// SolveResult::initial_selected reports the choice. Mutually
    /// exclusive with `initial`.
    std::vector<std::vector<double>> initial_candidates;
    /// Preference margin for the candidate comparison: a later candidate
    /// replaces the incumbent only when its residual is strictly below
    /// margin * incumbent residual. 1.0 is a plain argmin with ties to the
    /// earlier candidate; smaller values demand a decisive advantage —
    /// the initial residual is only a proxy for iterations-to-converge,
    /// and near-ties routinely mispredict (measured on the paper's Fig. 6
    /// cell: a transfer candidate at 0.92x the product form's residual
    /// cost 2x the sweeps, while every candidate below 0.5x converged
    /// faster). Must be in (0, 1].
    double candidate_margin = 1.0;
    /// Optional progress callback: (sweeps done, current residual).
    std::function<void(index_type, double)> progress;
};

struct SolveResult {
    std::vector<double> distribution;
    index_type iterations = 0;
    double residual = 0.0;
    bool converged = false;
    double seconds = 0.0;
    /// Index of the winning SolveOptions::initial_candidates entry;
    /// -1 when no candidate list was supplied.
    int initial_selected = -1;
    /// Number of scaled-residual evaluations the solve performed (each is
    /// an O(nnz) pass; adaptive_checks exists to shrink this).
    index_type residual_evaluations = 0;
};

}  // namespace gprsim::ctmc
