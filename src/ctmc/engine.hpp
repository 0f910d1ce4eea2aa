// SolverEngine: the reusable entry point of the steady-state stack.
//
//   engine layer   (this file + kernels.hpp)
//        ^ one iteration scheme: forward line Gauss-Seidel
//   model layer    (core/model.hpp, core/sweep.hpp)
//        ^ routes GprsModel::solve() and sweeps through an engine
//   consumers      (eval/, campaign/, bench/, examples/)
//
// Every solve runs serially on the calling thread; independent solves
// (campaign points, sweep shards) are the parallelism. The engine also
// owns the pool those callers shard their solves across (pool()), spawned
// once and reused for the life of the workload. SolveOptions::num_threads
// has no effect, so a solve's result never depends on a thread count.
//
// The solve loop runs one line Gauss-Seidel sweep (kernels.hpp) over the
// operator's own level layout (op.levels(), 1 when it declares none) and
// normalizes after every sweep. It stops after the first sweep whose
// normalized update (the probability mass the sweep moved, an L1 norm) and
// scaled residual both meet the tolerance: the update comes with the
// sweep, and the O(nnz) residual pass runs only after a sweep whose update
// passed (and at max_iterations). A max-norm update stops too early: on
// small cells it left the balance-form PLP twice as far from the
// reference as point Gauss-Seidel's, since a slow mode moves every entry
// a little.
#pragma once

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <type_traits>

#include "ctmc/kernels.hpp"
#include "ctmc/ordering.hpp"
#include "ctmc/solver_options.hpp"
#include "common/thread_pool.hpp"

namespace gprsim::ctmc {

class SolverEngine {
public:
    /// `prewarm_threads` > 1 spawns the pool eagerly; otherwise the pool is
    /// created on the first pool() call.
    explicit SolverEngine(int prewarm_threads = 0);

    SolverEngine(const SolverEngine&) = delete;
    SolverEngine& operator=(const SolverEngine&) = delete;

    /// Resolves a requested pool width via the repo-wide convention
    /// (common::ThreadPool::resolve_thread_count): 0 -> hardware threads,
    /// else max(1, requested).
    static int resolve_thread_count(int requested);

    /// The shared pool, grown (recreated) if narrower than `min_threads`.
    /// Do not resize while another thread is dispatching on the pool.
    common::ThreadPool& pool(int min_threads);

    /// Solves pi Q = 0, sum(pi) = 1 for the operator's chain.
    ///
    /// Throws std::invalid_argument for degenerate generators. A
    /// non-converged result (result.converged == false) is returned rather
    /// than thrown so callers can decide whether the residual is
    /// acceptable. Concurrent solves on one engine are safe.
    template <QtOperatorConcept Op>
    SolveResult solve(const Op& op, const SolveOptions& options = {});

private:
    std::unique_ptr<common::ThreadPool> pool_;
    std::mutex pool_mutex_;
};

/// Process-wide engine used by the solve_steady_state() convenience wrapper
/// and by model-layer callers that do not manage their own engine.
SolverEngine& default_engine();

// --- implementation -----------------------------------------------------

template <QtOperatorConcept Op>
SolveResult SolverEngine::solve(const Op& op, const SolveOptions& options) {
    const auto t0 = std::chrono::steady_clock::now();
    const index_type n = op.size();
    if (n <= 0) {
        throw std::invalid_argument("solve_steady_state: empty state space");
    }
    if (!options.initial.empty() &&
        static_cast<index_type>(options.initial.size()) != n) {
        throw std::invalid_argument("solve_steady_state: initial vector size mismatch");
    }

    // Row reordering: solve the permuted system, then map the distribution
    // back to caller indexing. Only explicit matrices can be reindexed;
    // the reordered solve runs with an empty permutation, so the recursion
    // is exactly one level deep.
    if (!options.permutation.empty() && !is_identity_permutation(options.permutation)) {
        if constexpr (std::is_same_v<Op, QtMatrix>) {
            validate_permutation(options.permutation, n);
            const QtMatrix reordered = permute_qt_matrix(op, options.permutation);
            SolveOptions inner = options;
            inner.permutation.clear();
            if (!inner.initial.empty()) {
                inner.initial = permute_vector(inner.initial, options.permutation);
            }
            SolveResult res = solve(reordered, inner);
            res.distribution =
                inverse_permute_vector(res.distribution, options.permutation);
            res.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                        t0)
                              .count();
            return res;
        } else {
            throw std::invalid_argument(
                "solve_steady_state: permutation requires an explicit QtMatrix operator");
        }
    }

    SolveResult result;
    const index_type levels = detail::operator_levels(op);
    detail::validate_line_layout(op, levels);
    const double lambda = detail::max_exit_rate(op);

    if (options.initial.empty()) {
        result.distribution.assign(static_cast<std::size_t>(n),
                                   1.0 / static_cast<double>(n));
    } else {
        result.distribution = options.initial;
        for (double& v : result.distribution) {
            v = std::max(v, 0.0);
        }
        detail::normalize(result.distribution);
    }
    std::vector<double>& x = result.distribution;

    detail::LineScratch scratch(levels);
    bool have_residual = false;
    for (index_type sweep = 1; sweep <= options.max_iterations; ++sweep) {
        const detail::SweepTotals totals = detail::line_gauss_seidel_sweep(op, x, scratch);
        if (!(totals.sum > 0.0)) {
            throw std::runtime_error("steady-state solve collapsed to the zero vector");
        }
        for (double& v : x) {
            v /= totals.sum;
        }
        result.iterations = sweep;
        result.update = totals.update / totals.sum;
        have_residual = result.update <= options.tolerance || sweep == options.max_iterations;
        if (!have_residual) {
            continue;
        }
        result.residual = detail::scaled_residual(op, x, lambda);
        ++result.residual_evaluations;
        if (options.progress) {
            options.progress(sweep, result.residual);
        }
        if (result.update <= options.tolerance && result.residual <= options.tolerance) {
            break;
        }
    }

    // Every loop exit passes through a residual evaluation (the converged
    // break, or the forced one at max_iterations), so this fallback only
    // fires when max_iterations left the loop body unentered.
    if (!have_residual) {
        result.residual = detail::scaled_residual(op, x, lambda);
        ++result.residual_evaluations;
    }
    result.converged =
        result.update <= options.tolerance && result.residual <= options.tolerance;
    result.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return result;
}

}  // namespace gprsim::ctmc
