// SolverEngine: the reusable entry point of the steady-state stack.
//
//   engine layer   (this file + kernels.hpp)
//        ^ one iteration scheme: forward Gauss-Seidel
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
// The solve loop runs sweeps in batches of check_interval. On an explicit
// QtMatrix it takes the raw-CSR wavefront kernel (kernels.hpp), which
// pipelines the batch and fuses the normalization sum into the final sweep
// and the residual into the normalizing division — bitwise identical to
// the one-sweep-at-a-time schedule the matrix-free operator runs, about 2x
// faster. With adaptive_checks the residual is evaluated only when the
// observed convergence rate predicts it could matter; normalization stays
// on the fixed every-interval schedule, so the iterate trajectory is
// unchanged.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
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
    if (options.check_interval <= 0) {
        throw std::invalid_argument("solve_steady_state: check_interval must be positive");
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

    // Batched sweep loop. Checkpoints land at every multiple of
    // check_interval (and at max_iterations) exactly as in the
    // sweep-at-a-time schedule; normalization happens at every checkpoint,
    // the residual only where the adaptive schedule (or a fixed schedule
    // with adaptive_checks off) asks for it.
    bool have_residual = false;
    index_type next_residual = options.check_interval;
    index_type prev_sweep = 0;
    double prev_residual = -1.0;
    index_type sweep = 0;
    while (sweep < options.max_iterations) {
        const index_type target = std::min(sweep + options.check_interval,
                                           options.max_iterations);
        const bool want_residual = !options.adaptive_checks || target >= next_residual ||
                                   target == options.max_iterations;
        if constexpr (std::is_same_v<Op, QtMatrix>) {
            // Raw-CSR wavefront kernel; its final sweep also accumulates
            // the normalization sum.
            const detail::QtCsrView m = detail::csr_view(op);
            const double sum = detail::gauss_seidel_sweeps(m, x.data(), target - sweep);
            if (want_residual) {
                result.residual = detail::fused_normalize_residual(m, x.data(), sum, lambda);
                ++result.residual_evaluations;
            } else {
                if (sum <= 0.0) {
                    throw std::runtime_error(
                        "steady-state solve collapsed to the zero vector");
                }
                for (double& v : x) {
                    v /= sum;
                }
            }
        } else {
            for (index_type s = sweep; s < target; ++s) {
                detail::gauss_seidel_forward(op, x);
            }
            detail::normalize(x);
            if (want_residual) {
                result.residual = detail::scaled_residual(op, x, lambda);
                ++result.residual_evaluations;
            }
        }
        sweep = target;
        result.iterations = sweep;
        have_residual = want_residual;
        if (!want_residual) {
            continue;
        }
        if (options.progress) {
            options.progress(sweep, result.residual);
        }
        if (result.residual <= options.tolerance) {
            break;
        }
        // Schedule the next residual evaluation. With two residuals on
        // record, extrapolate the per-sweep decay and skip ahead — but only
        // half the predicted remaining distance, in whole intervals, capped
        // at 16 intervals, so decelerating convergence cannot overshoot the
        // sweep where the fixed schedule would have stopped.
        index_type gap = options.check_interval;
        if (options.adaptive_checks && prev_residual > 0.0 && result.residual > 0.0 &&
            result.residual < prev_residual) {
            const double f = std::pow(result.residual / prev_residual,
                                      1.0 / static_cast<double>(sweep - prev_sweep));
            if (f > 0.0 && f < 1.0) {
                const double remaining =
                    std::log(options.tolerance / result.residual) / std::log(f);
                const double half_intervals =
                    remaining / 2.0 / static_cast<double>(options.check_interval);
                const index_type mult = std::clamp<index_type>(
                    static_cast<index_type>(half_intervals), 1, 16);
                gap = mult * options.check_interval;
            }
        }
        prev_sweep = sweep;
        prev_residual = result.residual;
        next_residual = sweep + gap;
    }

    // Every loop exit passes through a residual checkpoint (the converged
    // break, or the forced evaluation at max_iterations), so this fallback
    // only fires when max_iterations left the loop body unentered.
    if (!have_residual) {
        detail::normalize(x);
        result.residual = detail::scaled_residual(op, x, lambda);
        ++result.residual_evaluations;
    }
    result.converged = result.residual <= options.tolerance;
    result.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return result;
}

}  // namespace gprsim::ctmc
