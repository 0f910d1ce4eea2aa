// Shared scaffolding of the built-in backend implementations: the guarded
// evaluate fence, grid validation, the per-query probe/error-slot protocol
// of the batch planners, and the two grid bases — PlannedEvaluator (grid
// entry points that execute the backend's own plan) and PointwiseEvaluator
// (one independent task per grid point). Internal to src/eval/ and
// src/network/ — the public surface is evaluator.hpp/backends.hpp.
#pragma once

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "eval/batch.hpp"
#include "eval/evaluator.hpp"

namespace gprsim::eval::detail {

/// Scope timer filling PointEvaluation::wall_seconds.
class WallClock {
public:
    WallClock() : start_(std::chrono::steady_clock::now()) {}
    double seconds() const {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
    }

private:
    std::chrono::steady_clock::time_point start_;
};

/// Positive-and-ascending check shared by every grid entry point; grids
/// come from campaign specs (already validated) and from raw API callers
/// (not validated at all).
inline common::Status check_grid(std::span<const double> rates) {
    for (std::size_t i = 0; i < rates.size(); ++i) {
        if (!(rates[i] > 0.0)) {
            return common::EvalError{common::EvalErrorCode::invalid_query,
                                     "grid rates must be positive"};
        }
        if (i > 0 && rates[i] <= rates[i - 1]) {
            return common::EvalError{common::EvalErrorCode::invalid_query,
                                     "grid rates must be strictly ascending"};
        }
    }
    return common::ok_status();
}

/// A plan whose every query slot reports the same batch-level error (bad
/// rate grid): no tasks, constant collect.
inline GridPlan failed_plan(std::size_t num_queries, common::EvalError error) {
    GridPlan plan;
    plan.collect = [num_queries, error = std::move(error)] {
        std::vector<GridOutcome> outcomes;
        outcomes.reserve(num_queries);
        for (std::size_t q = 0; q < num_queries; ++q) {
            outcomes.push_back(error);
        }
        return outcomes;
    };
    return plan;
}

/// Shared per-query scaffolding of the batch planners: sizes each query's
/// error-slot vector to the grid and probe-validates the query against the
/// grid's first rate. planned[q] says whether query q gets tasks; a
/// failing probe's typed error lands in errors[q][0] and poisons nothing
/// else.
inline std::vector<bool> probe_queries(
    std::span<const ScenarioQuery> queries, std::span<const double> rates,
    std::vector<std::vector<std::unique_ptr<common::EvalError>>>& errors) {
    std::vector<bool> planned(queries.size(), false);
    for (std::size_t q = 0; q < queries.size(); ++q) {
        errors[q].resize(rates.size());
        if (rates.empty()) {
            continue;
        }
        ScenarioQuery probe = queries[q];
        probe.call_arrival_rate = rates.front();
        if (common::Status v = probe.validated(); !v.ok()) {
            errors[q][0] = std::make_unique<common::EvalError>(v.error());
            continue;
        }
        planned[q] = true;
    }
    return planned;
}

/// First recorded error of one query's grid, in grid order — the error its
/// GridOutcome reports (nullptr = the grid succeeded). Keeping the
/// selection in one place keeps the ordering contract identical across
/// backends.
inline const common::EvalError* first_error(
    const std::vector<std::unique_ptr<common::EvalError>>& errors) {
    for (const auto& error : errors) {
        if (error) {
            return error.get();
        }
    }
    return nullptr;
}

/// Uncaught-exception fence: every backend body runs inside this so the
/// "no exception crosses the eval boundary" contract survives bugs in the
/// layers below (and bad_alloc on huge chains).
template <typename F>
common::Result<PointEvaluation> guarded(const ScenarioQuery& query, F&& body) {
    if (common::Status v = query.validated(); !v.ok()) {
        return v.error();
    }
    try {
        return body();
    } catch (const std::exception& e) {
        return common::EvalError{
            common::EvalErrorCode::internal,
            std::string(e.what()) + " [" +
                scenario_context(query.parameters, query.call_arrival_rate) + "]"};
    }
}

/// Base of backends that implement plan_grids: the single-grid call is the
/// one-query batch, and the batch executes the backend's own plan on
/// options.pool (the multi-backend merge lives in eval::evaluate_campaign).
class PlannedEvaluator : public Evaluator {
public:
    common::Result<std::vector<PointEvaluation>> evaluate_grid(
        const ScenarioQuery& base, std::span<const double> rates,
        const GridOptions& options) override {
        std::vector<GridOutcome> outcomes =
            evaluate_grids(std::span<const ScenarioQuery>(&base, 1), rates, options);
        return std::move(outcomes.front());
    }

    std::vector<GridOutcome> evaluate_grids(std::span<const ScenarioQuery> queries,
                                            std::span<const double> rates,
                                            const GridOptions& options) override {
        GridPlan plan = plan_grids(queries, rates, options);
        execute_plans(std::span<GridPlan>(&plan, 1), options);
        return plan.collect();
    }
};

/// Base of backends whose grid points are independent of each other (ctmc,
/// fixed-point, fluid): one dependency-free wave-0 task per (query, point)
/// calling evaluate (which never throws), first-error-in-grid-order
/// collection, progress reported under the batch-wide lock at the flat
/// index q * rates.size() + i. Every grid point therefore equals its
/// standalone evaluate() bitwise, at any thread count.
class PointwiseEvaluator : public PlannedEvaluator {
public:
    GridPlan plan_grids(std::span<const ScenarioQuery> queries,
                        std::span<const double> rates,
                        const GridOptions& options) override {
        if (common::Status g = check_grid(rates); !g.ok()) {
            return failed_plan(queries.size(), g.error());
        }

        struct State {
            std::vector<ScenarioQuery> base;
            std::vector<std::vector<PointEvaluation>> points;  ///< [q][i]
            std::vector<std::vector<std::unique_ptr<common::EvalError>>> errors;
            std::vector<double> rates;
            std::mutex progress_mutex;
        };
        const std::size_t nq = queries.size();
        const std::size_t n = rates.size();
        auto state = std::make_shared<State>();
        state->base.assign(queries.begin(), queries.end());
        state->points.assign(nq, std::vector<PointEvaluation>(n));
        state->errors.resize(nq);
        state->rates.assign(rates.begin(), rates.end());
        const std::vector<bool> planned = probe_queries(queries, rates, state->errors);

        GridPlan plan;
        for (std::size_t q = 0; q < nq; ++q) {
            if (!planned[q]) {
                continue;
            }
            for (std::size_t i = 0; i < n; ++i) {
                plan.tasks.push_back(
                    {0, [this, state, q, i, progress = options.progress] {
                         ScenarioQuery query = state->base[q];
                         query.call_arrival_rate = state->rates[i];
                         common::Result<PointEvaluation> point = evaluate(query);
                         if (!point.ok()) {
                             state->errors[q][i] =
                                 std::make_unique<common::EvalError>(point.error());
                             return;
                         }
                         state->points[q][i] = point.take();
                         if (progress) {
                             std::lock_guard<std::mutex> lock(state->progress_mutex);
                             progress(q * state->rates.size() + i, state->points[q][i]);
                         }
                     }});
            }
        }
        plan.collect = [state, nq] {
            std::vector<GridOutcome> outcomes;
            outcomes.reserve(nq);
            for (std::size_t q = 0; q < nq; ++q) {
                if (const common::EvalError* failed = first_error(state->errors[q])) {
                    outcomes.push_back(*failed);
                } else {
                    outcomes.push_back(std::move(state->points[q]));
                }
            }
            return outcomes;
        };
        plan.waves = plan.tasks.empty() ? 0 : 1;
        plan.sequential_waves =
            static_cast<std::size_t>(std::count(planned.begin(), planned.end(), true));
        return plan;
    }
};

}  // namespace gprsim::eval::detail
