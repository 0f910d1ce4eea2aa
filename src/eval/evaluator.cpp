#include "eval/evaluator.hpp"

#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "ctmc/solver_options.hpp"

namespace gprsim::eval {

std::string scenario_context(const core::Parameters& p, double rate) {
    core::Parameters resolved = p;
    resolved.call_arrival_rate = rate;
    return resolved.describe();
}

common::Status ScenarioQuery::validated() const {
    const auto fail = [&](const std::string& what) {
        return common::Status(common::EvalError{
            common::EvalErrorCode::invalid_query,
            what + " [" + scenario_context(parameters, call_arrival_rate) + "]"});
    };
    if (!(call_arrival_rate > 0.0)) {
        return fail("call_arrival_rate must be positive");
    }
    if (!(solver.tolerance > 0.0)) {
        return fail("solver.tolerance must be positive");
    }
    if (solver.max_iterations < 1) {
        return fail("solver.max_iterations must be at least 1");
    }
    if (!ctmc::method_from_name(solver.method)) {
        return fail("solver.method \"" + solver.method +
                    "\" is not a known iteration scheme (accepted: " +
                    ctmc::kMethodSpellings + ")");
    }
    if (simulation.replications < 1) {
        return fail("simulation.replications must be at least 1");
    }
    if (simulation.batch_count < 2) {
        return fail("simulation.batch_count must be at least 2");
    }
    if (simulation.warmup_time < 0.0 || !(simulation.batch_duration > 0.0)) {
        return fail("simulation warmup/batch_duration out of range");
    }
    if (!(approx.fp_tolerance > 0.0)) {
        return fail("approx.fp_tolerance must be positive");
    }
    if (!(approx.fp_damping > 0.0) || approx.fp_damping > 1.0) {
        return fail("approx.fp_damping must be in (0, 1]");
    }
    if (approx.fp_max_iterations < 1) {
        return fail("approx.fp_max_iterations must be at least 1");
    }
    if (!(approx.ode_rel_tol > 0.0) || !(approx.ode_abs_tol > 0.0)) {
        return fail("approx.ode_rel_tol/ode_abs_tol must be positive");
    }
    if (approx.ode_max_steps < 1) {
        return fail("approx.ode_max_steps must be at least 1");
    }
    if (!(approx.ode_stationary_rate > 0.0)) {
        return fail("approx.ode_stationary_rate must be positive");
    }
    if (network.cells_x < 1 || network.cells_y < 1) {
        return fail("network.cells_x/cells_y must be at least 1");
    }
    // Inline name list: the eval layer must not include network/ headers
    // (src/network/ sits above it and includes this file).
    if (network.topology != "grid4" && network.topology != "grid8" &&
        network.topology != "hex" && network.topology != "clique") {
        return fail("network.topology \"" + network.topology +
                    "\" is not a known lattice topology");
    }
    if (network.reuse_factor < 1) {
        return fail("network.reuse_factor must be at least 1");
    }
    if (network.ra_block < 0) {
        return fail("network.ra_block must be non-negative");
    }
    if (!(network.speed_kmh > 0.0) || !(network.reference_speed_kmh > 0.0)) {
        return fail("network speeds must be positive");
    }
    if (!(network.drift >= 0.0) || network.drift >= 1.0) {
        return fail("network.drift must lie in [0, 1)");
    }
    if (network.inner_backend.empty() ||
        network.inner_backend.rfind("network", 0) == 0) {
        return fail("network.inner_backend must name a single-cell backend");
    }
    if (!(network.outer_tolerance > 0.0)) {
        return fail("network.outer_tolerance must be positive");
    }
    if (!(network.outer_damping > 0.0) || network.outer_damping > 1.0) {
        return fail("network.outer_damping must be in (0, 1]");
    }
    if (network.outer_max_iterations < 1) {
        return fail("network.outer_max_iterations must be at least 1");
    }
    try {
        resolved_parameters().validate();
    } catch (const std::exception& e) {
        return fail(e.what());
    }
    return common::ok_status();
}

common::Result<std::vector<PointEvaluation>> Evaluator::evaluate_grid(
    const ScenarioQuery& base, std::span<const double> rates, const GridOptions&) {
    std::vector<PointEvaluation> points;
    points.reserve(rates.size());
    for (const double rate : rates) {
        ScenarioQuery query = base;
        query.call_arrival_rate = rate;
        common::Result<PointEvaluation> point = evaluate(query);
        if (!point.ok()) {
            return point.error();
        }
        points.push_back(point.take());
    }
    return points;
}

namespace {

/// Per-query GridOptions of a multi-grid batch: query q's grid starts at
/// flat batch index q * rates.size(), so its substream offset and progress
/// indices shift by that much. `serial` strips the pool for plan tasks
/// (they already run ON the executor's pool and must not re-enter it).
GridOptions query_options(const GridOptions& options, std::size_t query,
                          std::size_t grid_size, bool serial,
                          std::mutex* progress_mutex) {
    GridOptions adjusted = options;
    adjusted.grid_offset = options.grid_offset + query * grid_size;
    if (serial) {
        adjusted.pool = nullptr;
        adjusted.num_threads = 1;
    }
    if (options.progress) {
        const std::size_t base = query * grid_size;
        const auto inner = options.progress;
        adjusted.progress = [inner, base, progress_mutex](
                                std::size_t index, const PointEvaluation& point) {
            if (progress_mutex != nullptr) {
                // Backends lock only within one grid call; concurrent plan
                // tasks of different queries need a batch-wide lock.
                std::lock_guard<std::mutex> lock(*progress_mutex);
                inner(base + index, point);
            } else {
                inner(base + index, point);
            }
        };
    }
    return adjusted;
}

}  // namespace

std::vector<GridOutcome> Evaluator::evaluate_grids(
    std::span<const ScenarioQuery> queries, std::span<const double> rates,
    const GridOptions& options) {
    std::vector<GridOutcome> outcomes;
    outcomes.reserve(queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
        outcomes.push_back(evaluate_grid(
            queries[q], rates,
            query_options(options, q, rates.size(), /*serial=*/false, nullptr)));
    }
    return outcomes;
}

GridPlan Evaluator::plan_grids(std::span<const ScenarioQuery> queries,
                               std::span<const double> rates,
                               const GridOptions& options) {
    // Shared by the tasks and the collect closure; the executor guarantees
    // collect runs after every task, so slot writes never race with reads.
    // Queries and rates are copied in (plan execution may outlive the
    // caller's buffers).
    struct State {
        std::vector<std::optional<GridOutcome>> outcomes;
        std::vector<ScenarioQuery> queries;
        std::vector<double> rates;
        std::mutex progress_mutex;
    };
    auto state = std::make_shared<State>();
    state->outcomes.resize(queries.size());
    state->queries.assign(queries.begin(), queries.end());
    state->rates.assign(rates.begin(), rates.end());

    GridPlan plan;
    plan.tasks.reserve(queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
        const GridOptions adjusted = query_options(options, q, rates.size(),
                                                   /*serial=*/true,
                                                   &state->progress_mutex);
        plan.tasks.push_back(
            {0, [this, state, q, adjusted] {
                 // evaluate_grid's contract is "no exception escapes", so
                 // this task body needs no fence of its own.
                 state->outcomes[q].emplace(
                     evaluate_grid(state->queries[q], state->rates, adjusted));
             }});
    }
    plan.collect = [state, queries_size = queries.size()] {
        std::vector<GridOutcome> outcomes;
        outcomes.reserve(queries_size);
        for (std::optional<GridOutcome>& slot : state->outcomes) {
            if (slot.has_value()) {
                outcomes.push_back(std::move(*slot));
            } else {
                outcomes.push_back(common::EvalError{
                    common::EvalErrorCode::internal,
                    "batch executor dropped a grid task before it ran"});
            }
        }
        return outcomes;
    };
    plan.waves = plan.tasks.empty() ? 0 : 1;
    plan.sequential_waves = plan.tasks.size();
    return plan;
}

}  // namespace gprsim::eval
