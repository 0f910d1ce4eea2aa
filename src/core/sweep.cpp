#include "core/sweep.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "core/initial_guess.hpp"
#include "core/model.hpp"

namespace gprsim::core {

namespace {

/// Solves one operating point and fills a SweepPoint. A non-empty
/// `warm` (the previous point's distribution) seeds the solve after
/// phase_corrected_initial; `engine` provides the solver pool.
SweepPoint solve_point(const Parameters& base, double rate, ctmc::SolveOptions solve,
                       std::vector<double> warm, ctmc::SolverEngine& engine,
                       std::vector<double>* distribution_out) {
    Parameters p = base;
    p.call_arrival_rate = rate;
    GprsModel model(p);
    if (!warm.empty()) {
        solve.initial =
            phase_corrected_initial(p, model.balanced(), model.space(), std::move(warm));
    }
    const ctmc::SolveResult& result = model.solve(solve, engine);

    SweepPoint point;
    point.call_arrival_rate = rate;
    point.measures = model.measures();
    point.iterations = result.iterations;
    point.residual = result.residual;
    point.seconds = result.seconds;
    if (distribution_out != nullptr) {
        *distribution_out = result.distribution;
    }
    return point;
}

}  // namespace

std::vector<SweepPoint> ScenarioSweep::call_arrival_rate(const Parameters& base,
                                                         std::span<const double> call_rates,
                                                         const SweepOptions& options) {
    const std::size_t count = call_rates.size();
    std::vector<SweepPoint> points(count);
    if (count == 0) {
        return points;
    }

    const int width = std::min<int>(
        ctmc::SolverEngine::resolve_thread_count(options.num_threads),
        static_cast<int>(count));
    if (!options.parallel_points || width <= 1) {
        // Serial mode: one warm-start chain across the whole grid (the seed
        // behavior, bit-identical for default options).
        std::vector<double> previous;
        for (std::size_t idx = 0; idx < count; ++idx) {
            points[idx] = solve_point(base, call_rates[idx], options.solve,
                                      std::move(previous), engine_,
                                      options.warm_start ? &previous : nullptr);
            if (options.progress) {
                options.progress(idx, points[idx]);
            }
        }
        return points;
    }

    // Parallel mode: contiguous shards, warm-start chaining inside each
    // shard (the shard is the unit of parallelism).
    const std::size_t shards = static_cast<std::size_t>(width);
    const std::size_t per_shard = (count + shards - 1) / shards;
    std::mutex progress_mutex;
    engine_.pool(width).run(
        static_cast<int>(shards),
        [&](int shard) {
            const std::size_t begin = per_shard * static_cast<std::size_t>(shard);
            const std::size_t end = std::min(begin + per_shard, count);
            std::vector<double> previous;
            for (std::size_t idx = begin; idx < end; ++idx) {
                points[idx] = solve_point(base, call_rates[idx], options.solve,
                                          std::move(previous), engine_,
                                          options.warm_start ? &previous : nullptr);
                if (options.progress) {
                    std::lock_guard<std::mutex> lock(progress_mutex);
                    options.progress(idx, points[idx]);
                }
            }
        },
        width);
    return points;
}

std::vector<ScenarioPoint> ScenarioSweep::sweep_scenarios(
    std::span<const Parameters> scenarios, const SweepOptions& options) {
    const std::size_t count = scenarios.size();
    std::vector<ScenarioPoint> points(count);
    if (count == 0) {
        return points;
    }

    const int width = std::min<int>(
        ctmc::SolverEngine::resolve_thread_count(options.num_threads),
        static_cast<int>(count));
    std::mutex progress_mutex;
    const auto solve_scenario = [&](int task) {
        const std::size_t idx = static_cast<std::size_t>(task);
        ctmc::SolveOptions solve = options.solve;
        GprsModel model(scenarios[idx]);
        const ctmc::SolveResult& result = model.solve(solve, engine_);
        ScenarioPoint& point = points[idx];
        point.parameters = scenarios[idx];
        point.measures = model.measures();
        point.iterations = result.iterations;
        point.residual = result.residual;
        point.seconds = result.seconds;
        if (options.progress) {
            SweepPoint view;
            view.call_arrival_rate = point.parameters.call_arrival_rate;
            view.measures = point.measures;
            view.iterations = point.iterations;
            view.residual = point.residual;
            view.seconds = point.seconds;
            std::lock_guard<std::mutex> lock(progress_mutex);
            options.progress(idx, view);
        }
    };
    if (width <= 1) {
        for (std::size_t idx = 0; idx < count; ++idx) {
            solve_scenario(static_cast<int>(idx));
        }
    } else {
        // Dynamic claiming load-balances heterogeneous state-space sizes;
        // the width cap keeps a wider pre-existing pool from running more
        // concurrent whole-model solves than the caller asked for.
        engine_.pool(width).run(static_cast<int>(count), solve_scenario, width);
    }
    return points;
}

std::vector<SweepPoint> sweep_call_arrival_rate(const Parameters& base,
                                                std::span<const double> call_rates,
                                                const SweepOptions& options) {
    return ScenarioSweep(ctmc::default_engine()).call_arrival_rate(base, call_rates, options);
}

std::vector<ScenarioPoint> sweep_scenarios(std::span<const Parameters> scenarios,
                                           const SweepOptions& options) {
    return ScenarioSweep(ctmc::default_engine()).sweep_scenarios(scenarios, options);
}

std::vector<double> arrival_rate_grid(double first, double last, int count) {
    if (count < 2 || last < first) {
        throw std::invalid_argument("arrival_rate_grid: need count >= 2 and last >= first");
    }
    std::vector<double> grid(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        grid[static_cast<std::size_t>(i)] =
            first + (last - first) * static_cast<double>(i) / static_cast<double>(count - 1);
    }
    return grid;
}

}  // namespace gprsim::core
