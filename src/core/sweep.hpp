// Parameter sweeps over the call arrival rate — the x-axis of every
// performance figure in the paper — plus heterogeneous scenario batches,
// routed through a shared SolverEngine so independent chain solves shard
// across one thread pool.
//
// These are the model-layer primitives; multi-axis workloads (variant
// grids, warm-start-cached dense sweeps, model-vs-simulator validation,
// spec files) belong one layer up in campaign::CampaignRunner
// (campaign/runner.hpp), which the figure benches and gprsim_cli go
// through.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "ctmc/engine.hpp"
#include "ctmc/solver.hpp"
#include "core/measures.hpp"
#include "core/parameters.hpp"

namespace gprsim::core {

struct SweepPoint {
    double call_arrival_rate = 0.0;
    Measures measures;
    common::index_type iterations = 0;
    double residual = 0.0;
    double seconds = 0.0;
};

struct SweepOptions {
    ctmc::SolveOptions solve;
    /// Reuse the previous point's distribution as the next initial vector,
    /// rescaled to the new point's exact phase marginals
    /// (phase_corrected_initial). All points share one state space, so this
    /// is always well-formed. In parallel_points mode the chaining happens
    /// within each shard.
    bool warm_start = true;
    /// Shard *independent* sweep points across the engine's pool. Each of
    /// the num_threads contiguous shards is solved serially with warm-start
    /// chaining inside the shard (the points are the parallelism; every
    /// chain solve is serial). Warm-start chains
    /// restart at shard boundaries (first point of a shard is a cold
    /// start), which lands on a different approximate solution within the
    /// residual tolerance: at loose tolerances (~1e-9) sensitive tail
    /// measures such as PLP can shift in their trailing printed digits
    /// versus the serial chain. Tighten solve.tolerance when serial and
    /// parallel outputs must agree to figure precision.
    bool parallel_points = false;
    /// Execution width for sharding work items across the pool: sweep
    /// points in call_arrival_rate (only when parallel_points is true) and
    /// scenarios in sweep_scenarios (always). 0 = all hardware threads,
    /// <= 1 = serial. This is the only thread count a sweep has: the
    /// per-point solves are serial whatever solve.num_threads says.
    int num_threads = 1;
    /// Called after each completed point (index, point). In parallel_points
    /// mode this is invoked under a lock but NOT in index order.
    std::function<void(std::size_t, const SweepPoint&)> progress;
};

/// One solved heterogeneous scenario from ScenarioSweep::sweep_scenarios.
struct ScenarioPoint {
    Parameters parameters;
    Measures measures;
    common::index_type iterations = 0;
    double residual = 0.0;
    double seconds = 0.0;
};

/// Model-layer sweep driver bound to a SolverEngine.
///
///   ctmc::SolverEngine engine(8);
///   ScenarioSweep sweeps(engine);
///   auto points = sweeps.call_arrival_rate(base, rates, options);
///
/// The engine's pool is reused across calls; construct one ScenarioSweep
/// (or one engine) per workload, not per point.
class ScenarioSweep {
public:
    explicit ScenarioSweep(ctmc::SolverEngine& engine) : engine_(engine) {}

    /// Solves `base` at each arrival rate in `call_rates` (ascending order
    /// is fastest with warm starts) and returns the measures per point.
    std::vector<SweepPoint> call_arrival_rate(const Parameters& base,
                                              std::span<const double> call_rates,
                                              const SweepOptions& options = {});

    /// Solves a batch of heterogeneous scenarios (varying PDCH reservation,
    /// coding scheme, GPRS load, ...) concurrently: scenarios are claimed
    /// dynamically by the pool, one solve per scenario, each warm-started
    /// from its own product-form guess. Output order matches input order.
    /// (Model-vs-simulator validation sweeps — a chain solve plus R
    /// replications per point — live in campaign::CampaignRunner with
    /// methods {"ctmc", "des"}.)
    std::vector<ScenarioPoint> sweep_scenarios(std::span<const Parameters> scenarios,
                                               const SweepOptions& options = {});

private:
    ctmc::SolverEngine& engine_;
};

/// Convenience wrapper over ScenarioSweep on the process-wide default
/// engine; with default options this is the exact serial sweep of the seed.
std::vector<SweepPoint> sweep_call_arrival_rate(const Parameters& base,
                                                std::span<const double> call_rates,
                                                const SweepOptions& options = {});

/// Batch entry point on the default engine; see ScenarioSweep.
std::vector<ScenarioPoint> sweep_scenarios(std::span<const Parameters> scenarios,
                                           const SweepOptions& options = {});

/// Evenly spaced arrival-rate grid [first, last] with `count` points —
/// convenience for the benches (count >= 2).
std::vector<double> arrival_rate_grid(double first, double last, int count);

}  // namespace gprsim::core
