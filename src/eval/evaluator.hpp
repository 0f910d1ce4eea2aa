// The unified evaluation API: one vocabulary for "evaluate this GPRS
// scenario" regardless of how the answer is computed.
//
//   eval layer      (this file + registry.hpp + backends.hpp + batch.hpp)
//        ^ ScenarioQuery -> Evaluator::evaluate -> Result<PointEvaluation>
//          multi-grid batches: Evaluator::evaluate_grids / plan_grids,
//          merged across backends by eval::evaluate_campaign (batch.hpp);
//          string-keyed BackendRegistry; built-ins erlang / ctmc / des /
//          mm1k-approx / fixed-point / fluid / network-fp / network-des,
//          out-of-tree backends register alongside them
//   model/sim layer core::GprsModel, sim::ExperimentEngine, queueing::*
//   consumers       campaign::CampaignRunner, gprsim_cli, benches, tests,
//                   out-of-tree code via find_package(gprsim)
//
// The paper's contribution is comparing the SAME scenario across analysis
// methods (closed-form Erlang bounds, the CTMC model, the validating
// simulator); this layer makes "a way to evaluate a scenario" a first-class
// object so new routes (queueing approximations, fluid or transient
// backends) plug in without touching the campaign runner, spec parser, or
// CLI. Contract: no exception crosses evaluate() / evaluate_grid() /
// evaluate_grids() / the tasks of a plan_grids() plan — every failure
// surfaces as a typed common::EvalError inside a common::Result.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/thread_pool.hpp"
#include "core/measures.hpp"
#include "core/parameters.hpp"
#include "sim/experiment.hpp"

namespace gprsim::eval {

/// Knobs consumed by iterative (chain-solving) backends.
struct SolverKnobs {
    double tolerance = 1e-9;
    long long max_iterations = 200000;
    /// Iteration scheme: "gauss_seidel" or its second spelling "auto" (the
    /// default); both run the one serial Gauss-Seidel scheme. Any other
    /// spelling fails validated() with invalid_query.
    std::string method = "auto";
};

/// Knobs consumed by stochastic (simulating) backends.
struct SimulationKnobs {
    int replications = 4;
    std::uint64_t seed = 1;
    double warmup_time = 1500.0;
    int batch_count = 10;
    double batch_duration = 1500.0;  ///< [s]
    bool tcp = true;                 ///< TCP Reno vs open-loop sources
};

/// Knobs consumed by the large-population approximation backends
/// (fixed-point, fluid). Tolerances trade accuracy against per-point cost;
/// both backends report how hard they worked in PointEvaluation
/// iterations/residual.
struct ApproxKnobs {
    // fixed-point decomposition
    double fp_tolerance = 1e-10;  ///< max relative change of the iterate
    double fp_damping = 1.0;      ///< step fraction in (0, 1]
    int fp_max_iterations = 5000;
    // fluid ODE integrator
    double ode_rel_tol = 1e-8;
    double ode_abs_tol = 1e-10;
    long long ode_max_steps = 200000;
    /// Stationarity threshold on the scaled drift norm [1/s].
    double ode_stationary_rate = 1e-9;
};

/// Knobs consumed by the multi-cell network backends (network-fp,
/// network-des): the lattice shape, the mobility model, and the outer
/// fixed-point controls. The single-cell backends ignore the block.
struct NetworkKnobs {
    // Lattice (src/network/lattice.hpp).
    int cells_x = 2;
    int cells_y = 2;
    /// "grid4", "grid8", "hex", or "clique".
    std::string topology = "grid4";
    bool wrap = true;              ///< periodic boundary (torus)
    int reuse_factor = 1;          ///< frequency-reuse channel split
    int ra_block = 0;              ///< routing-area tile edge; 0 = one area
    // Mobility (src/network/mobility.hpp).
    double speed_kmh = 3.0;
    double reference_speed_kmh = 3.0;
    double drift = 0.0;            ///< eastward bias in [0, 1)
    // network-fp outer iteration.
    /// Single-cell backend delegated to for the per-cell solves
    /// ("ctmc", "fixed-point", "fluid", ...; never a network backend).
    std::string inner_backend = "ctmc";
    double outer_tolerance = 1e-12;
    double outer_damping = 1.0;    ///< inflow step fraction in (0, 1]
    int outer_max_iterations = 50;
};

/// One evaluable scenario point: a complete cell configuration, the load to
/// apply, and the per-backend knobs. Backends read the knob block they
/// understand and ignore the rest, so the same query can be handed to every
/// registered backend.
struct ScenarioQuery {
    /// Complete cell configuration; `parameters.call_arrival_rate` is
    /// overwritten with `call_arrival_rate` before evaluation.
    core::Parameters parameters;
    /// Combined GSM+GPRS arrival rate [calls/s]; must be positive.
    double call_arrival_rate = 0.5;

    SolverKnobs solver;
    SimulationKnobs simulation;
    ApproxKnobs approx;
    NetworkKnobs network;

    /// Checks the query without throwing: rate positive, knobs in range,
    /// and Parameters::validate() clean. The error message names the
    /// offending field and the scenario's key parameters.
    common::Status validated() const;

    /// The parameters with the query's arrival rate applied.
    core::Parameters resolved_parameters() const {
        core::Parameters p = parameters;
        p.call_arrival_rate = call_arrival_rate;
        return p;
    }
};

/// One evaluated point with its provenance: which backend produced it and
/// how hard it had to work. Iterative backends fill iterations/residual;
/// stochastic backends set has_confidence and attach the full
/// replication-pooled detail in `sim`.
struct PointEvaluation {
    std::string backend;
    double call_arrival_rate = 0.0;
    core::Measures measures;

    // --- iterative provenance -------------------------------------------
    long long iterations = 0;
    double residual = 0.0;
    /// Method the evaluation ran ("gauss_seidel" for ctmc, the inner
    /// backend for network-fp, ...) and, where a backend chose it, why.
    std::string solver_method;
    std::string solver_reason;

    // --- stochastic provenance ------------------------------------------
    /// True when `measures` are replication-pooled means and `sim` carries
    /// the 95% CI detail.
    bool has_confidence = false;
    sim::ExperimentResults sim;

    // --- network provenance (network-fp / network-des only) --------------
    /// Per-cell measures in lattice cell order; `measures` is then the
    /// network aggregate. Empty for single-cell backends.
    std::vector<core::Measures> cell_measures;
    /// network-fp: per-cell inflow residual at the final outer iteration
    /// (`iterations` counts the outer loop, `residual` its max norm).
    std::vector<double> cell_residuals;
    /// Routing-area updates per second, network-wide (0 without routing
    /// areas).
    double rau_rate = 0.0;

    double wall_seconds = 0.0;
};

/// Batch-evaluation settings for Evaluator::evaluate_grid. Sharding never
/// changes any output (the eval layer inherits the engines' bitwise
/// thread-count invariance).
struct GridOptions {
    /// Execution width: 0 = all hardware threads, <= 1 = serial.
    int num_threads = 1;
    /// Pool to shard on; nullptr (or width <= 1) evaluates serially.
    /// Not owned; must be at least num_threads wide.
    common::ThreadPool* pool = nullptr;
    /// No effect: every grid point is evaluated independently. Kept only
    /// because perfbench reads it.
    bool warm_start = true;
    /// Offset added to each point's grid index when stochastic backends
    /// derive per-task random substream blocks: the des backend uses block
    /// (grid_offset + i) * stride + r, where the stride is the batch's
    /// largest replication budget (equal to the query's own R whenever the
    /// batch shares one budget — every single-grid call and every campaign
    /// does). Callers evaluating several grids under one experiment seed
    /// (the campaign runner's variants) pass disjoint offsets so no two
    /// tasks share a substream. Multi-grid entry points (evaluate_grids /
    /// plan_grids) advance the offset by rates.size() per query
    /// themselves, so query q's point i sits on block
    /// (grid_offset + q * rates.size() + i) * stride + r.
    std::uint64_t grid_offset = 0;
    /// Invoked by iterative backends after each finished point (under a
    /// lock, NOT in grid order): grid index and the finished evaluation.
    /// Multi-grid entry points report the flat batch index
    /// q * rates.size() + i for point i of query q.
    std::function<void(std::size_t, const PointEvaluation&)> progress;
};

/// Per-query outcome of a multi-grid batch: the query's full rate grid (one
/// PointEvaluation per rate, grid order) or the typed error that stopped
/// that query. One query's failure never poisons the others' slots.
using GridOutcome = common::Result<std::vector<PointEvaluation>>;

/// One unit of a backend's batched work, contributed to a merged task set.
/// Tasks carrying the same wave may run concurrently (with any same-wave
/// task of any backend); a task may assume every task of every earlier
/// wave has finished. `run` must not throw — failures are recorded in the
/// plan's shared state and surface from GridPlan::collect.
struct BatchTask {
    std::size_t wave = 0;
    std::function<void()> run;
};

/// A backend's contribution to a (possibly multi-backend) batch, produced
/// by Evaluator::plan_grids: wave-tagged tasks plus a serial collect step.
/// The executor (eval/batch.hpp) runs the merged task set wave by wave on
/// one pool, so the narrow early waves of one grid's dependency schedule
/// interleave with other grids' wide waves, then invokes each plan's
/// collect serially. Tasks only write plan-private state captured in their
/// closures; all cross-plan coordination is the executor's wave barrier.
struct GridPlan {
    std::vector<BatchTask> tasks;
    /// Assembles the per-query outcomes. Called exactly once, serially,
    /// after every task of every merged plan has finished; performs the
    /// order-sensitive reductions (replication pooling, first-error-in-
    /// grid-order selection) so results stay thread-count-invariant.
    std::function<std::vector<GridOutcome>()> collect;
    /// Dependency depth of this plan: 1 + the largest task wave (0 when
    /// the plan has no tasks).
    std::size_t waves = 0;
    /// Waves the same work would occupy dispatched one query at a time —
    /// the number merged execution is measured against (batch.hpp's
    /// BatchStats reports both).
    std::size_t sequential_waves = 0;
};

/// "rate=0.5 calls/s, N=20 channels (1 PDCH reserved), M=50, K=100, ..." —
/// the scenario context every EvalError message embeds so a failure names
/// the point that produced it.
std::string scenario_context(const core::Parameters& parameters, double call_arrival_rate);

/// A way to evaluate a GPRS scenario. Implementations must be safe to call
/// concurrently from several threads (the built-ins are stateless between
/// calls) and must not let any exception escape the virtual entry points —
/// failures are returned as typed EvalErrors.
class Evaluator {
public:
    virtual ~Evaluator() = default;

    /// Registry key, e.g. "ctmc".
    virtual const std::string& name() const = 0;
    /// One-line human description for --list-backends.
    virtual const std::string& description() const = 0;

    /// Evaluates a single scenario point.
    virtual common::Result<PointEvaluation> evaluate(const ScenarioQuery& query) = 0;

    /// Evaluates the query at every arrival rate of an ascending grid.
    /// Returns one PointEvaluation per rate, in grid order. The default
    /// implementation loops over evaluate(); backends override it to keep
    /// their batch internals (the des backend's replication sharding, the
    /// network-fp backend's outer-iteration waves) without widening the
    /// single-point API.
    virtual common::Result<std::vector<PointEvaluation>> evaluate_grid(
        const ScenarioQuery& base, std::span<const double> rates,
        const GridOptions& options = {});

    /// Evaluates SEVERAL scenario variants over one shared rate grid in a
    /// single batch, returning one GridOutcome per query (query order).
    /// The default implementation loops over evaluate_grid, isolating each
    /// query's error in its own slot; the built-in backends override it to
    /// execute their plan_grids task set, so the points and replications
    /// of every variant share one pool instead of running grid after
    /// grid. Results are invariant to the thread count, and —
    /// for batches whose queries share one replication budget (a
    /// campaign's always do) — bitwise identical to the looped path; with
    /// unequal budgets the des backend widens its substream stride to the
    /// batch maximum to keep streams disjoint, which legitimately changes
    /// the draws versus separate evaluate_grid calls.
    virtual std::vector<GridOutcome> evaluate_grids(
        std::span<const ScenarioQuery> queries, std::span<const double> rates,
        const GridOptions& options = {});

    /// Plans the same work as evaluate_grids without executing it, as
    /// wave-tagged tasks for a merged multi-backend task set (the
    /// registry-level eval::evaluate_campaign in batch.hpp). The default
    /// implementation emits one wave-0 task per query that runs that
    /// query's whole evaluate_grid serially — correct for any backend, and
    /// already cross-query parallel; backends with internal dependency
    /// structure (network-fp) or finer task grain (ctmc, des) override it
    /// to expose per-iteration / per-point / per-replication tasks.
    /// Implementations copy queries and rates into the plan's shared
    /// state, so the caller's buffers only need to outlive this call, not
    /// the plan's execution. GridOptions::pool is ignored at planning
    /// time: tasks run wherever the executor schedules them and must
    /// therefore never touch a pool themselves.
    virtual GridPlan plan_grids(std::span<const ScenarioQuery> queries,
                                std::span<const double> rates,
                                const GridOptions& options = {});
};

}  // namespace gprsim::eval
