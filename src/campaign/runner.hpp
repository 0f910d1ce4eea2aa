// CampaignRunner: executes a ScenarioSpec by batching every (backend,
// variant, rate-grid) slice through the eval::BackendRegistry as ONE
// merged task set.
//
//   campaign layer   (this file + spec.hpp + sink.hpp)
//        ^ expands variants x rate grid into one eval::CampaignRequest and
//          calls the registry-level eval::evaluate_campaign (batch.hpp):
//          every backend plans its grids (plan_grids) and the merged
//          wave-ordered task set runs on the engine's shared pool, so one
//          variant's narrow warm-start waves interleave with the other
//          variants' wide waves and DES replications backfill idle solver
//          threads; pairwise deltas and summaries are post-processed
//          deterministically.
//   eval layer       eval::Evaluator / BackendRegistry / evaluate_campaign
//        ^ backends keep their batch internals: the ctmc backend plans the
//          deterministic bisection warm-start transfer schedule (deviation
//          from the product form, adopted only when it undercuts half the
//          cold start's residual — see eval/backends.cpp), the des backend
//          plans (point, replication) tasks on disjoint substream blocks
//   model/sim layer  core::GprsModel, sim::NetworkSimulator/replication
//   consumers        bench/fig*, examples/gprsim_cli ("campaign" command),
//                    out-of-tree code via find_package(gprsim)
//
// Adding an analysis route no longer touches this file: register a backend
// (eval::register_backend) and name it in the spec's "methods" list.
//
// Determinism. Backends inherit the engines' guarantees: per-point chain
// solves run single-threaded (the points are the parallelism), DES
// replication r of flat point p always draws from substream block p * R + r
// of the experiment seed (GridOptions::grid_offset keeps variants on
// disjoint blocks), and every reduction (replication pooling, deltas,
// summary totals) runs serially in point order after the parallel phase —
// so campaign output is bitwise invariant to CampaignOptions::num_threads.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "core/measures.hpp"
#include "ctmc/engine.hpp"
#include "eval/backends.hpp"
#include "sim/experiment.hpp"

namespace gprsim::campaign {

// Grid-schedule vocabulary re-exported from the eval layer (the bisection
// warm-start schedule moved into the ctmc backend with PR 4).
using eval::bisection_schedule;
using eval::SolveSchedule;

/// Measures of the campaign's first backend (the delta reference) minus
/// one other backend; all zero for the first backend itself.
struct MeasureDeltas {
    double cdt = 0.0;
    double plp = 0.0;
    double qd = 0.0;
    double atu = 0.0;
};

/// One (variant, arrival rate) cell of the campaign.
///
/// `evaluations` / `deltas` carry the full per-backend results, parallel to
/// CampaignResult::methods. The scalar fields below them are the legacy
/// two-column view the sinks and benches render: model columns come from
/// the first non-stochastic backend, sim columns from the first stochastic
/// one, and delta_* is model minus pooled simulator mean — exactly the
/// table layout the pre-registry "erlang|ctmc|des|both" campaigns produced.
struct CampaignPoint {
    std::size_t variant = 0;  ///< index into CampaignResult::variants
    std::size_t rate_index = 0;
    double call_arrival_rate = 0.0;

    std::vector<eval::PointEvaluation> evaluations;
    std::vector<MeasureDeltas> deltas;  ///< vs methods.front(), pairwise

    bool has_model = false;  ///< model columns valid
    core::Measures model;    ///< closed-form only under the erlang backend
    long long iterations = 0;
    double residual = 0.0;
    double solve_seconds = 0.0;
    /// Grid index whose deviation vector was offered as a warm-start
    /// candidate; -1 = root (product form only).
    int warm_parent = -1;
    /// Whether the transferred candidate beat the plain product form in
    /// the engine's residual comparison (always false for roots).
    bool warm_started = false;

    bool has_sim = false;  ///< sim columns valid
    sim::ExperimentResults sim;

    /// Model minus pooled simulator mean; valid when has_model && has_sim.
    double delta_cdt = 0.0;
    double delta_plp = 0.0;
    double delta_qd = 0.0;
    double delta_atu = 0.0;
};

struct CampaignOptions {
    /// Execution width for sharding tasks across the engine's pool:
    /// 0 = all hardware threads, <= 1 = serial. Never changes any output.
    int num_threads = 1;
    /// Overrides ScenarioSpec::SolverSpec::warm_start with false (the
    /// cold-start baseline the summary is compared against).
    bool force_cold = false;
    /// Non-empty: overrides ScenarioSpec::SolverSpec::method for every
    /// chain solve of the run ("gauss_seidel" or "auto"). The knob behind
    /// the CLI's --solver-method flag; any other spelling fails spec
    /// validation with a SpecError.
    std::string solver_method_override;
    /// Called after every finished chain solve (under a lock, NOT in point
    /// order): flat point index and the solved point.
    std::function<void(std::size_t, const CampaignPoint&)> solve_progress;
};

struct CampaignSummary {
    std::size_t variants = 0;
    std::size_t points = 0;
    std::size_t model_solves = 0;
    /// Solves that were offered a transferred deviation candidate, and the
    /// subset where it won the residual comparison.
    std::size_t warm_offered_solves = 0;
    std::size_t warm_started_solves = 0;
    bool warm_start = false;
    /// Summed chain-solve iterations — the number to compare between a
    /// warm-started run and a force_cold run of the same spec.
    long long total_iterations = 0;
    long long sim_replications = 0;
    std::uint64_t sim_events = 0;
    /// Merged-batch accounting: waves the
    /// flat cross-(backend, variant) task set executed vs the waves the
    /// same work needs dispatched one (backend, variant) grid at a time.
    /// batch_waves < sequential_waves is the recovered cross-variant
    /// interleaving the summary line reports.
    std::size_t batch_waves = 0;
    std::size_t sequential_waves = 0;
    /// Tasks of the merged set (chain solves + simulator replications +
    /// whole-grid closures of plain backends).
    std::size_t batch_tasks = 0;
    double wall_seconds = 0.0;
    int threads = 1;
};

struct CampaignResult {
    std::string name;
    /// Whether the spec carried a network block; gates the network axis
    /// columns in the sinks (single-cell campaigns keep the legacy layout).
    bool network = false;
    /// Backend names in evaluation (and delta-reference) order.
    std::vector<std::string> methods;
    std::vector<double> rates;
    std::vector<Variant> variants;
    /// Variant-major, rate-minor: points[v * rates.size() + r].
    std::vector<CampaignPoint> points;
    CampaignSummary summary;

    const CampaignPoint& at(std::size_t variant, std::size_t rate_index) const {
        return points[variant * rates.size() + rate_index];
    }
};

/// The expanded, execution-ready form of a spec: the effective spec (with
/// the CampaignOptions overrides folded in), its materialized variants, and
/// one ScenarioQuery per variant. This is the shared front half of every
/// campaign execution path — CampaignRunner::run and the evaluation
/// service (src/service/) both build the same workload, so a service
/// request and a one-shot CLI run evaluate literally identical queries.
struct CampaignWorkload {
    ScenarioSpec effective;
    std::vector<Variant> variants;
    std::vector<eval::ScenarioQuery> queries;  ///< parallel to `variants`

    std::size_t num_rates() const { return effective.rates.size(); }
    /// Substream/grid offset of variant v — the flat point index of its
    /// first grid point. Every caller that evaluates a variant's slice on
    /// its own (the service) must pass this as GridOptions::grid_offset so
    /// DES replications of variant v draw from the same substream blocks
    /// as in the merged batch.
    std::uint64_t grid_offset(std::size_t v) const {
        return static_cast<std::uint64_t>(v * num_rates());
    }
};

/// Applies force_cold / solver_method_override and expands the spec.
/// Throws SpecError on an invalid spec (same contract as expand()).
CampaignWorkload build_campaign_workload(const ScenarioSpec& spec,
                                         const CampaignOptions& options = {});

/// Assembles per-(backend, variant) grid outcomes — outcomes[b][v] in
/// workload.effective.methods x workload.variants order — into a finished
/// CampaignResult: per-point evaluations, pairwise deltas, the legacy
/// model/sim view, and the summary counters. The first failed outcome
/// (scanned backend-major, variant-minor) is returned as its typed error
/// with the message prefixed "campaign backend \"<name>\": ".
/// Execution-shape summary fields (threads, wall_seconds, batch_waves,
/// batch_tasks) are left zero for the caller.
common::Result<CampaignResult> assemble_campaign(
    const CampaignWorkload& workload,
    std::vector<std::vector<eval::GridOutcome>> outcomes);

/// Runs campaigns on a SolverEngine's pool; backends shard their grid tasks
/// (chain solves, simulator replications) on the same workers. Like the
/// engines, one runner should live as long as the workload.
class CampaignRunner {
public:
    explicit CampaignRunner(ctmc::SolverEngine& engine) : engine_(engine) {}

    CampaignRunner(const CampaignRunner&) = delete;
    CampaignRunner& operator=(const CampaignRunner&) = delete;

    /// Expands and executes the spec. Throws SpecError on an invalid spec
    /// and std::runtime_error when a backend reports a typed evaluation
    /// error (non-convergence, invalid query); the message carries the
    /// backend name, error code, and scenario context.
    CampaignResult run(const ScenarioSpec& spec, const CampaignOptions& options = {});

private:
    ctmc::SolverEngine& engine_;
};

/// Convenience wrapper on the process-wide default engine.
CampaignResult run_campaign(const ScenarioSpec& spec, const CampaignOptions& options = {});

}  // namespace gprsim::campaign
