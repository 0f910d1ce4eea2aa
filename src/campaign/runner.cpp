#include "campaign/runner.hpp"

#include <chrono>
#include <utility>

#include "eval/batch.hpp"
#include "eval/registry.hpp"

namespace gprsim::campaign {

namespace {

/// Legacy two-column view: the first non-stochastic backend fills the model
/// columns, the first stochastic one the sim columns, and delta_* is model
/// minus pooled simulator mean — the exact table the pre-registry campaigns
/// produced, which keeps every sink and bench rendering unchanged.
void synthesize_legacy_view(CampaignPoint& point) {
    for (const eval::PointEvaluation& evaluation : point.evaluations) {
        if (!evaluation.has_confidence && !point.has_model) {
            point.has_model = true;
            point.model = evaluation.measures;
            point.iterations = evaluation.iterations;
            point.residual = evaluation.residual;
            point.solve_seconds = evaluation.wall_seconds;
        }
        if (evaluation.has_confidence && !point.has_sim) {
            point.has_sim = true;
            point.sim = evaluation.sim;
        }
    }
    if (point.has_model && point.has_sim) {
        point.delta_cdt =
            point.model.carried_data_traffic - point.sim.carried_data_traffic.mean;
        point.delta_plp =
            point.model.packet_loss_probability - point.sim.packet_loss_probability.mean;
        point.delta_qd = point.model.queueing_delay - point.sim.queueing_delay.mean;
        point.delta_atu = point.model.throughput_per_user_kbps -
                          point.sim.throughput_per_user_kbps.mean;
    }
}

}  // namespace

CampaignWorkload build_campaign_workload(const ScenarioSpec& spec,
                                         const CampaignOptions& options) {
    CampaignWorkload workload;
    workload.effective = spec;
    if (!options.solver_method_override.empty()) {
        workload.effective.solver.method = options.solver_method_override;
    }
    workload.variants = workload.effective.expand();  // validates the spec

    const ScenarioSpec& effective = workload.effective;
    const std::size_t num_variants = workload.variants.size();
    // One ScenarioQuery per variant; every backend reads the knob block it
    // understands from the same query list.
    workload.queries.resize(num_variants);
    for (std::size_t v = 0; v < num_variants; ++v) {
        eval::ScenarioQuery& base = workload.queries[v];
        base.parameters = workload.variants[v].parameters;
        base.solver.tolerance = effective.solver.tolerance;
        base.solver.method = effective.solver.method;
        base.simulation.replications = effective.simulation.replications;
        base.simulation.seed = effective.simulation.seed;
        base.simulation.warmup_time = effective.simulation.warmup_time;
        base.simulation.batch_count = effective.simulation.batch_count;
        base.simulation.batch_duration = effective.simulation.batch_duration;
        base.simulation.tcp = effective.simulation.tcp;
        base.approx.fp_tolerance = effective.approx.fp_tolerance;
        base.approx.fp_damping = effective.approx.fp_damping;
        base.approx.fp_max_iterations = effective.approx.fp_max_iterations;
        base.approx.ode_rel_tol = effective.approx.ode_rel_tol;
        base.approx.ode_abs_tol = effective.approx.ode_abs_tol;
        base.approx.ode_max_steps = effective.approx.ode_max_steps;
        base.approx.ode_stationary_rate = effective.approx.ode_stationary_rate;
        if (effective.network.enabled) {
            base.network.cells_x = workload.variants[v].cells_x;
            base.network.cells_y = workload.variants[v].cells_y;
            base.network.topology = effective.network.topology;
            base.network.wrap = effective.network.wrap;
            base.network.reuse_factor = workload.variants[v].reuse_factor;
            base.network.ra_block = effective.network.ra_block;
            base.network.speed_kmh = workload.variants[v].speed_kmh;
            base.network.reference_speed_kmh = effective.network.reference_speed_kmh;
            base.network.drift = effective.network.drift;
            base.network.inner_backend = effective.network.inner_backend;
            base.network.outer_tolerance = effective.network.outer_tolerance;
            base.network.outer_damping = effective.network.outer_damping;
            base.network.outer_max_iterations = effective.network.outer_max_iterations;
        }
    }
    return workload;
}

common::Result<CampaignResult> assemble_campaign(
    const CampaignWorkload& workload, std::vector<std::vector<eval::GridOutcome>> outcomes) {
    const ScenarioSpec& effective = workload.effective;
    const std::vector<double>& rates = effective.rates;
    const std::size_t num_rates = rates.size();
    const std::size_t num_variants = workload.variants.size();
    const std::size_t num_points = num_variants * num_rates;
    const std::size_t num_methods = effective.methods.size();

    CampaignResult result;
    result.name = effective.name;
    result.network = effective.network.enabled;
    result.methods = effective.methods;
    result.rates = rates;
    result.points.resize(num_points);
    for (std::size_t v = 0; v < num_variants; ++v) {
        for (std::size_t r = 0; r < num_rates; ++r) {
            CampaignPoint& point = result.points[v * num_rates + r];
            point.variant = v;
            point.rate_index = r;
            point.call_arrival_rate = rates[r];
            point.evaluations.resize(num_methods);
            point.deltas.resize(num_methods);
        }
    }

    // Store every slice, surfacing the first failure (backend-major,
    // variant-minor scan order) as its typed error.
    for (std::size_t b = 0; b < num_methods; ++b) {
        for (std::size_t v = 0; v < num_variants; ++v) {
            eval::GridOutcome& outcome = outcomes[b][v];
            if (!outcome.ok()) {
                return common::EvalError{
                    outcome.error().code,
                    "campaign backend \"" + effective.methods[b] +
                        "\": " + outcome.error().to_string()};
            }
            std::vector<eval::PointEvaluation> evaluations = outcome.take();
            for (std::size_t r = 0; r < num_rates; ++r) {
                result.points[v * num_rates + r].evaluations[b] =
                    std::move(evaluations[r]);
            }
        }
    }

    // Serial, point-ordered post-processing: pairwise deltas against the
    // first backend, the legacy model/sim view, and summary totals are all
    // independent of execution order.
    for (CampaignPoint& point : result.points) {
        const core::Measures& reference = point.evaluations.front().measures;
        for (std::size_t b = 1; b < num_methods; ++b) {
            const core::Measures& other = point.evaluations[b].measures;
            point.deltas[b] = {
                reference.carried_data_traffic - other.carried_data_traffic,
                reference.packet_loss_probability - other.packet_loss_probability,
                reference.queueing_delay - other.queueing_delay,
                reference.throughput_per_user_kbps - other.throughput_per_user_kbps,
            };
        }
        synthesize_legacy_view(point);
    }

    CampaignSummary& summary = result.summary;
    summary.variants = num_variants;
    summary.points = num_points;
    for (const CampaignPoint& point : result.points) {
        for (const eval::PointEvaluation& evaluation : point.evaluations) {
            if (evaluation.iterations > 0) {
                ++summary.model_solves;
                summary.total_iterations += evaluation.iterations;
            }
            if (evaluation.has_confidence) {
                summary.sim_replications +=
                    static_cast<long long>(evaluation.sim.replications.size());
                summary.sim_events += evaluation.sim.events_executed;
            }
        }
    }
    result.variants = workload.variants;
    return result;
}

CampaignResult CampaignRunner::run(const ScenarioSpec& spec, const CampaignOptions& options) {
    const auto t0 = std::chrono::steady_clock::now();
    CampaignWorkload workload = build_campaign_workload(spec, options);
    const ScenarioSpec& effective = workload.effective;
    const std::vector<double>& rates = effective.rates;
    const std::size_t num_rates = rates.size();

    const int width = common::ThreadPool::resolve_thread_count(options.num_threads);
    common::ThreadPool* pool = width > 1 ? &engine_.pool(width) : nullptr;

    eval::GridOptions grid;
    grid.num_threads = width;
    grid.pool = pool;
    if (options.solve_progress) {
        // Progress reports the flat batch index v * num_rates + r.
        grid.progress = [&options, num_rates](std::size_t flat,
                                              const eval::PointEvaluation& evaluation) {
            CampaignPoint snapshot;
            snapshot.variant = flat / num_rates;
            snapshot.rate_index = flat % num_rates;
            snapshot.call_arrival_rate = evaluation.call_arrival_rate;
            snapshot.has_model = true;
            snapshot.model = evaluation.measures;
            snapshot.iterations = evaluation.iterations;
            snapshot.residual = evaluation.residual;
            snapshot.solve_seconds = evaluation.wall_seconds;
            options.solve_progress(flat, snapshot);
        };
    }

    // Merged batch: every backend plans its (variant, rate[, replication])
    // work and eval::evaluate_campaign runs the union as one flat
    // wave-ordered task set on the engine's pool. Each plan writes a
    // disjoint slice of the point table, so output stays a pure function
    // of the spec at every width.
    eval::CampaignRequest request;
    request.backends = effective.methods;
    request.queries = workload.queries;
    request.rates = rates;
    auto evaluated = eval::evaluate_campaign(eval::BackendRegistry::global(), request, grid);
    if (!evaluated.ok()) {
        throw SpecError(evaluated.error().message, 0);
    }
    eval::CampaignEvaluation evaluation = evaluated.take();

    auto assembled = assemble_campaign(workload, std::move(evaluation.outcomes));
    if (!assembled.ok()) {
        throw std::runtime_error(assembled.error().message);
    }
    CampaignResult result = assembled.take();
    result.summary.batch_waves = evaluation.stats.waves;
    result.summary.sequential_waves = evaluation.stats.sequential_waves;
    result.summary.batch_tasks = evaluation.stats.tasks;
    result.summary.threads = width;
    result.summary.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return result;
}

CampaignResult run_campaign(const ScenarioSpec& spec, const CampaignOptions& options) {
    return CampaignRunner(ctmc::default_engine()).run(spec, options);
}

}  // namespace gprsim::campaign
