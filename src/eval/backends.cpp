#include "eval/backends.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <utility>

#include "core/handover.hpp"
#include "core/model.hpp"
#include "eval/backend_util.hpp"
#include "eval/batch.hpp"
#include "queueing/mm1k.hpp"
#include "sim/experiment.hpp"

namespace gprsim::eval {

namespace {

using common::EvalError;
using common::EvalErrorCode;
// Grid scaffolding shared with the other backends (eval/backend_util.hpp).
using detail::WallClock;
using detail::check_grid;
using detail::failed_plan;
using detail::first_error;
using detail::guarded;
using detail::probe_queries;

// --- erlang ---------------------------------------------------------------

class ErlangEvaluator final : public Evaluator {
public:
    const std::string& name() const override {
        static const std::string n = "erlang";
        return n;
    }
    const std::string& description() const override {
        static const std::string d =
            "closed-form Erlang populations and blocking (Eq. 2-7); no chain solve, "
            "data-plane measures stay zero";
        return d;
    }

    common::Result<PointEvaluation> evaluate(const ScenarioQuery& query) override {
        return guarded(query, [&]() -> common::Result<PointEvaluation> {
            const WallClock clock;
            const core::Parameters p = query.resolved_parameters();
            PointEvaluation point;
            point.backend = name();
            point.call_arrival_rate = query.call_arrival_rate;
            point.measures = core::closed_form_measures(p, core::balance_handover(p));
            point.wall_seconds = clock.seconds();
            return point;
        });
    }
};

// --- ctmc -----------------------------------------------------------------

class CtmcEvaluator final : public detail::PointwiseEvaluator {
public:
    const std::string& name() const override {
        static const std::string n = "ctmc";
        return n;
    }
    const std::string& description() const override {
        static const std::string d =
            "stationary solve of the full Markov chain (Table 1) from the "
            "product-form start; exact model measures";
        return d;
    }

    common::Result<PointEvaluation> evaluate(const ScenarioQuery& query) override {
        return guarded(query, [&]() -> common::Result<PointEvaluation> {
            const core::Parameters p = query.resolved_parameters();
            core::GprsModel model(p);
            ctmc::SolveOptions solve;
            solve.tolerance = query.solver.tolerance;
            solve.max_iterations = query.solver.max_iterations;
            // validated() (via guarded) already vetted the spelling.
            solve.method = *ctmc::method_from_name(query.solver.method);
            auto solved = model.try_solve(solve, ctmc::default_engine());
            if (!solved.ok()) {
                return solved.error();
            }
            const ctmc::SolveResult& result = solved.value().get();
            PointEvaluation point;
            point.backend = name();
            point.call_arrival_rate = query.call_arrival_rate;
            point.measures = core::compute_measures(p, model.balanced(), model.space(),
                                                    result.distribution);
            point.iterations = static_cast<long long>(result.iterations);
            point.residual = result.residual;
            point.solver_method = ctmc::method_name(solve.method);
            point.wall_seconds = result.seconds;
            return point;
        });
    }
};

// --- des ------------------------------------------------------------------

/// Pooled simulator means mapped onto the model's measure vocabulary, so
/// generic consumers can compare backends field by field.
core::Measures measures_from_sim(const sim::ExperimentResults& r,
                                 const core::Parameters& p) {
    core::Measures m;
    m.carried_data_traffic = r.carried_data_traffic.mean;
    m.packet_loss_probability = r.packet_loss_probability.mean;
    m.queueing_delay = r.queueing_delay.mean;
    m.throughput_per_user_kbps = r.throughput_per_user_kbps.mean;
    m.mean_queue_length = r.mean_queue_length.mean;
    m.carried_voice_traffic = r.carried_voice_traffic.mean;
    m.average_gprs_sessions = r.average_gprs_sessions.mean;
    m.gsm_blocking = r.gsm_blocking.mean;
    m.gprs_blocking = r.gprs_blocking.mean;
    m.data_throughput_kbps =
        m.carried_data_traffic * p.pdch_rate_kbps * (1.0 - p.block_error_rate);
    return m;
}

class DesEvaluator final : public detail::PlannedEvaluator {
public:
    const std::string& name() const override {
        static const std::string n = "des";
        return n;
    }
    const std::string& description() const override {
        static const std::string d =
            "replications of the detailed network simulator, pooled into 95% "
            "confidence intervals (measures are replication means)";
        return d;
    }

    common::Result<PointEvaluation> evaluate(const ScenarioQuery& query) override {
        return guarded(query, [&]() -> common::Result<PointEvaluation> {
            const WallClock clock;
            const sim::ExperimentConfig experiment = experiment_config(query);
            const int replications = experiment.replications;
            std::vector<sim::SimulationResults> runs(
                static_cast<std::size_t>(replications));
            for (int rep = 0; rep < replications; ++rep) {
                const sim::SimulationConfig config = sim::replication_config(
                    experiment, static_cast<std::uint64_t>(rep));
                runs[static_cast<std::size_t>(rep)] = sim::NetworkSimulator(config).run();
            }
            PointEvaluation point =
                pooled_point(query, std::move(runs), /*threads_used=*/1);
            point.sim.wall_seconds = clock.seconds();
            point.wall_seconds = clock.seconds();
            return point;
        });
    }

    /// Grid planning with the experiment engine's substream discipline:
    /// replication r of query q's grid point i always draws from substream
    /// block (grid_offset + q * rates.size() + i) * stride + r of that
    /// query's experiment seed, where stride is the LARGEST replication
    /// count in the batch — so streams stay disjoint even when queries
    /// sharing one seed ask for different replication budgets (with a
    /// uniform budget the stride equals R and blocks match the historic
    /// single-grid formula exactly). Every (query, point, replication) is
    /// its own wave-0 task — replications have no dependencies, so under a
    /// merged campaign they backfill whatever solver threads the iterative
    /// backends' narrow waves leave idle. Pooling runs serially in (query,
    /// point, replication) order inside collect, so output is bitwise
    /// invariant to num_threads and to merging.
    GridPlan plan_grids(std::span<const ScenarioQuery> queries,
                        std::span<const double> rates,
                        const GridOptions& options) override {
        if (common::Status g = check_grid(rates); !g.ok()) {
            return failed_plan(queries.size(), g.error());
        }

        struct State {
            std::vector<ScenarioQuery> base;  ///< per query
            /// runs[q][i][rep], written by disjoint tasks.
            std::vector<std::vector<std::vector<sim::SimulationResults>>> runs;
            /// First error of each (q, i); several replications of one
            /// point can fail concurrently, so the slot is mutex-guarded.
            std::vector<std::vector<std::unique_ptr<EvalError>>> errors;
            std::mutex error_mutex;
            std::vector<double> rates;
        };
        const std::size_t nq = queries.size();
        const std::size_t n = rates.size();
        auto state = std::make_shared<State>();
        state->base.assign(queries.begin(), queries.end());
        state->runs.resize(nq);
        state->errors.resize(nq);
        state->rates.assign(rates.begin(), rates.end());

        // One plan task: replication `rep` of query q's point `index` on
        // substream block `block`. Never throws.
        const auto run_replication = [this, state](std::size_t q, std::size_t index,
                                                   int rep, std::uint64_t block) {
            try {
                ScenarioQuery query = state->base[q];
                query.call_arrival_rate = state->rates[index];
                const sim::ExperimentConfig experiment = experiment_config(query);
                const sim::SimulationConfig config =
                    sim::replication_config(experiment, block);
                state->runs[q][index][static_cast<std::size_t>(rep)] =
                    sim::NetworkSimulator(config).run();
            } catch (const std::exception& e) {
                std::lock_guard<std::mutex> lock(state->error_mutex);
                if (!state->errors[q][index]) {
                    state->errors[q][index] = std::make_unique<EvalError>(EvalError{
                        EvalErrorCode::internal,
                        std::string(e.what()) + " [" +
                            scenario_context(state->base[q].parameters,
                                             state->rates[index]) +
                            "]"});
                }
            }
        };

        GridPlan plan;
        const std::vector<bool> planned = probe_queries(queries, rates, state->errors);
        // Substream stride: the batch's largest replication budget, so
        // blocks of different queries never collide even with unequal
        // budgets (uniform budgets reproduce the historic R stride).
        // Computed over EVERY query — valid or not, clamped at 1 for
        // nonsense budgets — so a query's random draws never depend on
        // whether an unrelated sibling passed validation.
        std::uint64_t stride = 1;
        for (const ScenarioQuery& query : queries) {
            stride = std::max(stride, static_cast<std::uint64_t>(std::max(
                                          1, query.simulation.replications)));
        }
        for (std::size_t q = 0; q < nq; ++q) {
            if (!planned[q]) {
                continue;
            }
            const int replications = queries[q].simulation.replications;
            state->runs[q].assign(n, std::vector<sim::SimulationResults>(
                                         static_cast<std::size_t>(replications)));
            for (std::size_t index = 0; index < n; ++index) {
                for (int rep = 0; rep < replications; ++rep) {
                    const std::uint64_t block =
                        (options.grid_offset +
                         static_cast<std::uint64_t>(q * n + index)) *
                            stride +
                        static_cast<std::uint64_t>(rep);
                    plan.tasks.push_back({0, [run_replication, q, index, rep, block] {
                                              run_replication(q, index, rep, block);
                                          }});
                }
            }
        }

        // threads_used provenance follows the single-grid formula (capped
        // at that query's own task count), so a merged run reports
        // bit-identical points to a sequential per-grid one.
        const int resolved = common::ThreadPool::resolve_thread_count(options.num_threads);
        plan.collect = [this, state, nq, n, resolved] {
            std::vector<GridOutcome> outcomes;
            outcomes.reserve(nq);
            for (std::size_t q = 0; q < nq; ++q) {
                if (const EvalError* failed = first_error(state->errors[q])) {
                    outcomes.push_back(*failed);
                    continue;
                }
                const int width = std::min<int>(
                    resolved,
                    static_cast<int>(n) * state->base[q].simulation.replications);
                // This query's own simulation cost (a merged batch has no
                // meaningful per-backend wall clock), spread evenly over
                // its points like the historic grid/N attribution.
                double query_wall = 0.0;
                for (const auto& point_runs : state->runs[q]) {
                    for (const sim::SimulationResults& run : point_runs) {
                        query_wall += run.wall_seconds;
                    }
                }
                std::vector<PointEvaluation> points;
                points.reserve(n);
                for (std::size_t index = 0; index < n; ++index) {
                    ScenarioQuery query = state->base[q];
                    query.call_arrival_rate = state->rates[index];
                    points.push_back(
                        pooled_point(query, std::move(state->runs[q][index]), width));
                    points.back().wall_seconds =
                        query_wall / static_cast<double>(std::max<std::size_t>(1, n));
                }
                outcomes.push_back(std::move(points));
            }
            return outcomes;
        };
        plan.waves = plan.tasks.empty() ? 0 : 1;
        plan.sequential_waves =
            static_cast<std::size_t>(std::count(planned.begin(), planned.end(), true));
        return plan;
    }

private:
    static sim::ExperimentConfig experiment_config(const ScenarioQuery& query) {
        sim::ExperimentConfig experiment;
        experiment.base.cell = query.resolved_parameters();
        experiment.base.warmup_time = query.simulation.warmup_time;
        experiment.base.batch_count = query.simulation.batch_count;
        experiment.base.batch_duration = query.simulation.batch_duration;
        experiment.base.tcp_enabled = query.simulation.tcp;
        experiment.replications = query.simulation.replications;
        experiment.seed = query.simulation.seed;
        return experiment;
    }

    /// Pools per-replication results (replication order) into the point.
    PointEvaluation pooled_point(const ScenarioQuery& query,
                                 std::vector<sim::SimulationResults> runs,
                                 int threads_used) {
        PointEvaluation point;
        point.backend = name();
        point.call_arrival_rate = query.call_arrival_rate;
        point.sim = sim::pool_replications(std::move(runs));
        point.sim.threads_used = threads_used;
        point.measures = measures_from_sim(point.sim, query.resolved_parameters());
        point.has_confidence = true;
        return point;
    }
};

// --- mm1k-approx ----------------------------------------------------------

class Mm1kApproxEvaluator final : public Evaluator {
public:
    const std::string& name() const override {
        static const std::string n = "mm1k-approx";
        return n;
    }
    const std::string& description() const override {
        static const std::string d =
            "cheap M/M/c/K approximation of the data plane over the Erlang "
            "populations (c = mean free channels); milliseconds per point";
        return d;
    }

    common::Result<PointEvaluation> evaluate(const ScenarioQuery& query) override {
        return guarded(query, [&]() -> common::Result<PointEvaluation> {
            const WallClock clock;
            const core::Parameters p = query.resolved_parameters();
            const core::BalancedTraffic balanced = core::balance_handover(p);
            core::Measures m = core::closed_form_measures(p, balanced);

            // Data plane as M/M/c/K: c PDCHs on average remain after the
            // Erlang-carried voice traffic claims its on-demand channels
            // (never below the reservation, never above N); packets are
            // offered by the mean ON-source population of the aggregated
            // IPP. This decouples the three populations the chain couples
            // exactly — the "cheapest possible" end of the accuracy axis.
            const int servers = std::clamp(
                static_cast<int>(std::lround(static_cast<double>(p.total_channels) -
                                             m.carried_voice_traffic)),
                std::max(p.reserved_pdch, 1), p.total_channels);
            const double on_share = balanced.rates.on_admission_probability();
            const double offered =
                m.average_gprs_sessions * on_share * balanced.rates.packet_rate;
            const double mu = balanced.rates.service_rate;
            const int capacity = std::max(p.buffer_capacity, servers);
            const queueing::FiniteQueueMetrics queue =
                queueing::mmck(offered, mu, servers, capacity);

            m.carried_data_traffic = queue.throughput / mu;
            m.packet_loss_probability = queue.loss_probability;
            m.mean_queue_length = queue.mean_queue_length;
            m.queueing_delay = queue.mean_delay;
            m.offered_packet_rate = offered;
            m.data_throughput_kbps =
                queue.throughput * p.traffic.packet_size_bits / 1000.0;
            m.throughput_per_user_kbps =
                m.average_gprs_sessions > 0.0
                    ? m.data_throughput_kbps / m.average_gprs_sessions
                    : 0.0;

            PointEvaluation point;
            point.backend = name();
            point.call_arrival_rate = query.call_arrival_rate;
            point.measures = m;
            point.wall_seconds = clock.seconds();
            return point;
        });
    }
};

}  // namespace

namespace detail {

void register_builtin_backends(BackendRegistry& registry) {
    const auto add = [&](BackendRegistry::Factory make) {
        const std::unique_ptr<Evaluator> instance = make();
        // Built-in registration cannot collide (it runs once, first).
        (void)registry.add(instance->name(), instance->description(), std::move(make));
    };
    add([] { return std::make_unique<ErlangEvaluator>(); });
    add([] { return std::make_unique<CtmcEvaluator>(); });
    add([] { return std::make_unique<DesEvaluator>(); });
    add([] { return std::make_unique<Mm1kApproxEvaluator>(); });
    register_large_population_backends(registry);
    register_network_backends(registry);
}

}  // namespace detail

}  // namespace gprsim::eval
