// Solver microbench backing the paper's methodological claim (Section 1):
// "sensitive performance measures can be computed on a modern PC within few
// minutes of CPU solution time".
//
// The harness solves the Fig. 10 chain once with the engine's one
// iteration scheme (serial Gauss-Seidel from the product-form warm start),
// reporting wall time, sweeps and residual passes; then times the
// large-population approximations on a cell far beyond the exact chain,
// and the merged batched dispatch of two multi-variant campaigns. Records
// land in BENCH_solver.json (--json=PATH to override) so later changes can
// diff the perf trajectory.
//
//   micro_solver [--full] [--m=N] [--threads=N] [--json=PATH] [--no-campaign]
//
// --threads sets the campaign width (0 = every hardware thread; with no
// flag min(8, 2 x hardware threads)); the chain solve itself is always
// serial. The quick default solves M = 10 (~130k states, finishes in
// seconds); --full solves the Fig. 10 mid-size configuration M = 100
// (~10 million states); --m=N picks any session cap in between. The
// campaign timing section (a few seconds) runs by default; --no-campaign
// skips it when iterating on the solver kernels alone.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/thread_pool.hpp"
#include "eval/evaluator.hpp"
#include "eval/registry.hpp"
#include "core/handover.hpp"
#include "core/initial_guess.hpp"
#include "core/model.hpp"
#include "ctmc/engine.hpp"
#include "traffic/threegpp.hpp"

namespace {

using namespace gprsim;

core::Parameters fig10_parameters(int max_sessions) {
    // Fig. 10 operating point: traffic model 1, 2 reserved PDCHs, 5% GPRS.
    core::Parameters p = core::Parameters::with_traffic_model(traffic::traffic_model_1());
    p.reserved_pdch = 2;
    p.gprs_fraction = 0.05;
    p.max_gprs_sessions = max_sessions;
    p.call_arrival_rate = 0.5;
    return p;
}

}  // namespace

int main(int argc, char** argv) try {
    const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
    const int hw = common::ThreadPool::hardware_threads();
    // Repo-wide --threads semantics for the campaign width: 0 = all
    // hardware threads, N = N; with no flag min(8, 2*hw).
    int m_sessions = args.full ? 100 : 10;
    bool run_campaign = true;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--m=", 4) == 0) {
            m_sessions = std::atoi(argv[i] + 4);
        } else if (std::strcmp(argv[i], "--no-campaign") == 0) {
            run_campaign = false;
        }
    }
    const int campaign_threads = args.threads_given
                                ? ctmc::SolverEngine::resolve_thread_count(args.threads)
                                : std::min(8, 2 * hw);

    bench::print_header("micro_solver -- steady-state engine and campaign dispatch");
    std::printf("hardware threads: %d, campaign width: %d\n", hw, campaign_threads);

    const core::Parameters p = fig10_parameters(m_sessions);
    const core::BalancedTraffic balanced = core::balance_handover(p);
    const core::GprsGenerator generator(p, balanced.rates);
    const std::vector<double> initial =
        core::product_form_initial(p, balanced, generator.space());

    bench::WallTimer build_timer;
    const ctmc::QtMatrix qt = generator.to_qt_matrix();
    std::printf("case: Fig. 10 %s (M = %d): %lld states, %lld transitions, "
                "CSR build %.2f s\n",
                args.full ? "mid-size" : "quick", m_sessions,
                static_cast<long long>(qt.size()),
                static_cast<long long>(qt.off_diagonal().nonzeros()),
                build_timer.seconds());

    // No prewarm: the pool spawns for the campaign section, so the solve
    // is never timed against spinning pool workers — on a 1-core CI box
    // that contention inflates the serial wall time by ~25%.
    ctmc::SolverEngine engine;
    bench::BenchJsonWriter json;
    const std::string case_name =
        "fig10_M" + std::to_string(m_sessions);

    ctmc::SolveOptions options;
    options.tolerance = 1e-14;  // the tolerance of the committed records
    options.initial = initial;
    const ctmc::SolveResult solved = engine.solve(qt, options);
    std::printf("\n%-26s %7s %9s %10s\n", "method", "threads", "sweeps", "seconds");
    std::printf("%-26s %7d %9lld %10.3f\n", "gauss_seidel", 1,
                static_cast<long long>(solved.iterations), solved.seconds);
    json.add({.name = case_name,
              .states = static_cast<long long>(qt.size()),
              .method = "gauss_seidel",
              .threads = 1,
              .seconds = solved.seconds,
              .iterations = static_cast<long long>(solved.iterations),
              .residual = solved.residual,
              .residual_evaluations =
                  static_cast<long long>(solved.residual_evaluations)});

    // Large-population approximations: one point of the
    // campaigns/large_population.json cell (4096 channels, 1000 reserved
    // PDCHs, K = 1000, M = 10^6 sessions) per approximate backend, where
    // the exact chain is out of reach by orders of magnitude. `states`
    // records the nominal exact-chain size as the (K+1) x (N+1) x (M+1)
    // product bound over the queue/voice/session dimensions — the number
    // the milliseconds-per-point wall times should be read against.
    {
        eval::ScenarioQuery query;
        query.parameters =
            core::Parameters::with_traffic_model(traffic::traffic_model_1());
        query.parameters.total_channels = 4096;
        query.parameters.reserved_pdch = 1000;
        query.parameters.buffer_capacity = 1000;
        query.parameters.max_gprs_sessions = 1000000;
        query.parameters.gprs_fraction = 0.999;
        query.parameters.flow_control_threshold = 0.7;
        query.call_arrival_rate = 400.0;
        const long long nominal_states =
            static_cast<long long>(query.parameters.buffer_capacity + 1) *
            static_cast<long long>(query.parameters.total_channels + 1) *
            static_cast<long long>(query.parameters.max_gprs_sessions + 1);
        std::printf("\nlarge-population cell: N = %d, PDCH = %d, K = %d, M = %d "
                    "(~%.1e nominal exact states)\n",
                    query.parameters.total_channels, query.parameters.reserved_pdch,
                    query.parameters.buffer_capacity,
                    query.parameters.max_gprs_sessions,
                    static_cast<double>(nominal_states));
        for (const char* backend_name : {"fixed-point", "fluid"}) {
            auto found = eval::BackendRegistry::global().find(backend_name);
            if (!found.ok()) {
                std::fprintf(stderr, "WARNING: backend %s not registered\n",
                             backend_name);
                continue;
            }
            bench::WallTimer approx_timer;
            auto point = found.value()->evaluate(query);
            const double seconds = approx_timer.seconds();
            if (!point.ok()) {
                std::fprintf(stderr, "WARNING: %s failed on the large cell: %s\n",
                             backend_name, point.error().to_string().c_str());
                continue;
            }
            std::printf("%-26s %7d %9lld %10.3f %12s %12s\n", backend_name, 1,
                        point.value().iterations, seconds, "-", "-");
            json.add({.name = "large_population_M1e6",
                      .states = nominal_states,
                      .method = backend_name,
                      .threads = 1,
                      .seconds = seconds,
                      .iterations = point.value().iterations,
                      .residual = point.value().residual});
        }
    }

    // Multi-variant campaign: the merged cross-variant task set (one
    // independent task per chain point and per DES replication, all in one
    // wave). The record tracks wall time; the summary's wave counts show
    // the merge against one grid per (backend, variant).
    if (!run_campaign) {
        json.write(args.json.empty() ? "BENCH_solver.json" : args.json);
        return 0;
    }
    campaign::ScenarioSpec spec;
    spec.named("micro_campaign")
        .with_methods({"ctmc", "des"})
        .over_reserved_pdch({1, 2, 3})
        .over_gprs_fractions({0.3})
        .with_rate_grid(0.6, 1.0, 9)
        .with_tolerance(1e-10);
    spec.total_channels = 8;
    spec.buffer_capacity = 25;
    spec.max_gprs_sessions = {10};
    spec.simulation.replications = 2;
    spec.simulation.warmup_time = 100.0;
    spec.simulation.batch_count = 3;
    spec.simulation.batch_duration = 150.0;

    campaign::CampaignRunner campaign_runner(engine);
    campaign::CampaignOptions batched;
    batched.num_threads = campaign_threads;
    bench::WallTimer campaign_timer;
    const campaign::CampaignResult bat = campaign_runner.run(spec, batched);
    const double bat_seconds = campaign_timer.seconds();

    std::printf("\ncampaign: 3 variants x 9 rates x (ctmc + des, 2 replications), "
                "%d threads\n", bat.summary.threads);
    std::printf("  merged batch: %.3f s (%zu waves, %zu tasks; %zu waves one grid "
                "at a time)\n",
                bat_seconds, bat.summary.batch_waves, bat.summary.batch_tasks,
                bat.summary.sequential_waves);
    json.add({.name = "campaign_3var_ctmc_des",
              .states = static_cast<long long>(bat.summary.points),
              .dispatch = "batched",
              .threads = bat.summary.threads,
              .seconds = bat_seconds,
              .iterations = bat.summary.total_iterations});

    // Network scaling: the campaigns/network_scaling.json study rebuilt
    // programmatically (1 -> 16 cells x 3 mobility speeds through the
    // analytic network fixed point, ctmc inner solves). Every lattice's
    // inner solves land on the shared pool as one flat wave-ordered task
    // set and go through the plan's one inner-solve memo, so the
    // identical cells of all 60 points cost 12 chain solves; this record
    // tracks what the merge and the memo leave of the sweep.
    campaign::ScenarioSpec net_spec;
    net_spec.named("network_scaling")
        .with_methods({"network-fp"})
        .over_reserved_pdch({1})
        .over_gprs_fractions({0.1})
        .with_rate_grid(0.3, 0.9, 4)
        .with_tolerance(1e-10);
    net_spec.total_channels = 8;
    net_spec.buffer_capacity = 15;
    net_spec.max_gprs_sessions = {10};
    campaign::NetworkSpec net;
    net.cell_counts = {1, 2, 4, 8, 16};
    net.speeds_kmh = {3.0, 30.0, 120.0};
    net.ra_block = 1;
    net.outer_tolerance = 1e-12;
    net.outer_max_iterations = 100;
    net_spec.with_network(net);

    campaign_timer.reset();
    const campaign::CampaignResult net_bat = campaign_runner.run(net_spec, batched);
    const double net_bat_seconds = campaign_timer.seconds();

    std::printf("\nnetwork scaling: 15 lattices (1-16 cells x 3 speeds) x 4 rates, "
                "network-fp, %d threads\n", net_bat.summary.threads);
    std::printf("  merged batch: %.3f s (%zu waves, %zu tasks; %zu waves one grid "
                "at a time)\n",
                net_bat_seconds, net_bat.summary.batch_waves,
                net_bat.summary.batch_tasks, net_bat.summary.sequential_waves);
    json.add({.name = "network_scaling_fp",
              .states = static_cast<long long>(net_bat.summary.points),
              .dispatch = "batched",
              .threads = net_bat.summary.threads,
              .seconds = net_bat_seconds,
              .iterations = net_bat.summary.total_iterations});

    json.write(args.json.empty() ? "BENCH_solver.json" : args.json);
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "micro_solver: %s\n", e.what());
    return 1;
}
