// CampaignRunner: the bisection warm-start schedule, warm-vs-cold solve
// agreement (within solver tolerance) with strictly fewer total iterations,
// bitwise thread-count invariance of full campaign output, and model-vs-sim
// deltas under the legacy "both" (= ctmc + des) method list. Cells are kept
// tiny (N = 5..6 channels, small M and buffer) so a full campaign solves in
// well under a second.
#include "campaign/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

namespace gprsim::campaign {
namespace {

/// Small-cell spec shared by the solve tests. The cell is deliberately
/// heavily loaded (30% GPRS users, rates near saturation): there the
/// product-form cold start is weak and the neighbor warm start saves ~2x,
/// so the iteration-saving assertion has a wide margin. (On nearly
/// decoupled cells the product form is already near-exact and warm starts
/// only break even.)
ScenarioSpec tiny_ctmc_spec() {
    ScenarioSpec spec;
    spec.named("tiny")
        .with_method("ctmc")
        .over_reserved_pdch({1, 2})
        .over_gprs_fractions({0.3})
        .with_rate_grid(0.6, 1.0, 9)
        .with_tolerance(1e-10);
    spec.total_channels = 8;
    spec.buffer_capacity = 25;
    spec.max_gprs_sessions = {10};
    return spec;
}

TEST(BisectionSchedule, ColdStartIsOneMaximalLevel) {
    const SolveSchedule schedule = bisection_schedule(7, /*warm_start=*/false);
    ASSERT_EQ(schedule.levels.size(), 1u);
    EXPECT_EQ(schedule.levels[0].size(), 7u);
    EXPECT_TRUE(std::all_of(schedule.parent.begin(), schedule.parent.end(),
                            [](int p) { return p == -1; }));
}

TEST(BisectionSchedule, WarmStartCoversEveryPointExactlyOnce) {
    for (const std::size_t count : {1u, 2u, 3u, 8u, 9u, 64u}) {
        const SolveSchedule schedule = bisection_schedule(count, /*warm_start=*/true);
        std::vector<int> seen(count, 0);
        for (const auto& level : schedule.levels) {
            for (const int index : level) {
                ASSERT_GE(index, 0);
                ASSERT_LT(static_cast<std::size_t>(index), count);
                ++seen[static_cast<std::size_t>(index)];
            }
        }
        EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](int n) { return n == 1; }))
            << "count = " << count;
        // Only the root is cold.
        EXPECT_EQ(std::count(schedule.parent.begin(), schedule.parent.end(), -1), 1)
            << "count = " << count;
    }
}

TEST(BisectionSchedule, ParentsAreSolvedInEarlierLevels) {
    const SolveSchedule schedule = bisection_schedule(16, /*warm_start=*/true);
    std::vector<int> level_of(16, -1);
    for (std::size_t level = 0; level < schedule.levels.size(); ++level) {
        for (const int index : schedule.levels[level]) {
            level_of[static_cast<std::size_t>(index)] = static_cast<int>(level);
        }
    }
    for (std::size_t i = 0; i < 16; ++i) {
        const int parent = schedule.parent[i];
        if (parent >= 0) {
            EXPECT_LT(level_of[static_cast<std::size_t>(parent)], level_of[i]) << i;
        }
    }
    // Log-depth: 16 points need well under 16 levels.
    EXPECT_LE(schedule.levels.size(), 6u);
}

TEST(CampaignRunner, WarmStartAgreesWithColdAndSavesIterations) {
    ctmc::SolverEngine engine;
    CampaignRunner runner(engine);
    const ScenarioSpec spec = tiny_ctmc_spec();

    const CampaignResult warm = runner.run(spec);
    CampaignOptions cold_options;
    cold_options.force_cold = true;
    const CampaignResult cold = runner.run(spec, cold_options);

    ASSERT_EQ(warm.points.size(), 18u);
    ASSERT_EQ(cold.points.size(), 18u);
    EXPECT_TRUE(warm.summary.warm_start);
    EXPECT_FALSE(cold.summary.warm_start);
    EXPECT_EQ(warm.summary.model_solves, 18u);
    // Every point except each variant's root is offered a transfer, and on
    // this strongly coupled cell the transfers win their residual
    // comparisons (at least somewhere).
    EXPECT_EQ(warm.summary.warm_offered_solves, 16u);
    EXPECT_GT(warm.summary.warm_started_solves, 0u);
    EXPECT_LE(warm.summary.warm_started_solves, warm.summary.warm_offered_solves);
    EXPECT_EQ(cold.summary.warm_offered_solves, 0u);
    EXPECT_EQ(cold.summary.warm_started_solves, 0u);

    // Both runs converged to the same stationary solution. The residual
    // tolerance bounds pi Q, not the measures: sensitive ratio measures
    // (QD) inherit a ~1e4 amplification of the 1e-10 residual, so "agree"
    // here means within 1e-4, observed ~5e-6.
    for (std::size_t i = 0; i < warm.points.size(); ++i) {
        EXPECT_NEAR(warm.points[i].model.carried_data_traffic,
                    cold.points[i].model.carried_data_traffic, 1e-4);
        EXPECT_NEAR(warm.points[i].model.queueing_delay,
                    cold.points[i].model.queueing_delay, 1e-4);
        EXPECT_LE(warm.points[i].residual, spec.solver.tolerance);
    }

    // The headline acceptance: the warm-started campaign reports fewer
    // total solver iterations than the cold-start baseline.
    EXPECT_LT(warm.summary.total_iterations, cold.summary.total_iterations)
        << "warm " << warm.summary.total_iterations << " vs cold "
        << cold.summary.total_iterations;
}

TEST(CampaignRunner, OutputBitwiseInvariantToThreadCount) {
    ctmc::SolverEngine engine;
    CampaignRunner runner(engine);
    ScenarioSpec spec = tiny_ctmc_spec();
    spec.with_method("both").over_reserved_pdch({1});
    spec.simulation.replications = 2;
    spec.simulation.warmup_time = 100.0;
    spec.simulation.batch_count = 3;
    spec.simulation.batch_duration = 150.0;
    spec.simulation.seed = 7;

    CampaignOptions serial;
    serial.num_threads = 1;
    CampaignOptions wide;
    wide.num_threads = 4;
    const CampaignResult a = runner.run(spec, serial);
    const CampaignResult b = runner.run(spec, wide);

    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        const CampaignPoint& pa = a.points[i];
        const CampaignPoint& pb = b.points[i];
        // Bitwise: memcmp on the doubles, not EXPECT_DOUBLE_EQ.
        EXPECT_EQ(std::memcmp(&pa.model.carried_data_traffic,
                              &pb.model.carried_data_traffic, sizeof(double)), 0) << i;
        EXPECT_EQ(std::memcmp(&pa.model.packet_loss_probability,
                              &pb.model.packet_loss_probability, sizeof(double)), 0) << i;
        EXPECT_EQ(pa.iterations, pb.iterations) << i;
        EXPECT_EQ(pa.warm_parent, pb.warm_parent) << i;
        EXPECT_EQ(std::memcmp(&pa.sim.carried_data_traffic.mean,
                              &pb.sim.carried_data_traffic.mean, sizeof(double)), 0) << i;
        EXPECT_EQ(std::memcmp(&pa.sim.queueing_delay.half_width,
                              &pb.sim.queueing_delay.half_width, sizeof(double)), 0) << i;
        EXPECT_EQ(pa.sim.events_executed, pb.sim.events_executed) << i;
        EXPECT_EQ(std::memcmp(&pa.delta_cdt, &pb.delta_cdt, sizeof(double)), 0) << i;
    }
    EXPECT_EQ(a.summary.total_iterations, b.summary.total_iterations);
    EXPECT_EQ(a.summary.sim_events, b.summary.sim_events);
}

TEST(CampaignRunner, BothMethodFillsDeltasAndCis) {
    ctmc::SolverEngine engine;
    CampaignRunner runner(engine);
    ScenarioSpec spec = tiny_ctmc_spec();
    spec.with_method("both").over_reserved_pdch({1}).with_rate_grid(0.2, 0.4, 2);
    spec.simulation.replications = 3;
    spec.simulation.warmup_time = 100.0;
    spec.simulation.batch_count = 3;
    spec.simulation.batch_duration = 150.0;

    const CampaignResult result = runner.run(spec);
    ASSERT_EQ(result.points.size(), 2u);
    for (const CampaignPoint& point : result.points) {
        EXPECT_TRUE(point.has_model);
        EXPECT_TRUE(point.has_sim);
        EXPECT_EQ(point.sim.carried_data_traffic.batches, 3);
        EXPECT_GT(point.sim.events_executed, 0u);
        // delta is exactly model - pooled sim mean.
        EXPECT_DOUBLE_EQ(point.delta_cdt, point.model.carried_data_traffic -
                                              point.sim.carried_data_traffic.mean);
        EXPECT_DOUBLE_EQ(point.delta_qd,
                         point.model.queueing_delay - point.sim.queueing_delay.mean);
    }
    EXPECT_EQ(result.summary.sim_replications, 6);
}

TEST(CampaignRunner, MultiBackendListFillsEvaluationsAndPairwiseDeltas) {
    ctmc::SolverEngine engine;
    CampaignRunner runner(engine);
    ScenarioSpec spec = tiny_ctmc_spec();
    spec.with_methods({"ctmc", "mm1k-approx", "erlang"})
        .over_reserved_pdch({1})
        .with_rate_grid(0.6, 0.8, 3);

    const CampaignResult result = runner.run(spec);
    ASSERT_EQ(result.methods,
              (std::vector<std::string>{"ctmc", "mm1k-approx", "erlang"}));
    ASSERT_EQ(result.points.size(), 3u);
    for (const CampaignPoint& point : result.points) {
        ASSERT_EQ(point.evaluations.size(), 3u);
        ASSERT_EQ(point.deltas.size(), 3u);
        EXPECT_EQ(point.evaluations[0].backend, "ctmc");
        EXPECT_EQ(point.evaluations[1].backend, "mm1k-approx");
        EXPECT_GT(point.evaluations[0].iterations, 0);
        EXPECT_EQ(point.evaluations[2].iterations, 0);
        // Pairwise deltas reference the FIRST backend; index 0 is zero.
        EXPECT_EQ(point.deltas[0].cdt, 0.0);
        EXPECT_DOUBLE_EQ(point.deltas[1].cdt,
                         point.evaluations[0].measures.carried_data_traffic -
                             point.evaluations[1].measures.carried_data_traffic);
        EXPECT_DOUBLE_EQ(point.deltas[2].qd,
                         point.evaluations[0].measures.queueing_delay -
                             point.evaluations[2].measures.queueing_delay);
        // Legacy view: the model columns come from the first non-stochastic
        // backend (ctmc here); no stochastic backend ran.
        EXPECT_TRUE(point.has_model);
        EXPECT_FALSE(point.has_sim);
        EXPECT_DOUBLE_EQ(point.model.carried_data_traffic,
                         point.evaluations[0].measures.carried_data_traffic);
        // All three backends agree on the closed-form populations.
        EXPECT_NEAR(point.evaluations[1].measures.carried_voice_traffic,
                    point.evaluations[2].measures.carried_voice_traffic, 1e-12);
    }
    EXPECT_EQ(result.summary.model_solves, 3u);  // ctmc only
}

TEST(CampaignRunner, DesVariantsDrawFromDisjointSubstreams) {
    // Two IDENTICAL variants (a duplicated axis value) under one seed: if
    // the per-variant grids reused the same substream blocks, the two
    // variants' replications would be bit-identical copies instead of
    // independent draws.
    ctmc::SolverEngine engine;
    CampaignRunner runner(engine);
    ScenarioSpec spec = tiny_ctmc_spec();
    spec.with_method("des").over_reserved_pdch({1}).over_gprs_fractions({0.3, 0.3});
    spec.with_rates({0.6});
    spec.simulation.replications = 2;
    spec.simulation.warmup_time = 50.0;
    spec.simulation.batch_count = 3;
    spec.simulation.batch_duration = 100.0;
    spec.simulation.seed = 5;

    const CampaignResult result = runner.run(spec);
    ASSERT_EQ(result.points.size(), 2u);
    const CampaignPoint& a = result.points[0];
    const CampaignPoint& b = result.points[1];
    ASSERT_TRUE(a.has_sim);
    ASSERT_TRUE(b.has_sim);
    EXPECT_NE(a.sim.carried_data_traffic.mean, b.sim.carried_data_traffic.mean);
    EXPECT_NE(a.sim.replications[0].events_executed,
              b.sim.replications[0].events_executed);
}

TEST(CampaignRunner, ErlangMethodNeedsNoSolves) {
    ScenarioSpec spec;
    spec.named("erlang")
        .with_method("erlang")
        .over_gprs_fractions({0.02, 0.10})
        .with_rate_grid(0.1, 1.0, 4);
    const CampaignResult result = run_campaign(spec);
    ASSERT_EQ(result.points.size(), 8u);
    EXPECT_EQ(result.summary.model_solves, 0u);
    EXPECT_EQ(result.summary.total_iterations, 0);
    for (const CampaignPoint& point : result.points) {
        EXPECT_TRUE(point.has_model);
        EXPECT_FALSE(point.has_sim);
        EXPECT_GT(point.model.carried_voice_traffic, 0.0);
        // Chain-only measures stay zero under the closed-form method.
        EXPECT_EQ(point.model.carried_data_traffic, 0.0);
    }
    // More load, more blocking: sanity on the closed forms via at().
    EXPECT_GT(result.at(1, 3).model.gprs_blocking, result.at(1, 0).model.gprs_blocking);
}

/// Field-by-field bitwise comparison of two campaign points (memcmp on the
/// doubles, not EXPECT_DOUBLE_EQ) shared by the dispatch-mode tests.
void expect_points_bitwise_equal(const CampaignPoint& pa, const CampaignPoint& pb,
                                 std::size_t i) {
    EXPECT_EQ(std::memcmp(&pa.model.carried_data_traffic,
                          &pb.model.carried_data_traffic, sizeof(double)), 0) << i;
    EXPECT_EQ(std::memcmp(&pa.model.packet_loss_probability,
                          &pb.model.packet_loss_probability, sizeof(double)), 0) << i;
    EXPECT_EQ(std::memcmp(&pa.model.queueing_delay, &pb.model.queueing_delay,
                          sizeof(double)), 0) << i;
    EXPECT_EQ(pa.iterations, pb.iterations) << i;
    EXPECT_EQ(pa.warm_parent, pb.warm_parent) << i;
    EXPECT_EQ(pa.warm_started, pb.warm_started) << i;
    EXPECT_EQ(pa.has_sim, pb.has_sim) << i;
    if (pa.has_sim && pb.has_sim) {
        EXPECT_EQ(std::memcmp(&pa.sim.carried_data_traffic.mean,
                              &pb.sim.carried_data_traffic.mean, sizeof(double)), 0)
            << i;
        EXPECT_EQ(std::memcmp(&pa.sim.queueing_delay.half_width,
                              &pb.sim.queueing_delay.half_width, sizeof(double)), 0)
            << i;
        EXPECT_EQ(pa.sim.events_executed, pb.sim.events_executed) << i;
        EXPECT_EQ(std::memcmp(&pa.delta_cdt, &pb.delta_cdt, sizeof(double)), 0) << i;
    }
}

TEST(CampaignRunner, MergedBatchIsWidthInvariantAndNeedsFewerWaves) {
    // The headline acceptance of the batched path: a 3-variant,
    // 2-backend campaign produces bitwise-identical output through the
    // merged task set at 1 and 4 threads, while the merged task set needs
    // fewer waves than the grids dispatched one at a time.
    ctmc::SolverEngine engine;
    CampaignRunner runner(engine);
    ScenarioSpec spec = tiny_ctmc_spec();
    spec.with_methods({"ctmc", "des"}).over_reserved_pdch({1, 2, 3});
    spec.simulation.replications = 2;
    spec.simulation.warmup_time = 100.0;
    spec.simulation.batch_count = 3;
    spec.simulation.batch_duration = 150.0;
    spec.simulation.seed = 7;

    CampaignOptions batched4;
    batched4.num_threads = 4;
    const CampaignResult serial = runner.run(spec, CampaignOptions{});
    const CampaignResult wide = runner.run(spec, batched4);

    ASSERT_EQ(serial.points.size(), 27u);  // 3 variants x 9 rates
    ASSERT_EQ(wide.points.size(), serial.points.size());
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
        expect_points_bitwise_equal(serial.points[i], wide.points[i], i);
    }
    EXPECT_EQ(wide.summary.total_iterations, serial.summary.total_iterations);
    EXPECT_EQ(wide.summary.sim_events, serial.summary.sim_events);
    EXPECT_EQ(wide.summary.warm_started_solves, serial.summary.warm_started_solves);

    // Cross-variant interleaving: the merged task set's wave count is the
    // DEEPEST plan (ctmc's bisection schedule), far below the sum over
    // every (backend, variant) grid run on its own.
    EXPECT_GT(wide.summary.batch_waves, 0u);
    EXPECT_LT(wide.summary.batch_waves, wide.summary.sequential_waves);
    const std::size_t ctmc_depth = bisection_schedule(9, true).levels.size();
    EXPECT_EQ(wide.summary.batch_waves, ctmc_depth);
    EXPECT_EQ(wide.summary.sequential_waves, 3 * ctmc_depth + 3);  // + 3 des grids
    // 27 solves + 27 points x 2 replications of simulator tasks.
    EXPECT_EQ(wide.summary.batch_tasks, 27u + 54u);
}

TEST(CampaignRunner, ProgressCallbackSeesEverySolve) {
    ctmc::SolverEngine engine;
    CampaignRunner runner(engine);
    ScenarioSpec spec = tiny_ctmc_spec();
    CampaignOptions options;
    options.num_threads = 2;
    std::vector<int> seen(spec.point_count(), 0);
    options.solve_progress = [&](std::size_t flat, const CampaignPoint& point) {
        ASSERT_LT(flat, seen.size());
        ++seen[flat];
        EXPECT_TRUE(point.has_model);
    };
    runner.run(spec, options);
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](int n) { return n == 1; }));
}

}  // namespace
}  // namespace gprsim::campaign
