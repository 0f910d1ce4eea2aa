// CampaignRunner: bitwise thread-count invariance of full campaign output
// (and its independence of the no-op warm_start key), model-vs-sim deltas
// under the legacy "both" (= ctmc + des) method list, multi-backend
// deltas, and the merged task set's wave accounting. Cells are kept tiny
// (N = 5..8 channels, small M and buffer) so a full campaign solves in
// well under a second.
#include "campaign/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "campaign/sink.hpp"

namespace gprsim::campaign {
namespace {

/// Small-cell spec shared by the solve tests: a heavily loaded cell (30%
/// GPRS users, rates near saturation) where the chain is strongly coupled
/// and the product-form start is far from the solution.
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
        EXPECT_EQ(std::memcmp(&pa.sim.carried_data_traffic.mean,
                              &pb.sim.carried_data_traffic.mean, sizeof(double)), 0) << i;
        EXPECT_EQ(std::memcmp(&pa.sim.queueing_delay.half_width,
                              &pb.sim.queueing_delay.half_width, sizeof(double)), 0) << i;
        EXPECT_EQ(pa.sim.events_executed, pb.sim.events_executed) << i;
        EXPECT_EQ(std::memcmp(&pa.delta_cdt, &pb.delta_cdt, sizeof(double)), 0) << i;
    }
    EXPECT_EQ(a.summary.total_iterations, b.summary.total_iterations);
    EXPECT_EQ(a.summary.sim_events, b.summary.sim_events);

    // The spec's warm_start key is accepted but has no effect: the same
    // spec with it on and off writes byte-identical CSVs.
    ScenarioSpec warm_spec = spec;
    warm_spec.solver.warm_start = true;
    ScenarioSpec cold_spec = spec;
    cold_spec.solver.warm_start = false;
    std::ostringstream warm_csv;
    std::ostringstream cold_csv;
    write_campaign_csv(runner.run(warm_spec, wide), warm_csv);
    write_campaign_csv(runner.run(cold_spec, wide), cold_csv);
    EXPECT_EQ(warm_csv.str(), cold_csv.str());
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
    // 3-backend campaign produces bitwise-identical output through the
    // merged task set at 1 and 4 threads, while the merged task set needs
    // fewer waves than the grids dispatched one at a time. network-fp is
    // the multi-wave plan: it lays out one wave per outer iteration.
    constexpr int kOuterWaves = 4;
    ctmc::SolverEngine engine;
    CampaignRunner runner(engine);
    ScenarioSpec spec = tiny_ctmc_spec();
    spec.with_methods({"ctmc", "des", "network-fp"}).over_reserved_pdch({1, 2, 3});
    NetworkSpec network;
    network.outer_max_iterations = kOuterWaves;
    spec.with_network(network);
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

    // Cross-variant interleaving: the merged task set's wave count is the
    // DEEPEST plan (network-fp's outer iterations; ctmc and des are one
    // wave each), far below the sum over every (backend, variant) grid run
    // on its own.
    EXPECT_GT(wide.summary.batch_waves, 0u);
    EXPECT_LT(wide.summary.batch_waves, wide.summary.sequential_waves);
    const std::size_t fp_depth = kOuterWaves;
    EXPECT_EQ(wide.summary.batch_waves, fp_depth);
    // 3 ctmc grids + 3 des grids + 3 network-fp grids.
    EXPECT_EQ(wide.summary.sequential_waves, 3 + 3 + 3 * fp_depth);
    // 27 solves + 27 points x 2 replications of simulator tasks + 27
    // points x 4 cells x fp_depth network-fp cell tasks.
    EXPECT_EQ(wide.summary.batch_tasks, 27u + 54u + 27u * 4u * fp_depth);
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
