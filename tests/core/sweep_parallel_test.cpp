// Model-layer parallel sweep tests: sharded independent points and
// heterogeneous scenario batches must reproduce the serial results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/model.hpp"
#include "core/sweep.hpp"
#include "ctmc/engine.hpp"

namespace gprsim::core {
namespace {

Parameters small_config() {
    Parameters p = Parameters::base();
    p.total_channels = 4;
    p.reserved_pdch = 1;
    p.buffer_capacity = 6;
    p.max_gprs_sessions = 3;
    p.gprs_fraction = 0.3;
    p.traffic.mean_reading_time = 8.0;
    p.traffic.mean_packet_calls = 3.0;
    p.traffic.mean_packets_per_call = 6.0;
    p.traffic.mean_packet_interarrival = 0.4;
    return p;
}

TEST(ParallelSweep, MatchesSerialSweepPointwise) {
    const std::vector<double> rates{0.2, 0.35, 0.5, 0.65, 0.8, 0.95, 1.1};
    SweepOptions serial;
    const auto expected = sweep_call_arrival_rate(small_config(), rates, serial);

    ctmc::SolverEngine engine;
    ScenarioSweep sweeps(engine);
    SweepOptions parallel;
    parallel.parallel_points = true;
    parallel.num_threads = 3;
    const auto points = sweeps.call_arrival_rate(small_config(), rates, parallel);

    ASSERT_EQ(points.size(), expected.size());
    for (std::size_t i = 0; i < rates.size(); ++i) {
        EXPECT_DOUBLE_EQ(points[i].call_arrival_rate, rates[i]);
        EXPECT_GT(points[i].iterations, 0);
        // Warm-start chains restart at shard boundaries, so the iterates
        // differ in the last ulps; the measures must agree far tighter
        // than any figure resolution.
        EXPECT_NEAR(points[i].measures.carried_data_traffic,
                    expected[i].measures.carried_data_traffic, 1e-8);
        EXPECT_NEAR(points[i].measures.gsm_blocking, expected[i].measures.gsm_blocking,
                    1e-8);
        EXPECT_NEAR(points[i].measures.packet_loss_probability,
                    expected[i].measures.packet_loss_probability, 1e-8);
    }
}

TEST(ParallelSweep, ProgressFiresOncePerPoint) {
    const std::vector<double> rates{0.2, 0.4, 0.6, 0.8};
    ctmc::SolverEngine engine;
    ScenarioSweep sweeps(engine);
    SweepOptions options;
    options.parallel_points = true;
    options.num_threads = 2;
    std::vector<std::size_t> seen;
    options.progress = [&](std::size_t idx, const SweepPoint&) { seen.push_back(idx); };
    sweeps.call_arrival_rate(small_config(), rates, options);
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(ParallelSweep, MoreThreadsThanPointsIsFine) {
    const std::vector<double> rates{0.3, 0.6};
    ctmc::SolverEngine engine;
    ScenarioSweep sweeps(engine);
    SweepOptions options;
    options.parallel_points = true;
    options.num_threads = 8;
    const auto points = sweeps.call_arrival_rate(small_config(), rates, options);
    ASSERT_EQ(points.size(), 2u);
    EXPECT_GT(points[0].measures.carried_data_traffic, 0.0);
    EXPECT_GT(points[1].measures.gsm_blocking, points[0].measures.gsm_blocking);
}

TEST(ParallelSweep, EmptyGridReturnsEmpty) {
    ctmc::SolverEngine engine;
    ScenarioSweep sweeps(engine);
    SweepOptions options;
    options.parallel_points = true;
    options.num_threads = 4;
    EXPECT_TRUE(sweeps.call_arrival_rate(small_config(), {}, options).empty());
}

TEST(ScenarioBatch, MatchesIndividualSolves) {
    // Heterogeneous batch: PDCH reservation, GPRS share, and buffer size
    // all vary, so every scenario has its own state space.
    std::vector<Parameters> scenarios;
    for (int pdch : {1, 2}) {
        for (double fraction : {0.2, 0.4}) {
            Parameters p = small_config();
            p.reserved_pdch = pdch;
            p.gprs_fraction = fraction;
            p.buffer_capacity = 5 + pdch;
            scenarios.push_back(p);
        }
    }

    ctmc::SolverEngine engine;
    ScenarioSweep sweeps(engine);
    SweepOptions options;
    options.num_threads = 3;
    const auto points = sweeps.sweep_scenarios(scenarios, options);

    ASSERT_EQ(points.size(), scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        EXPECT_EQ(points[i].parameters.reserved_pdch, scenarios[i].reserved_pdch);
        GprsModel model(scenarios[i]);
        const Measures expected = model.measures();
        EXPECT_NEAR(points[i].measures.carried_data_traffic,
                    expected.carried_data_traffic, 1e-9);
        EXPECT_NEAR(points[i].measures.gsm_blocking, expected.gsm_blocking, 1e-9);
        EXPECT_NEAR(points[i].measures.throughput_per_user_kbps,
                    expected.throughput_per_user_kbps, 1e-7);
        EXPECT_GT(points[i].iterations, 0);
    }
}

TEST(ScenarioBatch, SerialAndParallelAgree) {
    std::vector<Parameters> scenarios;
    for (double rate : {0.3, 0.5, 0.7}) {
        Parameters p = small_config();
        p.call_arrival_rate = rate;
        scenarios.push_back(p);
    }
    ctmc::SolverEngine engine;
    ScenarioSweep sweeps(engine);
    SweepOptions serial;
    serial.num_threads = 1;
    SweepOptions parallel;
    parallel.num_threads = 4;
    const auto a = sweeps.sweep_scenarios(scenarios, serial);
    const auto b = sweeps.sweep_scenarios(scenarios, parallel);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        // Identical solver options and warm starts: bitwise equal.
        EXPECT_EQ(a[i].iterations, b[i].iterations);
        EXPECT_EQ(a[i].measures.carried_data_traffic, b[i].measures.carried_data_traffic);
    }
}

/// Bitwise comparison of every measure a point carries.
void expect_measures_bitwise_equal(const Measures& a, const Measures& b, std::size_t i) {
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(Measures)), 0) << "point " << i;
}

TEST(ParallelSweep, SolveThreadCountNeverChangesTheAnswer) {
    // SolveOptions::num_threads has no effect: a chain solve is serial
    // Gauss-Seidel whatever width it is handed, so the answer and the
    // sweep count never depend on it. The cell is tiny on purpose: no
    // state-count threshold may gate this.
    ctmc::SolverEngine engine(4);
    ctmc::SolveOptions narrow;
    narrow.tolerance = 1e-12;
    ctmc::SolveOptions wide = narrow;
    wide.num_threads = 4;
    GprsModel a(small_config());
    GprsModel b(small_config());
    const ctmc::SolveResult& one = a.solve(narrow, engine);
    const ctmc::SolveResult& four = b.solve(wide, engine);
    EXPECT_EQ(four.iterations, one.iterations);
    EXPECT_EQ(four.distribution, one.distribution);

    // A serial sweep forwards solve.num_threads into every point's solve.
    const std::vector<double> rates{0.3, 0.6, 0.9};
    ScenarioSweep sweeps(engine);
    SweepOptions serial;
    serial.solve = narrow;
    SweepOptions forwarded = serial;
    forwarded.solve.num_threads = 4;
    ASSERT_FALSE(forwarded.parallel_points);
    const auto expected = sweeps.call_arrival_rate(small_config(), rates, serial);
    const auto points = sweeps.call_arrival_rate(small_config(), rates, forwarded);
    ASSERT_EQ(points.size(), expected.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(points[i].iterations, expected[i].iterations) << "point " << i;
        expect_measures_bitwise_equal(points[i].measures, expected[i].measures, i);
    }
}

TEST(ScenarioBatch, FreeFunctionUsesDefaultEngine) {
    std::vector<Parameters> scenarios{small_config()};
    SweepOptions options;
    options.num_threads = 2;
    const auto points = sweep_scenarios(scenarios, options);
    ASSERT_EQ(points.size(), 1u);
    EXPECT_GT(points[0].measures.carried_data_traffic, 0.0);
}

}  // namespace
}  // namespace gprsim::core
