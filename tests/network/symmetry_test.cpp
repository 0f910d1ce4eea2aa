// The network symmetry property: on a homogeneous wrapped lattice the
// doubly-stochastic mobility matrices make the paper's self-balanced
// single cell the exact fixed point of the network coupling, so every
// cell of network-fp must reproduce the single-cell ctmc solution. Also
// pins the phase API (solve_cell / advance / finish) to the serial solve()
// reference bitwise, and the typed non-convergence error.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "eval/backends.hpp"
#include "eval/registry.hpp"
#include "network/coupling.hpp"

namespace gprsim::network {
namespace {

using eval::BackendRegistry;
using eval::ScenarioQuery;

/// Tiny cell: a few thousand CTMC states, milliseconds per solve.
ScenarioQuery tiny_query() {
    ScenarioQuery query;
    query.parameters = core::Parameters::base();
    query.parameters.total_channels = 6;
    query.parameters.buffer_capacity = 10;
    query.parameters.max_gprs_sessions = 6;
    query.parameters.gprs_fraction = 0.1;
    query.call_arrival_rate = 0.5;
    query.solver.tolerance = 1e-12;
    return query;
}

double relative_gap(double a, double b) {
    const double scale = std::max({std::fabs(a), std::fabs(b), 1e-300});
    return std::fabs(a - b) / scale;
}

TEST(NetworkSymmetry, HomogeneousLatticeReproducesSingleCell) {
    ScenarioQuery query = tiny_query();
    query.network.cells_x = 2;
    query.network.cells_y = 2;

    auto single = BackendRegistry::global().find("ctmc").value()->evaluate(tiny_query());
    auto net = BackendRegistry::global().find("network-fp").value()->evaluate(query);
    ASSERT_TRUE(single.ok()) << single.error().to_string();
    ASSERT_TRUE(net.ok()) << net.error().to_string();

    const core::Measures& ref = single.value().measures;
    ASSERT_EQ(net.value().cell_measures.size(), 4u);
    for (const core::Measures& cell : net.value().cell_measures) {
        EXPECT_LE(relative_gap(cell.carried_data_traffic, ref.carried_data_traffic), 1e-10);
        EXPECT_LE(relative_gap(cell.packet_loss_probability, ref.packet_loss_probability),
                  1e-10);
        EXPECT_LE(relative_gap(cell.queueing_delay, ref.queueing_delay), 1e-10);
        EXPECT_LE(relative_gap(cell.throughput_per_user_kbps, ref.throughput_per_user_kbps),
                  1e-10);
        EXPECT_LE(relative_gap(cell.carried_voice_traffic, ref.carried_voice_traffic), 1e-10);
        EXPECT_LE(relative_gap(cell.average_gprs_sessions, ref.average_gprs_sessions), 1e-10);
    }
    // The aggregate of identical cells is the cell itself.
    EXPECT_LE(relative_gap(net.value().measures.carried_data_traffic,
                           ref.carried_data_traffic),
              1e-10);
    // The self-balanced initial inflow is already the fixed point.
    EXPECT_EQ(net.value().iterations, 1);
    EXPECT_LT(net.value().residual, 1e-10);
    ASSERT_EQ(net.value().cell_residuals.size(), 4u);
}

TEST(NetworkSymmetry, PhaseApiMatchesSerialSolveBitwise) {
    struct Case {
        const char* name;
        LatticeSpec spec;
        MobilityModel mobility;
    };
    std::vector<Case> cases(2);
    // Reuse heterogeneity forces a real outer iteration, exercising more
    // than the converge-immediately path. The pool must be odd: 7 channels
    // split 4/3 across the two reuse groups (6 would split evenly and keep
    // the lattice homogeneous).
    cases[0].name = "reuse";
    cases[0].spec.width = 2;
    cases[0].spec.height = 2;
    cases[0].spec.cell = tiny_query().resolved_parameters();
    cases[0].spec.cell.total_channels = 7;
    cases[0].spec.reuse_factor = 2;
    // Open boundary with eastward drift: edge and interior cells see
    // different inflows, so no two cells may share an inner-memo entry.
    cases[1].name = "open_drift";
    cases[1].spec.width = 3;
    cases[1].spec.height = 2;
    cases[1].spec.wrap = false;
    cases[1].spec.cell = tiny_query().resolved_parameters();
    cases[1].mobility.drift = 0.3;

    const ScenarioQuery query = tiny_query();
    eval::Evaluator& inner = *BackendRegistry::global().find("ctmc").value();
    NetworkOptions options;
    options.tolerance = 1e-10;

    for (const Case& tc : cases) {
        SCOPED_TRACE(tc.name);
        NetworkFixedPoint serial(CellLattice::build(tc.spec), tc.mobility, query, inner,
                                 options);
        auto reference = serial.solve();
        ASSERT_TRUE(reference.ok()) << reference.error().to_string();
        EXPECT_GT(reference.value().outer_iterations, 1);

        NetworkFixedPoint phased(CellLattice::build(tc.spec), tc.mobility, query, inner,
                                 options);
        InnerMemo memo(static_cast<std::size_t>(phased.cell_count()));
        while (!phased.done()) {
            // Reverse cell order: solve_cell calls within one iteration must
            // commute (they read frozen inflows, write disjoint slots).
            for (int cell = phased.cell_count() - 1; cell >= 0; --cell) {
                phased.solve_cell(cell, memo);
            }
            phased.advance();
        }
        auto result = phased.finish();
        ASSERT_TRUE(result.ok()) << result.error().to_string();

        const NetworkSolution& a = reference.value();
        const NetworkSolution& b = result.value();
        EXPECT_EQ(a.outer_iterations, b.outer_iterations);
        EXPECT_EQ(a.inner_iterations, b.inner_iterations);
        EXPECT_EQ(std::memcmp(&a.residual, &b.residual, sizeof(double)), 0);
        ASSERT_EQ(a.cells.size(), b.cells.size());
        for (std::size_t c = 0; c < a.cells.size(); ++c) {
            EXPECT_EQ(std::memcmp(&a.cells[c], &b.cells[c], sizeof(core::Measures)), 0);
        }
        EXPECT_EQ(std::memcmp(&a.aggregate, &b.aggregate, sizeof(core::Measures)), 0);
    }
}

TEST(NetworkSymmetry, OuterIterationCapYieldsTypedNonConvergence) {
    ScenarioQuery query = tiny_query();
    query.parameters.total_channels = 7;  // odd pool: the reuse split is uneven
    query.network.cells_x = 2;
    query.network.cells_y = 2;
    query.network.reuse_factor = 2;  // heterogeneous: one iteration cannot do
    query.network.outer_tolerance = 1e-15;
    query.network.outer_max_iterations = 1;
    auto point = BackendRegistry::global().find("network-fp").value()->evaluate(query);
    ASSERT_FALSE(point.ok());
    EXPECT_EQ(point.error().code, common::EvalErrorCode::non_convergence);
}

}  // namespace
}  // namespace gprsim::network
