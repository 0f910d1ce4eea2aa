// The line Gauss-Seidel solve on GPRS cells: the generator's level layout,
// agreement with the exact GTH solution on both solve paths, and the
// stopping rule's demand that the update pass as well as the residual.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/generator.hpp"
#include "core/handover.hpp"
#include "core/initial_guess.hpp"
#include "ctmc/gth.hpp"
#include "traffic/threegpp.hpp"

namespace gprsim::core {
namespace {

struct Cell {
    std::string name;
    Parameters parameters;
};

Parameters cell(const traffic::TrafficModelPreset& preset, int channels, int reserved,
                int buffer, int sessions, double rate) {
    Parameters p = Parameters::with_traffic_model(preset);
    p.total_channels = channels;
    p.reserved_pdch = reserved;
    p.buffer_capacity = buffer;
    p.max_gprs_sessions = sessions;
    p.call_arrival_rate = rate;
    p.gprs_fraction = 0.3;
    p.validate();
    return p;
}

std::vector<Cell> cells() {
    return {
        {"traffic_model_1", cell(traffic::traffic_model_1(), 4, 1, 8, 3, 0.5)},
        {"traffic_model_3", cell(traffic::traffic_model_3(), 4, 2, 8, 3, 0.5)},
        // 6 phases, 61 levels.
        {"many_levels", cell(traffic::traffic_model_1(), 2, 1, 60, 1, 0.4)},
        {"overloaded", cell(traffic::traffic_model_3(), 4, 1, 10, 3, 1.5)},
    };
}

TEST(LineSolve, GeneratorDeclaresOneLevelPerBufferSlot) {
    const Parameters p = cells().front().parameters;
    const GprsGenerator generator(p, balance_handover(p).rates);
    EXPECT_EQ(generator.levels(), p.buffer_capacity + 1);
    EXPECT_EQ(generator.to_qt_matrix().levels(), p.buffer_capacity + 1);
    EXPECT_EQ(generator.size() % generator.levels(), 0);
}

TEST(LineSolve, MatchesGthOnSmallCells) {
    for (const Cell& c : cells()) {
        const BalancedTraffic balanced = balance_handover(c.parameters);
        const GprsGenerator generator(c.parameters, balanced.rates);
        const std::vector<double> exact = ctmc::solve_gth(generator.to_generator_matrix());

        ctmc::SolveOptions options;
        options.tolerance = 1e-13;
        options.initial = product_form_initial(c.parameters, balanced, generator.space());
        const ctmc::SolveResult csr = ctmc::solve_steady_state(generator.to_qt_matrix(), options);
        const ctmc::SolveResult matrix_free = ctmc::solve_steady_state(generator, options);
        ASSERT_TRUE(csr.converged) << c.name;
        ASSERT_TRUE(matrix_free.converged) << c.name;
        for (std::size_t i = 0; i < exact.size(); ++i) {
            EXPECT_NEAR(csr.distribution[i], exact[i], 1e-11 + 1e-8 * exact[i])
                << c.name << " state " << i;
            EXPECT_NEAR(matrix_free.distribution[i], exact[i], 1e-11 + 1e-8 * exact[i])
                << c.name << " state " << i;
        }
    }
}

TEST(LineSolve, ResidualPassingBeforeTheUpdateKeepsSweeping) {
    // On a GPRS cell the scaled residual meets a loose tolerance several
    // sweeps before the update does; the solve must not stop there.
    const Parameters p = cells().front().parameters;
    const BalancedTraffic balanced = balance_handover(p);
    const GprsGenerator generator(p, balanced.rates);
    const ctmc::QtMatrix qt = generator.to_qt_matrix();
    ctmc::SolveOptions options;
    options.tolerance = 1e-6;
    options.initial = product_form_initial(p, balanced, generator.space());

    const ctmc::SolveResult full = ctmc::solve_steady_state(qt, options);
    ASSERT_TRUE(full.converged);
    ASSERT_LE(full.update, options.tolerance);

    common::index_type residual_first = 0;  // first sweep whose residual passes
    for (common::index_type sweeps = 1; sweeps < full.iterations; ++sweeps) {
        ctmc::SolveOptions capped = options;
        capped.max_iterations = sweeps;
        const ctmc::SolveResult partial = ctmc::solve_steady_state(qt, capped);
        EXPECT_FALSE(partial.converged) << sweeps;
        if (partial.residual <= options.tolerance && residual_first == 0) {
            residual_first = sweeps;
            EXPECT_GT(partial.update, options.tolerance);
        }
    }
    ASSERT_GT(residual_first, 0) << "premise: the residual passes before the update";
    EXPECT_GT(full.iterations, residual_first);
}

}  // namespace
}  // namespace gprsim::core
