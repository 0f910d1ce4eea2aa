// SolverEngine tests: the one Gauss-Seidel scheme, its pool, initial-vector
// validation and the method-name vocabulary.
#include "ctmc/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "ctmc/solver.hpp"

namespace gprsim::ctmc {
namespace {

/// Random irreducible generator: a ring backbone plus random extra
/// transitions (the gth_test/solver_test fixture family).
std::vector<Triplet> random_chain(index_type n, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> rate(0.1, 10.0);
    std::uniform_int_distribution<index_type> pick(0, n - 1);
    std::vector<Triplet> triplets;
    for (index_type i = 0; i < n; ++i) {
        triplets.push_back({i, (i + 1) % n, rate(rng)});
    }
    for (index_type e = 0; e < 3 * n; ++e) {
        const index_type i = pick(rng);
        const index_type j = pick(rng);
        if (i != j) {
            triplets.push_back({i, j, rate(rng)});
        }
    }
    return triplets;
}

QtMatrix qt_from_triplets(index_type n, const std::vector<Triplet>& triplets) {
    return build_qt_matrix(n, [&](index_type i, auto&& emit) {
        for (const Triplet& t : triplets) {
            if (t.row == i) {
                emit(t.col, t.value);
            }
        }
    });
}

TEST(SolverEngine, SerialPathMatchesFreeFunctionBitwise) {
    // The solve_steady_state() facade routes through the default engine;
    // a private engine with num_threads = 1 must agree exactly.
    SolverEngine engine;
    const index_type n = 50;
    const QtMatrix qt = qt_from_triplets(n, random_chain(n, 11));

    SolveOptions options;
    options.tolerance = 1e-12;
    const SolveResult a = engine.solve(qt, options);
    const SolveResult b = solve_steady_state(qt, options);
    ASSERT_TRUE(a.converged);
    ASSERT_TRUE(b.converged);
    EXPECT_EQ(a.iterations, b.iterations);
    for (index_type i = 0; i < n; ++i) {
        EXPECT_EQ(a.distribution[static_cast<std::size_t>(i)],
                  b.distribution[static_cast<std::size_t>(i)]);
    }
}

TEST(SolverEngine, PoolGrowsButNeverShrinks) {
    SolverEngine engine;
    EXPECT_EQ(engine.pool(2).size(), 2);
    EXPECT_EQ(engine.pool(1).size(), 2);  // wide enough already
    EXPECT_EQ(engine.pool(6).size(), 6);
}

TEST(SolverEngine, ResolveThreadCount) {
    EXPECT_EQ(SolverEngine::resolve_thread_count(1), 1);
    EXPECT_EQ(SolverEngine::resolve_thread_count(5), 5);
    EXPECT_EQ(SolverEngine::resolve_thread_count(-3), 1);
    EXPECT_GE(SolverEngine::resolve_thread_count(0), 1);
}

TEST(SolverEngine, RejectsDegenerateInputsLikeTheSerialSolver) {
    SolverEngine engine;
    const QtMatrix empty;
    SolveOptions options;
    EXPECT_THROW(engine.solve(empty, options), std::invalid_argument);

    const QtMatrix qt = qt_from_triplets(10, random_chain(10, 1));
    options.initial.assign(7, 0.1);  // size mismatch
    EXPECT_THROW(engine.solve(qt, options), std::invalid_argument);
}

TEST(AutoSelect, AutoPickedSerialStaysSerialOnAWideEngine) {
    // "auto" is a second spelling of serial Gauss-Seidel, and a solve's
    // num_threads has no effect: auto at four threads on a wide engine is
    // bitwise the plain serial solve.
    SolverEngine engine(4);
    const index_type n = 90;
    const QtMatrix qt = qt_from_triplets(n, random_chain(n, 13));
    SolveOptions serial;
    serial.tolerance = 1e-12;
    const SolveResult reference = engine.solve(qt, serial);
    ASSERT_TRUE(reference.converged);

    SolveOptions wide = serial;
    wide.method = SolveMethod::auto_select;
    wide.num_threads = 4;
    const SolveResult result = engine.solve(qt, wide);
    EXPECT_EQ(result.iterations, reference.iterations);
    EXPECT_EQ(result.distribution, reference.distribution);
}

TEST(MethodNames, RoundTripThroughTheStringMapping) {
    // Both accepted spellings name the one scheme, which prints as
    // "gauss_seidel"; every removed or unknown spelling is rejected.
    for (const char* name : {"gauss_seidel", "auto"}) {
        const auto parsed = method_from_name(name);
        ASSERT_TRUE(parsed.has_value()) << name;
        EXPECT_EQ(*parsed, SolveMethod::gauss_seidel);
        EXPECT_EQ(method_name(*parsed), std::string("gauss_seidel"));
    }
    EXPECT_EQ(SolveMethod::auto_select, SolveMethod::gauss_seidel);
    for (const char* name : {"jacobi", "power", "sor", "symmetric_gauss_seidel",
                             "red_black_gauss_seidel", "bogus", ""}) {
        EXPECT_FALSE(method_from_name(name).has_value()) << name;
    }
}

TEST(SolverEngine, ConvergedResultSkipsRedundantRecomputation) {
    // After a converged check the residual must describe the returned
    // distribution: recomputing it from scratch gives the same value.
    SolverEngine engine;
    const index_type n = 40;
    const QtMatrix qt = qt_from_triplets(n, random_chain(n, 77));
    SolveOptions options;
    options.tolerance = 1e-12;
    const SolveResult result = engine.solve(qt, options);
    ASSERT_TRUE(result.converged);
    const double lambda = detail::max_exit_rate(qt);
    EXPECT_EQ(result.residual, detail::scaled_residual(qt, result.distribution, lambda));
}

}  // namespace
}  // namespace gprsim::ctmc
