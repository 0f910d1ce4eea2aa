// Solve-loop tests: the line sweep's layout contract, its one-level case
// (exactly point Gauss-Seidel, normalized after every sweep) and the
// stopping rule's residual evaluations. The line sweep's accuracy on
// multi-level GPRS cells is pinned against GTH in
// tests/core/line_solve_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "ctmc/engine.hpp"
#include "ctmc/gth.hpp"

namespace gprsim::ctmc {
namespace {

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

/// Matrix-free view over a QtMatrix with a chosen level count: same data,
/// different static type, so the engine takes the generic operator path.
struct MatrixFreeView {
    const QtMatrix* qt;
    index_type level_count = 1;

    index_type size() const { return qt->size(); }
    index_type levels() const { return level_count; }
    double diagonal(index_type i) const { return qt->diagonal(i); }
    template <typename F>
    void for_each_incoming(index_type i, F&& f) const {
        const auto cols = qt->off_diagonal().row_cols(i);
        const auto vals = qt->off_diagonal().row_values(i);
        for (std::size_t p = 0; p < cols.size(); ++p) {
            f(static_cast<index_type>(cols[p]), vals[p]);
        }
    }
};

/// `qt` (one level) rebuilt with `levels` levels: the same chain, its
/// rows in QtMatrix's stored order.
QtMatrix with_levels(const QtMatrix& qt, index_type levels) {
    const index_type n = qt.size();
    const index_type phases = n / levels;
    std::vector<Triplet> triplets;
    std::vector<double> diagonal(static_cast<std::size_t>(n));
    for (index_type i = 0; i < n; ++i) {
        const index_type s = (i % phases) * levels + i / phases;
        diagonal[static_cast<std::size_t>(s)] = qt.diagonal(i);
        qt.for_each_incoming(i, [&](index_type j, double rate) {
            triplets.push_back({s, j, rate});
        });
    }
    return QtMatrix(SparseMatrix::from_triplets(n, n, std::move(triplets)),
                    std::move(diagonal), levels);
}

/// One plain forward Gauss-Seidel sweep followed by a left-to-right
/// normalization.
void point_sweep_and_normalize(const QtMatrix& qt, std::vector<double>& x) {
    for (index_type i = 0; i < qt.size(); ++i) {
        double acc = 0.0;
        qt.for_each_incoming(i, [&](index_type j, double rate) {
            acc += rate * x[static_cast<std::size_t>(j)];
        });
        x[static_cast<std::size_t>(i)] = acc / -qt.diagonal(i);
    }
    double sum = 0.0;
    for (const double v : x) {
        sum += v;
    }
    for (double& v : x) {
        v /= sum;
    }
}

TEST(LineSweep, OneLevelIsPointGaussSeidelNormalizedEverySweepBitwise) {
    // A one-level operator's lines are single states: the engine must
    // reproduce a plain forward Gauss-Seidel loop that normalizes after
    // every sweep, bit for bit, on both the CSR and the matrix-free path.
    SolverEngine engine;
    const index_type n = 300;
    const QtMatrix qt = qt_from_triplets(n, random_chain(n, 4711));
    ASSERT_EQ(qt.levels(), 1);

    std::vector<double> x(static_cast<std::size_t>(n), 1.0 / static_cast<double>(n));
    for (index_type sweeps = 1; sweeps <= 21; ++sweeps) {
        point_sweep_and_normalize(qt, x);
        if (sweeps % 5 != 1) {
            continue;  // compare after 1, 6, 11, 16 and 21 sweeps
        }
        SolveOptions options;
        options.tolerance = 1e-300;  // never met: stop at max_iterations
        options.max_iterations = sweeps;
        const SolveResult csr = engine.solve(qt, options);
        const SolveResult generic = engine.solve(MatrixFreeView{&qt}, options);
        EXPECT_EQ(csr.iterations, sweeps);
        EXPECT_EQ(csr.distribution, x) << sweeps << " sweeps";
        EXPECT_EQ(generic.distribution, x) << sweeps << " sweeps";
        EXPECT_EQ(generic.residual, csr.residual);
        EXPECT_EQ(generic.update, csr.update);
    }
}

TEST(LineSweep, MalformedLayoutThrowsInvalidArgument) {
    SolverEngine engine;
    // Rings i -> i+1 and i -> i-1 (mod 6): every entry is 1 or 5 apart.
    const QtMatrix ring = build_qt_matrix(6, [](index_type i, auto&& emit) {
        emit((i + 1) % 6, 1.0);
        emit((i + 5) % 6, 2.0);
    });
    // The level count must divide the state count.
    EXPECT_THROW(engine.solve(MatrixFreeView{&ring, 4}), std::invalid_argument);
    EXPECT_THROW(engine.solve(MatrixFreeView{&ring, 0}), std::invalid_argument);
    // 3 levels of P = 2 or 2 levels of P = 3: no entry lies in its column.
    EXPECT_NO_THROW(engine.solve(MatrixFreeView{&ring, 3}));
    EXPECT_NO_THROW(engine.solve(MatrixFreeView{&ring, 2}));

    // A jump 0 -> 4 lies in column 0 of a 3-level, P = 2 layout, two
    // levels up.
    const QtMatrix jump = build_qt_matrix(6, [](index_type i, auto&& emit) {
        emit((i + 1) % 6, 1.0);
        if (i == 0) {
            emit(4, 0.5);
        }
    });
    EXPECT_THROW(engine.solve(MatrixFreeView{&jump, 3}), std::invalid_argument);
    EXPECT_THROW(engine.solve(with_levels(jump, 3)), std::invalid_argument);
    EXPECT_NO_THROW(engine.solve(jump));
    // A QtMatrix cannot even be built with a level count that does not
    // divide its size.
    EXPECT_THROW(QtMatrix(jump.off_diagonal(), std::vector<double>(6, -1.0), 4),
                 std::invalid_argument);

    // A state without exits cannot sit in a multi-level column.
    const QtMatrix absorbing = build_qt_matrix(4, [](index_type i, auto&& emit) {
        if (i != 3) {
            emit(i + 1, 1.0);
        }
    });
    EXPECT_THROW(engine.solve(MatrixFreeView{&absorbing, 2}), std::invalid_argument);
}

TEST(LineSweep, StoredRowsMatchTheMatrixFreePathAndGth) {
    // A random chain whose only in-column entries lie one level away, with
    // 5 levels of 12 phases: the QtMatrix path (rows stored line by line)
    // and the matrix-free path run the same arithmetic, and both reach the
    // exact solution.
    const index_type n = 60;
    const index_type levels = 5;
    const index_type phases = n / levels;
    std::vector<Triplet> triplets;
    for (const Triplet& t : random_chain(n, 99)) {
        const index_type gap = t.col - t.row;
        if (gap % phases != 0 || gap == phases || gap == -phases) {
            triplets.push_back(t);
        }
    }
    const QtMatrix one_level = qt_from_triplets(n, triplets);
    const QtMatrix stored = with_levels(one_level, levels);
    ASSERT_EQ(stored.levels(), levels);
    for (index_type i = 0; i < n; ++i) {
        EXPECT_EQ(stored.diagonal(i), one_level.diagonal(i));
    }

    SolverEngine engine;
    SolveOptions options;
    options.tolerance = 1e-14;
    const SolveResult csr = engine.solve(stored, options);
    const SolveResult generic = engine.solve(MatrixFreeView{&one_level, levels}, options);
    ASSERT_TRUE(csr.converged);
    EXPECT_EQ(csr.iterations, generic.iterations);
    EXPECT_EQ(csr.residual, generic.residual);
    EXPECT_EQ(csr.distribution, generic.distribution);

    std::vector<Triplet> generator = triplets;
    for (index_type i = 0; i < n; ++i) {
        generator.push_back({i, i, one_level.diagonal(i)});
    }
    const std::vector<double> exact = solve_gth(SparseMatrix::from_triplets(n, n, generator));
    for (index_type i = 0; i < n; ++i) {
        EXPECT_NEAR(csr.distribution[static_cast<std::size_t>(i)],
                    exact[static_cast<std::size_t>(i)], 1e-12);
    }
}

TEST(AdaptiveResidual, ProgressFiresOnlyAtResidualCheckpoints) {
    // The residual is evaluated only after a sweep whose update passed, and
    // progress fires at each evaluation: fewer calls than sweeps, at least
    // one, and the last one reports the converged residual.
    SolverEngine engine;
    const index_type n = 120;
    const QtMatrix qt = qt_from_triplets(n, random_chain(n, 29));

    SolveOptions options;
    options.tolerance = 1e-13;
    long long calls = 0;
    index_type last_sweep = 0;
    double last_residual = -1.0;
    options.progress = [&](index_type sweep, double residual) {
        ++calls;
        last_sweep = sweep;
        last_residual = residual;
    };
    const SolveResult result = engine.solve(qt, options);
    ASSERT_TRUE(result.converged);
    EXPECT_EQ(calls, result.residual_evaluations);
    EXPECT_GE(calls, 1);
    EXPECT_LT(calls, result.iterations);
    EXPECT_EQ(last_sweep, result.iterations);
    EXPECT_EQ(last_residual, result.residual);
}

TEST(AdaptiveResidual, MaxIterationsCheckpointAlwaysEvaluates) {
    // A hopeless tolerance: no update ever passes, but the run must still
    // report a residual for the sweep it stopped at.
    SolverEngine engine;
    const index_type n = 80;
    const QtMatrix qt = qt_from_triplets(n, random_chain(n, 31));
    SolveOptions options;
    options.tolerance = 1e-300;
    options.max_iterations = 47;
    const SolveResult result = engine.solve(qt, options);
    EXPECT_FALSE(result.converged);
    EXPECT_EQ(result.iterations, 47);
    EXPECT_GT(result.residual, 0.0);
    EXPECT_GT(result.update, 0.0);
    EXPECT_EQ(result.residual_evaluations, 1);
}

}  // namespace
}  // namespace gprsim::ctmc
