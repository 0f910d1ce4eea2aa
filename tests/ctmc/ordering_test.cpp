// Row-ordering tests: permutation helpers, QtMatrix reindexing, and the
// engine's permuted-solve path. The headline property is the scramble
// round trip: permuting a matrix by sigma and solving it with
// options.permutation = sigma^-1 makes the engine's internal system
// EXACTLY the original matrix (permute(permute(A, s), s^-1) = A entry for
// entry), so the sweeps — and the returned distribution, after the
// engine's inverse mapping — are bitwise identical to the direct solve.
#include "ctmc/ordering.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "ctmc/engine.hpp"

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

std::vector<index_type> shuffled_order(index_type n, std::uint64_t seed) {
    std::vector<index_type> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), index_type{0});
    std::mt19937_64 rng(seed);
    std::shuffle(order.begin(), order.end(), rng);
    return order;
}

TEST(Ordering, IdentityAndValidationHelpers) {
    EXPECT_TRUE(is_identity_permutation(std::vector<index_type>{}));
    EXPECT_TRUE(is_identity_permutation(std::vector<index_type>{0, 1, 2}));
    EXPECT_FALSE(is_identity_permutation(std::vector<index_type>{0, 2, 1}));

    EXPECT_NO_THROW(validate_permutation(std::vector<index_type>{2, 0, 1}, 3));
    EXPECT_THROW(validate_permutation(std::vector<index_type>{0, 1}, 3),
                 std::invalid_argument);
    EXPECT_THROW(validate_permutation(std::vector<index_type>{0, 0, 1}, 3),
                 std::invalid_argument);
    EXPECT_THROW(validate_permutation(std::vector<index_type>{0, 1, 3}, 3),
                 std::invalid_argument);
}

TEST(Ordering, InversePermutationRoundTripsVectors) {
    const std::vector<index_type> order{3, 0, 2, 1};
    const std::vector<index_type> inverse = inverse_permutation(order);
    for (std::size_t p = 0; p < order.size(); ++p) {
        EXPECT_EQ(inverse[static_cast<std::size_t>(order[p])],
                  static_cast<index_type>(p));
    }
    const std::vector<double> x{10.0, 11.0, 12.0, 13.0};
    EXPECT_EQ(inverse_permute_vector(permute_vector(x, order), order), x);
    EXPECT_EQ(permute_vector(inverse_permute_vector(x, order), order), x);
}

TEST(Ordering, PermutedMatrixMatchesEntrywise) {
    const index_type n = 23;
    const QtMatrix qt = qt_from_triplets(n, random_chain(n, 7));
    const std::vector<index_type> order = shuffled_order(n, 8);
    const QtMatrix permuted = permute_qt_matrix(qt, order);
    ASSERT_EQ(permuted.size(), n);
    for (index_type p = 0; p < n; ++p) {
        EXPECT_EQ(permuted.diagonal(p), qt.diagonal(order[static_cast<std::size_t>(p)]));
        for (index_type q = 0; q < n; ++q) {
            EXPECT_EQ(permuted.off_diagonal().at(p, q),
                      qt.off_diagonal().at(order[static_cast<std::size_t>(p)],
                                           order[static_cast<std::size_t>(q)]))
                << "entry (" << p << ", " << q << ")";
        }
    }
}

TEST(Ordering, PermuteThenInverseRestoresTheMatrixExactly) {
    const index_type n = 31;
    const QtMatrix qt = qt_from_triplets(n, random_chain(n, 11));
    const std::vector<index_type> order = shuffled_order(n, 12);
    const QtMatrix round =
        permute_qt_matrix(permute_qt_matrix(qt, order), inverse_permutation(order));
    const SparseMatrix& a = qt.off_diagonal();
    const SparseMatrix& b = round.off_diagonal();
    ASSERT_EQ(b.nonzeros(), a.nonzeros());
    for (index_type i = 0; i < n; ++i) {
        EXPECT_EQ(round.diagonal(i), qt.diagonal(i));
        const auto ac = a.row_cols(i);
        const auto bc = b.row_cols(i);
        ASSERT_EQ(bc.size(), ac.size()) << "row " << i;
        for (std::size_t p = 0; p < ac.size(); ++p) {
            EXPECT_EQ(bc[p], ac[p]);
            EXPECT_EQ(b.row_values(i)[p], a.row_values(i)[p]);
        }
    }
}

/// The solver-facing round trip: scramble A into B = permute(A, s), then
/// solve B with permutation = s^-1. The engine's internal matrix is then
/// exactly A, its sweeps are the direct solve's sweeps, and the returned
/// distribution must be the direct solve's distribution relabeled into B's
/// indexing — bitwise, not approximately.
TEST(Ordering, ScrambledSolveWithInverseOrderingIsBitwiseExact) {
    const index_type n = 150;
    const QtMatrix qt = qt_from_triplets(n, random_chain(n, 21));
    const std::vector<index_type> order = shuffled_order(n, 22);
    const QtMatrix scrambled = permute_qt_matrix(qt, order);

    SolveOptions options;
    options.tolerance = 1e-12;
    const SolveResult direct = default_engine().solve(qt, options);
    ASSERT_TRUE(direct.converged);

    SolveOptions unscramble = options;
    unscramble.permutation = inverse_permutation(order);
    const SolveResult via = default_engine().solve(scrambled, unscramble);
    ASSERT_TRUE(via.converged);

    EXPECT_EQ(via.iterations, direct.iterations);
    EXPECT_EQ(via.residual, direct.residual);
    EXPECT_EQ(via.residual_evaluations, direct.residual_evaluations);
    for (index_type p = 0; p < n; ++p) {
        // B-state p is A-state order[p].
        EXPECT_EQ(via.distribution[static_cast<std::size_t>(p)],
                  direct.distribution[static_cast<std::size_t>(
                      order[static_cast<std::size_t>(p)])])
            << "state " << p;
    }
}

TEST(Ordering, IdentityPermutationIsSkippedBitwise) {
    const index_type n = 80;
    const QtMatrix qt = qt_from_triplets(n, random_chain(n, 31));
    SolveOptions plain;
    plain.tolerance = 1e-12;
    SolveOptions with_identity = plain;
    with_identity.permutation.resize(static_cast<std::size_t>(n));
    std::iota(with_identity.permutation.begin(), with_identity.permutation.end(),
              index_type{0});
    const SolveResult a = default_engine().solve(qt, plain);
    const SolveResult b = default_engine().solve(qt, with_identity);
    EXPECT_EQ(b.distribution, a.distribution);
    EXPECT_EQ(b.iterations, a.iterations);
    EXPECT_EQ(b.residual, a.residual);
}

/// A minimal matrix-free QtOperatorConcept model: a 3-state ring. (Local
/// classes cannot hold the member template the concept needs.)
struct RingOp {
    index_type size() const { return 3; }
    double diagonal(index_type) const { return -1.0; }
    template <typename F>
    void for_each_incoming(index_type i, F&& f) const {
        f((i + 2) % 3, 1.0);
    }
};

TEST(Ordering, PermutationRejectedForMatrixFreeOperators) {
    SolveOptions options;
    options.permutation = {2, 0, 1};
    EXPECT_THROW(default_engine().solve(RingOp{}, options), std::invalid_argument);
}

TEST(Ordering, MalformedPermutationRejectedForMatrices) {
    const index_type n = 12;
    const QtMatrix qt = qt_from_triplets(n, random_chain(n, 41));
    SolveOptions options;
    options.permutation = {1, 0};  // wrong size
    EXPECT_THROW(default_engine().solve(qt, options), std::invalid_argument);
}

}  // namespace
}  // namespace gprsim::ctmc
