#include "core/state_space.hpp"

#include <gtest/gtest.h>

#include <tuple>

namespace gprsim::core {
namespace {

TEST(StateSpace, SizeMatchesPaperFormula) {
    // (M+1)(M+2)/2 * (N_GSM+1) * (K+1), paper Section 4.1.
    const StateSpace space(100, 19, 50);
    EXPECT_EQ(space.size(),
              static_cast<common::index_type>(51) * 52 / 2 * 20 * 101);
    EXPECT_EQ(space.session_pair_count(), 51 * 52 / 2);
}

TEST(StateSpace, PaperBaseConfigurationStateCount) {
    // The base setting (Table 2 + traffic model 1) has ~2.68 million states.
    const StateSpace space(100, 19, 50);
    EXPECT_EQ(space.size(), 2678520);
}

TEST(StateSpace, RoundTripIsExhaustive) {
    const StateSpace space(5, 3, 4);
    common::index_type count = 0;
    space.for_each([&](const State& s, common::index_type index) {
        EXPECT_EQ(space.index_of(s), index);
        const State back = space.state_of(index);
        EXPECT_EQ(back, s);
        EXPECT_LE(s.off_sessions, s.gprs_sessions);
        ++count;
    });
    EXPECT_EQ(count, space.size());
}

TEST(StateSpace, IndicesAreDenseAndOrdered) {
    const StateSpace space(2, 2, 2);
    common::index_type previous = -1;
    space.for_each([&](const State&, common::index_type index) {
        EXPECT_EQ(index, previous + 1);
        previous = index;
    });
    EXPECT_EQ(previous, space.size() - 1);
}

TEST(StateSpace, StateOfHandlesLargeTriangularIndices) {
    // The sqrt-based inversion must be exact even for large m.
    const StateSpace space(0, 0, 500);
    for (int m : {0, 1, 2, 99, 100, 499, 500}) {
        for (int r : {0, m / 2, m}) {
            const State s{0, 0, m, r};
            EXPECT_EQ(space.state_of(space.index_of(s)), s) << "m=" << m << " r=" << r;
        }
    }
}

TEST(StateSpace, DegenerateDimensionsWork) {
    // M = 0 (no GPRS) still forms a valid chain over (k, n).
    const StateSpace space(3, 2, 0);
    EXPECT_EQ(space.size(), 4 * 3 * 1);
    const State s{2, 1, 0, 0};
    EXPECT_EQ(space.state_of(space.index_of(s)), s);
}

TEST(StateSpace, QbdLevelOrderingIsIdentityForTheNaturalCodec) {
    // The codec already enumerates states with the buffer level as the
    // outermost (slowest) digit, so the QBD level ordering degenerates to
    // the identity — the stable sort on the buffer level must not move
    // anything. The solver engine detects this and skips the reindexing
    // entirely, and the line sweep's level layout (GprsGenerator::levels)
    // relies on the same convention; this test pins it so a future codec
    // change surfaces as a failure here.
    const StateSpace space(4, 3, 5);
    const std::vector<common::index_type> order = qbd_level_ordering(space);
    ASSERT_EQ(order.size(), static_cast<std::size_t>(space.size()));
    for (std::size_t p = 0; p < order.size(); ++p) {
        EXPECT_EQ(order[p], static_cast<common::index_type>(p));
    }
    // And the levels really are contiguous under that order.
    common::index_type previous_level = 0;
    for (common::index_type i = 0; i < space.size(); ++i) {
        const common::index_type level = space.state_of(i).buffer;
        EXPECT_GE(level, previous_level);
        previous_level = level;
    }
}

TEST(StateSpace, RejectsNegativeDimensions) {
    EXPECT_THROW(StateSpace(-1, 2, 2), std::invalid_argument);
    EXPECT_THROW(StateSpace(2, -1, 2), std::invalid_argument);
    EXPECT_THROW(StateSpace(2, 2, -1), std::invalid_argument);
}

}  // namespace
}  // namespace gprsim::core
