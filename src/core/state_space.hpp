// State space of the aggregated GPRS Markov chain (paper Section 4.1).
//
// A state is (k, n, m, r): k packets in the BSC buffer, n active GSM calls,
// m active GPRS sessions, and r of those sessions currently OFF (reading).
// The aggregation of per-session IPPs into the (m+1)-state MMPP reduces the
// state count to (M+1)(M+2)/2 * (N_GSM+1) * (K+1).
#pragma once

#include <numeric>
#include <vector>

#include "common/types.hpp"

namespace gprsim::core {

struct State {
    int buffer = 0;         ///< k in [0, K]
    int gsm_calls = 0;      ///< n in [0, N_GSM]
    int gprs_sessions = 0;  ///< m in [0, M]
    int off_sessions = 0;   ///< r in [0, m]

    friend bool operator==(const State&, const State&) = default;
};

/// Bijective codec between State tuples and dense indices [0, size()).
///
/// Layout (innermost to outermost): (m, r) triangular pair, then n, then k.
/// Keeping k outermost makes Gauss-Seidel sweeps walk the buffer dimension
/// coherently, which is where the interesting coupling lives.
class StateSpace {
public:
    StateSpace(int buffer_capacity, int gsm_channels, int max_gprs_sessions);

    int buffer_capacity() const { return capacity_; }
    int gsm_channels() const { return max_gsm_; }
    int max_gprs_sessions() const { return max_m_; }

    common::index_type size() const {
        return (static_cast<common::index_type>(capacity_) + 1) *
               (static_cast<common::index_type>(max_gsm_) + 1) * pair_count_;
    }

    common::index_type index_of(const State& s) const;
    State state_of(common::index_type index) const;

    /// Number of (m, r) pairs: (M+1)(M+2)/2.
    common::index_type session_pair_count() const { return pair_count_; }

    /// Calls f(State, index) for every state in index order.
    template <typename F>
    void for_each(F&& f) const {
        common::index_type index = 0;
        for (int k = 0; k <= capacity_; ++k) {
            for (int n = 0; n <= max_gsm_; ++n) {
                for (int m = 0; m <= max_m_; ++m) {
                    for (int r = 0; r <= m; ++r) {
                        f(State{k, n, m, r}, index);
                        ++index;
                    }
                }
            }
        }
    }

private:
    int capacity_;
    int max_gsm_;
    int max_m_;
    common::index_type pair_count_;
};

/// QBD row ordering (ctmc::SolveOptions::permutation convention,
/// order[new] = old): states grouped by buffer level k, levels ascending,
/// original index order within a level. The codec above already stores k
/// outermost, so for this StateSpace the result is the identity
/// permutation (which the solver detects and skips). Built by a stable
/// counting sort on the level: O(size()).
inline std::vector<common::index_type> qbd_level_ordering(const StateSpace& space) {
    std::vector<common::index_type> start(
        static_cast<std::size_t>(space.buffer_capacity()) + 2, 0);
    space.for_each([&](const State& s, common::index_type) {
        ++start[static_cast<std::size_t>(s.buffer) + 1];
    });
    std::partial_sum(start.begin(), start.end(), start.begin());
    std::vector<common::index_type> order(static_cast<std::size_t>(space.size()));
    space.for_each([&](const State& s, common::index_type i) {
        order[static_cast<std::size_t>(start[static_cast<std::size_t>(s.buffer)]++)] = i;
    });
    return order;
}

}  // namespace gprsim::core
