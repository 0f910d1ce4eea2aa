// Parameterized structural sweep: the incoming (transposed) view of Table 1
// must be the exact inverse of the outgoing view for EVERY configuration,
// including boundary ones (no reserved PDCH, eta = 1, single session,
// minimal buffer).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "core/handover.hpp"
#include "core/transitions.hpp"

namespace gprsim::core {
namespace {

// gtest prints a parameter that has no printer as its raw bytes, and those
// bytes end up in the ctest test name. The label is held inline so that the
// name is the same on every build; a std::string would contribute its heap
// pointer, which address-space randomisation changes on every run.
struct TransitionCase {
    char label[32];
    int total_channels;
    int reserved_pdch;
    int buffer_capacity;
    int max_gprs_sessions;
    double eta;
};

class TransitionsProperty : public ::testing::TestWithParam<TransitionCase> {
protected:
    Parameters make_parameters() const {
        const TransitionCase& c = GetParam();
        Parameters p = Parameters::base();
        p.total_channels = c.total_channels;
        p.reserved_pdch = c.reserved_pdch;
        p.buffer_capacity = c.buffer_capacity;
        p.max_gprs_sessions = c.max_gprs_sessions;
        p.flow_control_threshold = c.eta;
        p.call_arrival_rate = 0.4;
        p.gprs_fraction = 0.3;
        p.traffic.mean_packet_calls = 3.0;
        p.traffic.mean_packets_per_call = 5.0;
        p.traffic.mean_packet_interarrival = 0.4;
        p.traffic.mean_reading_time = 6.0;
        return p;
    }
};

using Key = std::tuple<int, int, int, int>;
Key key(const State& s) {
    return {s.buffer, s.gsm_calls, s.gprs_sessions, s.off_sessions};
}

TEST_P(TransitionsProperty, IncomingInvertsOutgoing) {
    const Parameters p = make_parameters();
    const ModelRates rates = balance_handover(p).rates;
    const StateSpace space(p.buffer_capacity, p.gsm_channels(), p.max_gprs_sessions);

    std::map<std::pair<Key, Key>, double> forward;
    std::map<std::pair<Key, Key>, double> backward;
    space.for_each([&](const State& s, common::index_type) {
        for_each_outgoing(p, rates, s, [&](const State& succ, double rate) {
            if (rate > 0.0) {
                forward[{key(s), key(succ)}] += rate;
            }
        });
        for_each_incoming(p, rates, s, [&](const State& pred, double rate) {
            if (rate > 0.0) {
                backward[{key(pred), key(s)}] += rate;
            }
        });
    });
    ASSERT_EQ(forward.size(), backward.size());
    for (const auto& [edge, rate] : forward) {
        const auto it = backward.find(edge);
        ASSERT_NE(it, backward.end());
        EXPECT_NEAR(it->second, rate, 1e-13);
    }
}

TEST_P(TransitionsProperty, EveryStateCanExit) {
    // Irreducibility precondition: no absorbing states anywhere.
    const Parameters p = make_parameters();
    const ModelRates rates = balance_handover(p).rates;
    const StateSpace space(p.buffer_capacity, p.gsm_channels(), p.max_gprs_sessions);
    space.for_each([&](const State& s, common::index_type) {
        EXPECT_GT(total_exit_rate(p, rates, s), 0.0)
            << "absorbing state (" << s.buffer << "," << s.gsm_calls << ","
            << s.gprs_sessions << "," << s.off_sessions << ")";
    });
}

INSTANTIATE_TEST_SUITE_P(
    BoundaryConfigs, TransitionsProperty,
    ::testing::Values(TransitionCase{"typical", 4, 1, 5, 3, 0.7},
                      TransitionCase{"no_reserved_pdch", 4, 0, 5, 3, 0.7},
                      TransitionCase{"all_but_one_reserved", 4, 3, 5, 3, 0.7},
                      TransitionCase{"no_flow_control", 4, 1, 5, 3, 1.0},
                      TransitionCase{"tight_throttle", 4, 1, 5, 3, 0.2},
                      TransitionCase{"single_session", 4, 1, 5, 1, 0.7},
                      TransitionCase{"unit_buffer", 4, 1, 1, 3, 0.7},
                      TransitionCase{"wide_cell", 12, 2, 4, 2, 0.7}),
    [](const auto& info) { return info.param.label; });

}  // namespace
}  // namespace gprsim::core
