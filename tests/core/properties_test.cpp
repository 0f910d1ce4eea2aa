// Parameterized property sweeps over model configurations: structural
// invariants that must hold for EVERY valid parameterization, checked across
// a grid of small-but-diverse cells (reservation levels, buffer sizes,
// session caps, flow-control thresholds, traffic mixes).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/model.hpp"
#include "queueing/erlang.hpp"

namespace gprsim::core {
namespace {

// The label is held inline, not as a std::string: gtest prints the raw bytes
// of the parameter into the ctest test name, and a string's heap pointer
// would make that name change on every run.
struct ConfigCase {
    char label[32];
    int total_channels;
    int reserved_pdch;
    int buffer_capacity;
    int max_gprs_sessions;
    double call_arrival_rate;
    double gprs_fraction;
    double eta;
};

Parameters make_parameters(const ConfigCase& c) {
    Parameters p = Parameters::base();
    p.total_channels = c.total_channels;
    p.reserved_pdch = c.reserved_pdch;
    p.buffer_capacity = c.buffer_capacity;
    p.max_gprs_sessions = c.max_gprs_sessions;
    p.call_arrival_rate = c.call_arrival_rate;
    p.gprs_fraction = c.gprs_fraction;
    p.flow_control_threshold = c.eta;
    // Quick-mixing traffic keeps the solves fast in the sweep.
    p.traffic.mean_packet_calls = 3.0;
    p.traffic.mean_packets_per_call = 6.0;
    p.traffic.mean_packet_interarrival = 0.4;
    p.traffic.mean_reading_time = 6.0;
    return p;
}

class ModelProperties : public ::testing::TestWithParam<ConfigCase> {};

TEST_P(ModelProperties, InvariantsHold) {
    const Parameters p = make_parameters(GetParam());
    GprsModel model(p);
    ctmc::SolveOptions options;
    options.tolerance = 1e-11;
    model.solve(options);
    const Measures m = model.measures();

    // Probabilities are probabilities.
    EXPECT_GE(m.packet_loss_probability, 0.0);
    EXPECT_LE(m.packet_loss_probability, 1.0);
    EXPECT_GE(m.gsm_blocking, 0.0);
    EXPECT_LE(m.gsm_blocking, 1.0);
    EXPECT_GE(m.gprs_blocking, 0.0);
    EXPECT_LE(m.gprs_blocking, 1.0);

    // Physical bounds.
    EXPECT_GE(m.carried_data_traffic, 0.0);
    EXPECT_LE(m.carried_data_traffic, p.total_channels + 1e-9);
    EXPECT_GE(m.carried_voice_traffic, 0.0);
    EXPECT_LE(m.carried_voice_traffic, p.gsm_channels() + 1e-9);
    EXPECT_GE(m.mean_queue_length, 0.0);
    EXPECT_LE(m.mean_queue_length, p.buffer_capacity + 1e-9);
    EXPECT_GE(m.average_gprs_sessions, 0.0);
    EXPECT_LE(m.average_gprs_sessions, p.max_gprs_sessions + 1e-9);

    // Distribution is proper.
    double sum = 0.0;
    for (double v : model.distribution()) {
        ASSERT_GE(v, 0.0);
        sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);

    // GSM marginal equals the Erlang law regardless of configuration
    // (voice has absolute priority).
    const std::vector<double> marginal = model.gsm_distribution();
    const std::vector<double> erlang =
        queueing::mmcc_distribution(model.balanced().gsm.offered_load, p.gsm_channels());
    for (std::size_t n = 0; n < marginal.size(); ++n) {
        EXPECT_NEAR(marginal[n], erlang[n], 1e-7) << "n = " << n;
    }

    // Flow conservation: accepted packets = served packets (Eq. 9).
    const double throughput = m.carried_data_traffic * model.balanced().rates.service_rate;
    EXPECT_NEAR(m.offered_packet_rate * (1.0 - m.packet_loss_probability), throughput,
                1e-7 * std::max(1.0, m.offered_packet_rate));
}

INSTANTIATE_TEST_SUITE_P(
    ConfigGrid, ModelProperties,
    ::testing::Values(
        ConfigCase{"base_small", 4, 1, 6, 3, 0.4, 0.2, 0.7},
        ConfigCase{"no_reservation", 4, 0, 6, 3, 0.4, 0.2, 0.7},
        ConfigCase{"heavy_reservation", 6, 3, 6, 3, 0.4, 0.2, 0.7},
        ConfigCase{"no_flow_control", 4, 1, 6, 3, 0.4, 0.2, 1.0},
        ConfigCase{"early_throttle", 4, 1, 6, 3, 0.4, 0.2, 0.3},
        ConfigCase{"tiny_buffer", 4, 1, 1, 3, 0.4, 0.2, 1.0},
        ConfigCase{"overload", 4, 1, 6, 3, 3.0, 0.3, 0.7},
        ConfigCase{"light_load", 4, 1, 6, 3, 0.02, 0.2, 0.7},
        ConfigCase{"gprs_heavy_mix", 4, 1, 6, 4, 0.4, 0.8, 0.7},
        ConfigCase{"single_session", 4, 1, 6, 1, 0.4, 0.2, 0.7}),
    [](const auto& info) { return info.param.label; });

// --- monotonicity properties across configurations ------------------------

TEST(ModelMonotonicity, ReservingPdchsReducesLossAndDelay) {
    Measures previous;
    bool first = true;
    for (int pdch : {0, 1, 2}) {
        ConfigCase c{"", 5, pdch, 8, 3, 0.6, 0.3, 0.7};
        GprsModel model(make_parameters(c));
        const Measures m = model.measures();
        if (!first) {
            EXPECT_LE(m.packet_loss_probability, previous.packet_loss_probability + 1e-9)
                << "PDCH " << pdch;
            EXPECT_LE(m.queueing_delay, previous.queueing_delay + 1e-9) << "PDCH " << pdch;
        }
        previous = m;
        first = false;
    }
}

TEST(ModelMonotonicity, LoadIncreasesBlockingAndLoss) {
    Measures previous;
    bool first = true;
    for (double rate : {0.2, 0.6, 1.4}) {
        ConfigCase c{"", 4, 1, 6, 3, rate, 0.3, 0.7};
        GprsModel model(make_parameters(c));
        const Measures m = model.measures();
        if (!first) {
            EXPECT_GE(m.gsm_blocking, previous.gsm_blocking);
            EXPECT_GE(m.gprs_blocking, previous.gprs_blocking);
            EXPECT_GE(m.packet_loss_probability, previous.packet_loss_probability - 1e-9);
        }
        previous = m;
        first = false;
    }
}

TEST(ModelMonotonicity, FlowControlReducesLoss) {
    // Stronger throttling (smaller eta) cannot increase buffer overflow.
    Measures previous;
    bool first = true;
    for (double eta : {1.0, 0.7, 0.4}) {
        ConfigCase c{"", 4, 1, 6, 3, 0.8, 0.4, eta};
        GprsModel model(make_parameters(c));
        const Measures m = model.measures();
        if (!first) {
            EXPECT_LE(m.packet_loss_probability, previous.packet_loss_probability + 1e-9)
                << "eta " << eta;
        }
        previous = m;
        first = false;
    }
}

TEST(ModelMonotonicity, BiggerBufferReducesLossButGrowsDelay) {
    Measures previous;
    bool first = true;
    for (int capacity : {2, 6, 12}) {
        ConfigCase c{"", 4, 1, capacity, 3, 0.8, 0.4, 1.0};
        GprsModel model(make_parameters(c));
        const Measures m = model.measures();
        if (!first) {
            EXPECT_LE(m.packet_loss_probability, previous.packet_loss_probability + 1e-9);
            EXPECT_GE(m.queueing_delay, previous.queueing_delay - 1e-9);
        }
        previous = m;
        first = false;
    }
}

}  // namespace
}  // namespace gprsim::core
