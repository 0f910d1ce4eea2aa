#include "core/initial_guess.hpp"

#include <cmath>

#include "ctmc/birth_death.hpp"
#include "core/transitions.hpp"
#include "queueing/erlang.hpp"

namespace gprsim::core {

std::vector<double> product_form_initial(const Parameters& p, const BalancedTraffic& balanced,
                                         const StateSpace& space) {
    const int n_max = space.gsm_channels();
    const int m_max = space.max_gprs_sessions();
    const int k_max = space.buffer_capacity();

    // Exact marginals of the modulator.
    const std::vector<double> pi_n = queueing::mmcc_distribution(balanced.gsm.offered_load, n_max);
    const std::vector<double> pi_m =
        queueing::mmcc_distribution(balanced.gprs.offered_load, m_max);
    const double p_on = balanced.rates.on_admission_probability();
    const double p_off = 1.0 - p_on;

    // Binomial split of r given m, in log space for large m.
    // weight(m, r) = C(m, r) p_off^r p_on^(m-r).
    std::vector<std::vector<double>> binom(static_cast<std::size_t>(m_max) + 1);
    const double log_on = std::log(std::max(p_on, 1e-300));
    const double log_off = std::log(std::max(p_off, 1e-300));
    std::vector<double> log_fact(static_cast<std::size_t>(m_max) + 1, 0.0);
    for (int i = 1; i <= m_max; ++i) {
        log_fact[static_cast<std::size_t>(i)] =
            log_fact[static_cast<std::size_t>(i) - 1] + std::log(static_cast<double>(i));
    }
    for (int m = 0; m <= m_max; ++m) {
        auto& row = binom[static_cast<std::size_t>(m)];
        row.resize(static_cast<std::size_t>(m) + 1);
        double sum = 0.0;
        for (int r = 0; r <= m; ++r) {
            const double log_c = log_fact[static_cast<std::size_t>(m)] -
                                 log_fact[static_cast<std::size_t>(r)] -
                                 log_fact[static_cast<std::size_t>(m - r)];
            row[static_cast<std::size_t>(r)] =
                std::exp(log_c + static_cast<double>(r) * log_off +
                         static_cast<double>(m - r) * log_on);
            sum += row[static_cast<std::size_t>(r)];
        }
        for (double& v : row) {
            v /= sum;  // guard tiny normalization drift
        }
    }

    // Modulator-averaged packet rates for the one-dimensional buffer chain.
    double mean_on_sources = 0.0;  // E[m - r] = E[m] * p_on
    for (int m = 0; m <= m_max; ++m) {
        mean_on_sources += pi_m[static_cast<std::size_t>(m)] * static_cast<double>(m) * p_on;
    }
    const double offered = mean_on_sources * balanced.rates.packet_rate;

    std::vector<double> birth(static_cast<std::size_t>(k_max));
    std::vector<double> death(static_cast<std::size_t>(k_max));
    for (int k = 0; k < k_max; ++k) {
        double service_k1 = 0.0;  // E[min(N - n, 8(k+1))] * mu_service
        double service_k = 0.0;
        for (int n = 0; n <= n_max; ++n) {
            const double w = pi_n[static_cast<std::size_t>(n)];
            service_k1 += w * std::min(p.total_channels - n, 8 * (k + 1));
            service_k += w * std::min(p.total_channels - n, 8 * k);
        }
        service_k1 *= balanced.rates.service_rate;
        service_k *= balanced.rates.service_rate;
        birth[static_cast<std::size_t>(k)] =
            k <= p.flow_control_onset() ? offered
                                        : std::min(offered, std::max(service_k, 1e-12));
        death[static_cast<std::size_t>(k)] = std::max(service_k1, 1e-12);
    }
    const std::vector<double> pi_k = ctmc::birth_death_distribution(birth, death);

    // Assemble the product.
    std::vector<double> initial(static_cast<std::size_t>(space.size()));
    space.for_each([&](const State& s, common::index_type i) {
        initial[static_cast<std::size_t>(i)] =
            pi_k[static_cast<std::size_t>(s.buffer)] *
            pi_n[static_cast<std::size_t>(s.gsm_calls)] *
            pi_m[static_cast<std::size_t>(s.gprs_sessions)] *
            binom[static_cast<std::size_t>(s.gprs_sessions)]
                 [static_cast<std::size_t>(s.off_sessions)];
    });
    double sum = 0.0;
    for (double v : initial) {
        sum += v;
    }
    for (double& v : initial) {
        v /= sum;
    }
    return initial;
}

std::vector<double> phase_corrected_initial(const Parameters& p,
                                            const BalancedTraffic& balanced,
                                            const StateSpace& space,
                                            std::vector<double> previous) {
    const std::vector<double> exact = product_form_initial(p, balanced, space);
    // The codec stores k outermost: state f + k * phases is phase f at k.
    const auto phases = static_cast<std::size_t>(
        space.size() / (static_cast<common::index_type>(space.buffer_capacity()) + 1));
    std::vector<double> have(phases, 0.0);
    std::vector<double> want(phases, 0.0);
    for (std::size_t i = 0; i < exact.size(); ++i) {
        have[i % phases] += previous[i];
        want[i % phases] += exact[i];
    }
    for (std::size_t i = 0; i < exact.size(); ++i) {
        const std::size_t f = i % phases;
        previous[i] = have[f] > 0.0 ? previous[i] * (want[f] / have[f]) : exact[i];
    }
    return previous;
}

}  // namespace gprsim::core
