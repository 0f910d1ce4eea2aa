#include "network/coupling.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "queueing/handover.hpp"

namespace gprsim::network {

namespace {

using common::EvalError;
using common::EvalErrorCode;

double relative_change(double next, double current) {
    return std::fabs(next - current) / std::max(1.0, std::fabs(current));
}

/// Weighted mean with uniform fallback when the weights sum to zero.
double weighted_mean(const std::vector<core::Measures>& cells,
                     double core::Measures::* value, double core::Measures::* weight) {
    double num = 0.0;
    double den = 0.0;
    for (const core::Measures& m : cells) {
        num += (m.*value) * (m.*weight);
        den += m.*weight;
    }
    if (den > 0.0) {
        return num / den;
    }
    double sum = 0.0;
    for (const core::Measures& m : cells) {
        sum += m.*value;
    }
    return sum / static_cast<double>(cells.size());
}

double mean(const std::vector<core::Measures>& cells, double core::Measures::* value) {
    double sum = 0.0;
    for (const core::Measures& m : cells) {
        sum += m.*value;
    }
    return sum / static_cast<double>(cells.size());
}

}  // namespace

core::Measures aggregate_measures(const std::vector<core::Measures>& cells) {
    core::Measures a;
    if (cells.empty()) {
        return a;
    }
    a.carried_data_traffic = mean(cells, &core::Measures::carried_data_traffic);
    a.mean_queue_length = mean(cells, &core::Measures::mean_queue_length);
    a.offered_packet_rate = mean(cells, &core::Measures::offered_packet_rate);
    a.data_throughput_kbps = mean(cells, &core::Measures::data_throughput_kbps);
    a.carried_voice_traffic = mean(cells, &core::Measures::carried_voice_traffic);
    a.average_gprs_sessions = mean(cells, &core::Measures::average_gprs_sessions);
    a.packet_loss_probability =
        weighted_mean(cells, &core::Measures::packet_loss_probability,
                      &core::Measures::offered_packet_rate);
    a.queueing_delay = weighted_mean(cells, &core::Measures::queueing_delay,
                                     &core::Measures::carried_data_traffic);
    a.throughput_per_user_kbps =
        weighted_mean(cells, &core::Measures::throughput_per_user_kbps,
                      &core::Measures::average_gprs_sessions);
    a.gsm_blocking = mean(cells, &core::Measures::gsm_blocking);
    a.gprs_blocking = mean(cells, &core::Measures::gprs_blocking);
    return a;
}

struct NetworkFixedPoint::Impl {
    CellLattice lattice;
    MobilityMatrices matrices;
    eval::ScenarioQuery base_query;
    eval::Evaluator* inner = nullptr;
    NetworkOptions options;

    /// Per-cell inner parameters: lattice parameters with the dwell times
    /// rescaled to the mobility speed and the handover inflow pinned.
    std::vector<core::Parameters> cell_parameters;

    // The outer iterate: pinned incoming handover flows per cell.
    std::vector<double> in_v;
    std::vector<double> in_s;

    /// Per-cell slots of the current iteration. solve_cell(c) writes only
    /// slot c; advance()/finish() read them serially.
    struct CellSlot {
        core::Measures measures;
        long long iterations = 0;
        std::unique_ptr<EvalError> error;
    };
    std::vector<CellSlot> slots;

    std::vector<double> residuals;
    double residual = 0.0;
    int iterations = 0;
    bool converged = false;
    bool done = false;
    std::atomic<bool> pending_fold{false};
    long long inner_iterations = 0;
    std::unique_ptr<EvalError> failure;

    void fold();
};

NetworkFixedPoint::NetworkFixedPoint(CellLattice lattice, const MobilityModel& mobility,
                                     const eval::ScenarioQuery& cell_query,
                                     eval::Evaluator& inner, const NetworkOptions& options)
    : impl_(std::make_unique<Impl>()) {
    impl_->lattice = std::move(lattice);
    impl_->matrices = build_mobility(impl_->lattice, mobility);
    impl_->base_query = cell_query;
    impl_->base_query.network = eval::NetworkKnobs{};  // outer knobs: not in the key
    impl_->inner = &inner;
    impl_->options = options;

    const int n = impl_->lattice.size();
    const double scale = mobility.speed_scale();
    impl_->cell_parameters.reserve(static_cast<std::size_t>(n));
    impl_->in_v.resize(static_cast<std::size_t>(n));
    impl_->in_s.resize(static_cast<std::size_t>(n));
    impl_->slots.resize(static_cast<std::size_t>(n));
    impl_->residuals.assign(static_cast<std::size_t>(n), 0.0);
    for (int c = 0; c < n; ++c) {
        core::Parameters p = impl_->lattice.cell_parameters(c);
        p.mean_gsm_dwell_time /= scale;
        p.mean_gprs_dwell_time /= scale;
        p.pinned_handover = true;
        // Initial inflows: each cell's own symmetric balance (paper
        // Eq. 4-5) at the scaled dwell rates — exact for a homogeneous
        // wrapped lattice, a warm start everywhere else.
        impl_->in_v[static_cast<std::size_t>(c)] =
            queueing::balance_handover_flow(p.gsm_arrival_rate(), p.gsm_completion_rate(),
                                            p.gsm_handover_rate(), p.gsm_channels())
                .handover_arrival_rate;
        impl_->in_s[static_cast<std::size_t>(c)] =
            queueing::balance_handover_flow(p.gprs_arrival_rate(), p.gprs_completion_rate(),
                                            p.gprs_handover_rate(), p.max_gprs_sessions)
                .handover_arrival_rate;
        impl_->cell_parameters.push_back(p);
    }
}

NetworkFixedPoint::~NetworkFixedPoint() = default;

int NetworkFixedPoint::cell_count() const { return impl_->lattice.size(); }
bool NetworkFixedPoint::done() const { return impl_->done; }
int NetworkFixedPoint::iterations() const { return impl_->iterations; }

void NetworkFixedPoint::solve_cell(int cell, InnerMemo& memo) {
    Impl& s = *impl_;
    if (s.done) {
        return;
    }
    const std::size_t c = static_cast<std::size_t>(cell);
    eval::ScenarioQuery query = s.base_query;
    query.parameters = s.cell_parameters[c];
    query.parameters.gsm_handover_in = s.in_v[c];
    query.parameters.gprs_handover_in = s.in_s[c];
    query.call_arrival_rate = query.parameters.call_arrival_rate;
    const common::Result<eval::PointEvaluation> point =
        memo.get_or_compute(eval::query_signature(s.inner->name(), query),
                            [&] { return s.inner->evaluate(query); });
    Impl::CellSlot& slot = s.slots[c];
    if (!point.ok()) {
        slot.error = std::make_unique<EvalError>(point.error());
    } else {
        slot.error.reset();
        slot.measures = point.value().measures;
        slot.iterations = point.value().iterations;
    }
    s.pending_fold.store(true, std::memory_order_relaxed);
}

void NetworkFixedPoint::Impl::fold() {
    pending_fold.store(false, std::memory_order_relaxed);
    const std::size_t n = slots.size();
    for (std::size_t c = 0; c < n; ++c) {
        if (slots[c].error) {
            char where[48];
            std::snprintf(where, sizeof(where), "network cell %zu: ", c);
            failure = std::make_unique<EvalError>(
                EvalError{slots[c].error->code, where + slots[c].error->message});
            done = true;
            return;
        }
        inner_iterations += slots[c].iterations;
    }

    // The coupling update: cell j's new inflow is its neighbors' mean
    // populations pushed through the directed per-user rate matrices.
    residual = 0.0;
    const double theta = options.damping;
    std::vector<double> next_v(n, 0.0);
    std::vector<double> next_s(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const double pop_v = slots[i].measures.carried_voice_traffic;
        const double pop_s = slots[i].measures.average_gprs_sessions;
        for (std::size_t j = 0; j < n; ++j) {
            next_v[j] += pop_v * matrices.gsm[i][j];
            next_s[j] += pop_s * matrices.gprs[i][j];
        }
    }
    for (std::size_t j = 0; j < n; ++j) {
        residuals[j] = std::max(relative_change(next_v[j], in_v[j]),
                                relative_change(next_s[j], in_s[j]));
        residual = std::max(residual, residuals[j]);
        in_v[j] += theta * (next_v[j] - in_v[j]);
        in_s[j] += theta * (next_s[j] - in_s[j]);
    }
    ++iterations;
    converged = residual <= options.tolerance;
    done = converged || iterations >= options.max_outer_iterations;
}

void NetworkFixedPoint::advance() {
    if (impl_->done) {
        return;
    }
    impl_->fold();
}

common::Result<NetworkSolution> NetworkFixedPoint::finish() {
    Impl& s = *impl_;
    // A wave-ordered execution leaves the last round's solves unfolded
    // (the next wave's fold never ran); fold them now so the serial and
    // wave paths execute identical arithmetic.
    if (!s.done && s.pending_fold.load(std::memory_order_relaxed)) {
        s.fold();
    }
    if (s.failure) {
        return *s.failure;
    }
    if (!s.converged) {
        char what[192];
        std::snprintf(what, sizeof(what),
                      "network fixed point did not converge: inflow residual %.3e "
                      "after %d outer iterations (tolerance %.1e, damping %g)",
                      s.residual, s.iterations, s.options.tolerance, s.options.damping);
        return EvalError{EvalErrorCode::non_convergence,
                         std::string(what) + " [" +
                             eval::scenario_context(s.base_query.parameters,
                                                    s.base_query.call_arrival_rate) +
                             "]"};
    }
    NetworkSolution solution;
    const std::size_t n = s.slots.size();
    solution.cells.reserve(n);
    std::vector<double> pop_v(n);
    std::vector<double> pop_s(n);
    for (std::size_t c = 0; c < n; ++c) {
        solution.cells.push_back(s.slots[c].measures);
        pop_v[c] = s.slots[c].measures.carried_voice_traffic;
        pop_s[c] = s.slots[c].measures.average_gprs_sessions;
    }
    solution.aggregate = aggregate_measures(solution.cells);
    solution.cell_residuals = s.residuals;
    solution.outer_iterations = s.iterations;
    solution.residual = s.residual;
    solution.converged = s.converged;
    solution.rau_rate = routing_area_update_rate(s.matrices, pop_v, pop_s);
    solution.inner_iterations = s.inner_iterations;
    return solution;
}

common::Result<NetworkSolution> NetworkFixedPoint::solve() {
    // One iteration's cells are the widest set of problems alive at once.
    InnerMemo memo(static_cast<std::size_t>(cell_count()));
    while (!done()) {
        for (int c = 0; c < cell_count(); ++c) {
            solve_cell(c, memo);
        }
        advance();
    }
    return finish();
}

}  // namespace gprsim::network
