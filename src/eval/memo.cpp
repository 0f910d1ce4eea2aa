#include "eval/memo.hpp"

#include <cstdio>

namespace gprsim::eval {

namespace {

void append_double(std::string& out, double value) {
    char buffer[40];
    // Hexfloat: every distinct bit pattern gets a distinct signature token.
    std::snprintf(buffer, sizeof(buffer), "%a,", value);
    out += buffer;
}

void append_int(std::string& out, long long value) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%lld,", value);
    out += buffer;
}

void append_string(std::string& out, const std::string& value) {
    // Length prefix keeps adjacent string fields from aliasing.
    append_int(out, static_cast<long long>(value.size()));
    out += value;
    out += ',';
}

}  // namespace

std::string query_signature(const std::string& backend, const ScenarioQuery& query) {
    std::string sig;
    sig.reserve(768);
    append_string(sig, backend);

    const core::Parameters& p = query.parameters;
    append_int(sig, p.total_channels);
    append_int(sig, p.reserved_pdch);
    append_int(sig, p.buffer_capacity);
    append_double(sig, p.pdch_rate_kbps);
    append_double(sig, p.block_error_rate);
    append_double(sig, p.call_arrival_rate);
    append_double(sig, p.gprs_fraction);
    append_double(sig, p.mean_gsm_call_duration);
    append_double(sig, p.mean_gsm_dwell_time);
    append_double(sig, p.mean_gprs_dwell_time);
    append_int(sig, p.max_gprs_sessions);
    append_int(sig, p.pinned_handover ? 1 : 0);
    append_double(sig, p.gsm_handover_in);
    append_double(sig, p.gprs_handover_in);
    append_double(sig, p.flow_control_threshold);
    append_double(sig, p.traffic.mean_packet_calls);
    append_double(sig, p.traffic.mean_reading_time);
    append_double(sig, p.traffic.mean_packets_per_call);
    append_double(sig, p.traffic.mean_packet_interarrival);
    append_double(sig, p.traffic.packet_size_bits);

    append_double(sig, query.call_arrival_rate);

    append_double(sig, query.solver.tolerance);
    append_int(sig, query.solver.max_iterations);
    append_string(sig, query.solver.method);

    append_int(sig, query.simulation.replications);
    append_int(sig, static_cast<long long>(query.simulation.seed));
    append_double(sig, query.simulation.warmup_time);
    append_int(sig, query.simulation.batch_count);
    append_double(sig, query.simulation.batch_duration);
    append_int(sig, query.simulation.tcp ? 1 : 0);

    append_double(sig, query.approx.fp_tolerance);
    append_double(sig, query.approx.fp_damping);
    append_int(sig, query.approx.fp_max_iterations);
    append_double(sig, query.approx.ode_rel_tol);
    append_double(sig, query.approx.ode_abs_tol);
    append_int(sig, query.approx.ode_max_steps);
    append_double(sig, query.approx.ode_stationary_rate);

    append_int(sig, query.network.cells_x);
    append_int(sig, query.network.cells_y);
    append_string(sig, query.network.topology);
    append_int(sig, query.network.wrap ? 1 : 0);
    append_int(sig, query.network.reuse_factor);
    append_int(sig, query.network.ra_block);
    append_double(sig, query.network.speed_kmh);
    append_double(sig, query.network.reference_speed_kmh);
    append_double(sig, query.network.drift);
    append_string(sig, query.network.inner_backend);
    append_double(sig, query.network.outer_tolerance);
    append_double(sig, query.network.outer_damping);
    append_int(sig, query.network.outer_max_iterations);
    return sig;
}

}  // namespace gprsim::eval
