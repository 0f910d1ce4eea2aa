// Result sinks for campaign runs: a flat CSV table (one row per point,
// doubles at full round-trip precision), a JSON document (points +
// summary), and the human-readable summary block every campaign consumer
// prints. A small CSV reader ships alongside the writer so downstream
// tooling — and the round-trip tests — can consume the files without a
// spreadsheet dependency.
#pragma once

#include <cstdio>
#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/runner.hpp"

namespace gprsim::campaign {

/// Column layout of write_campaign_csv, in order — the legacy two-column
/// view of CampaignPoint: model columns come from the first non-stochastic
/// backend (empty when every method is stochastic), sim and delta columns
/// are empty when no "des"-style backend ran. Doubles are printed with
/// max_digits10 precision, so reading a cell back with strtod reproduces
/// the exact bits.
///
///   scenario, variant, label, traffic_model, reserved_pdch, gprs_fraction,
///   coding_scheme, max_gprs_sessions, call_arrival_rate,
///   model_cdt, model_plp, model_qd, model_atu, model_mql, model_cvt,
///   model_ags, model_gsm_blocking, model_gprs_blocking,
///   iterations, residual,
///   sim_cdt, sim_cdt_hw, sim_plp, sim_plp_hw, sim_qd, sim_qd_hw,
///   sim_atu, sim_atu_hw, sim_cvt, sim_cvt_hw, sim_gsm_blocking,
///   sim_gsm_blocking_hw, sim_gprs_blocking, sim_gprs_blocking_hw,
///   sim_replications, sim_events,
///   delta_cdt, delta_plp, delta_qd, delta_atu
///
/// Multi-method campaigns append four pairwise-delta columns per
/// non-reference backend — delta_cdt:<method>, delta_plp:<method>,
/// delta_qd:<method>, delta_atu:<method> — holding methods.front() minus
/// that backend (CampaignPoint::deltas). Single-method campaigns keep the
/// exact legacy column set above.
void write_campaign_csv(const CampaignResult& result, std::ostream& out);

/// Writes to a file; returns false (with a message on stderr) on I/O error.
bool write_campaign_csv(const CampaignResult& result, const std::string& path);

/// JSON mirror of the CSV: {"name", "methods": [...], "summary": {...},
/// "points": [...]} with the same per-point fields.
void write_campaign_json(const CampaignResult& result, std::ostream& out);
bool write_campaign_json(const CampaignResult& result, const std::string& path);

/// Parsed CSV: a header plus rows of raw cells (no type coercion).
struct CsvTable {
    std::vector<std::string> columns;
    std::vector<std::vector<std::string>> rows;

    /// Index of a named column; throws std::out_of_range when absent.
    std::size_t column(const std::string& name) const;
    /// Cell by (row, column name); empty cells return "".
    const std::string& cell(std::size_t row, const std::string& name) const;
};

/// Reads a CSV document produced by write_campaign_csv (quoted cells with
/// embedded commas/quotes are handled; newlines inside cells are not).
/// Throws std::runtime_error on ragged rows.
CsvTable read_csv(std::istream& in);

/// The campaign summary block: points, solves, total solver iterations,
/// replications, events, wall clock, threads.
void print_campaign_summary(const CampaignResult& result, std::FILE* out);

}  // namespace gprsim::campaign
