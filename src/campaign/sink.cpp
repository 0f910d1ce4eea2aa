#include "campaign/sink.hpp"

#include <cstdio>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace gprsim::campaign {

namespace {

/// Shortest decimal that round-trips the exact double (max_digits10).
std::string number_cell(double value) {
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.*g",
                  std::numeric_limits<double>::max_digits10, value);
    return buffer;
}

std::string quoted_cell(const std::string& value) {
    if (value.find_first_of(",\"") == std::string::npos) {
        return value;
    }
    std::string out = "\"";
    for (const char c : value) {
        if (c == '"') {
            out += '"';
        }
        out += c;
    }
    out += '"';
    return out;
}

/// JSON string escape for labels/names (the only free-form strings here).
std::string json_string(const std::string& value) {
    std::string out = "\"";
    for (const char c : value) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default: out += c;
        }
    }
    out += '"';
    return out;
}

const char* const kCsvColumns[] = {
    "scenario", "variant", "label", "traffic_model", "reserved_pdch", "gprs_fraction",
    "coding_scheme", "max_gprs_sessions", "call_arrival_rate",
    "model_cdt", "model_plp", "model_qd", "model_atu", "model_mql", "model_cvt",
    "model_ags", "model_gsm_blocking", "model_gprs_blocking",
    "iterations", "residual",
    "sim_cdt", "sim_cdt_hw", "sim_plp", "sim_plp_hw", "sim_qd", "sim_qd_hw",
    "sim_atu", "sim_atu_hw", "sim_cvt", "sim_cvt_hw", "sim_gsm_blocking",
    "sim_gsm_blocking_hw", "sim_gprs_blocking", "sim_gprs_blocking_hw",
    "sim_replications", "sim_events",
    "delta_cdt", "delta_plp", "delta_qd", "delta_atu",
};

/// Column list of one result: the fixed legacy layout, plus — only for
/// multi-method campaigns — four pairwise-delta columns per non-reference
/// backend, "delta_<measure>:<method>" = methods.front() minus <method>,
/// plus — only for network campaigns — the network axis columns and the
/// aggregated routing-area-update rate. Single-cell single-method
/// campaigns keep the exact 40-column legacy table.
std::vector<std::string> csv_columns(const CampaignResult& result) {
    std::vector<std::string> columns(std::begin(kCsvColumns), std::end(kCsvColumns));
    if (result.methods.size() > 1) {
        for (std::size_t b = 1; b < result.methods.size(); ++b) {
            for (const char* prefix :
                 {"delta_cdt:", "delta_plp:", "delta_qd:", "delta_atu:"}) {
                columns.push_back(prefix + result.methods[b]);
            }
        }
    }
    if (result.network) {
        for (const char* name :
             {"network_cells", "speed_kmh", "reuse_factor", "rau_rate"}) {
            columns.push_back(name);
        }
    }
    return columns;
}

std::vector<std::string> point_cells(const CampaignResult& result,
                                     const CampaignPoint& point) {
    const Variant& variant = result.variants[point.variant];
    std::vector<std::string> cells;
    cells.reserve(std::size(kCsvColumns));
    cells.push_back(result.name);
    cells.push_back(std::to_string(point.variant));
    cells.push_back(variant.label);
    cells.push_back(std::to_string(variant.traffic_model));
    cells.push_back(std::to_string(variant.reserved_pdch));
    cells.push_back(number_cell(variant.gprs_fraction));
    cells.push_back(core::coding_scheme_name(variant.coding_scheme));
    cells.push_back(std::to_string(variant.parameters.max_gprs_sessions));
    cells.push_back(number_cell(point.call_arrival_rate));
    if (point.has_model) {
        cells.push_back(number_cell(point.model.carried_data_traffic));
        cells.push_back(number_cell(point.model.packet_loss_probability));
        cells.push_back(number_cell(point.model.queueing_delay));
        cells.push_back(number_cell(point.model.throughput_per_user_kbps));
        cells.push_back(number_cell(point.model.mean_queue_length));
        cells.push_back(number_cell(point.model.carried_voice_traffic));
        cells.push_back(number_cell(point.model.average_gprs_sessions));
        cells.push_back(number_cell(point.model.gsm_blocking));
        cells.push_back(number_cell(point.model.gprs_blocking));
        cells.push_back(std::to_string(point.iterations));
        cells.push_back(number_cell(point.residual));
    } else {
        cells.insert(cells.end(), 11, std::string());
    }
    if (point.has_sim) {
        const auto estimate = [&](const sim::MetricEstimate& e) {
            cells.push_back(number_cell(e.mean));
            cells.push_back(number_cell(e.half_width));
        };
        estimate(point.sim.carried_data_traffic);
        estimate(point.sim.packet_loss_probability);
        estimate(point.sim.queueing_delay);
        estimate(point.sim.throughput_per_user_kbps);
        estimate(point.sim.carried_voice_traffic);
        estimate(point.sim.gsm_blocking);
        estimate(point.sim.gprs_blocking);
        cells.push_back(std::to_string(point.sim.carried_data_traffic.batches));
        cells.push_back(std::to_string(point.sim.events_executed));
    } else {
        cells.insert(cells.end(), 16, std::string());
    }
    if (point.has_model && point.has_sim) {
        cells.push_back(number_cell(point.delta_cdt));
        cells.push_back(number_cell(point.delta_plp));
        cells.push_back(number_cell(point.delta_qd));
        cells.push_back(number_cell(point.delta_atu));
    } else {
        cells.insert(cells.end(), 4, std::string());
    }
    for (std::size_t b = 1; b < result.methods.size(); ++b) {
        if (b < point.deltas.size()) {
            const MeasureDeltas& d = point.deltas[b];
            cells.push_back(number_cell(d.cdt));
            cells.push_back(number_cell(d.plp));
            cells.push_back(number_cell(d.qd));
            cells.push_back(number_cell(d.atu));
        } else {
            cells.insert(cells.end(), 4, std::string());
        }
    }
    if (result.network) {
        cells.push_back(std::to_string(variant.network_cells));
        cells.push_back(number_cell(variant.speed_kmh));
        cells.push_back(std::to_string(variant.reuse_factor));
        // The reference backend's aggregated routing-area-update rate.
        cells.push_back(point.evaluations.empty()
                            ? std::string()
                            : number_cell(point.evaluations.front().rau_rate));
    }
    return cells;
}

}  // namespace

void write_campaign_csv(const CampaignResult& result, std::ostream& out) {
    const std::vector<std::string> columns = csv_columns(result);
    for (std::size_t c = 0; c < columns.size(); ++c) {
        out << (c > 0 ? "," : "") << columns[c];
    }
    out << '\n';
    for (const CampaignPoint& point : result.points) {
        const std::vector<std::string> cells = point_cells(result, point);
        for (std::size_t c = 0; c < cells.size(); ++c) {
            out << (c > 0 ? "," : "") << quoted_cell(cells[c]);
        }
        out << '\n';
    }
}

bool write_campaign_csv(const CampaignResult& result, const std::string& path) {
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "campaign: cannot write %s\n", path.c_str());
        return false;
    }
    write_campaign_csv(result, out);
    return static_cast<bool>(out);
}

void write_campaign_json(const CampaignResult& result, std::ostream& out) {
    const CampaignSummary& s = result.summary;
    out << "{\n  \"name\": " << json_string(result.name) << ",\n  \"methods\": [";
    for (std::size_t m = 0; m < result.methods.size(); ++m) {
        out << (m > 0 ? ", " : "") << json_string(result.methods[m]);
    }
    out << "],\n  \"summary\": {\"variants\": " << s.variants
        << ", \"points\": " << s.points << ", \"model_solves\": " << s.model_solves
        << ", \"total_iterations\": " << s.total_iterations
        << ", \"sim_replications\": " << s.sim_replications
        << ", \"sim_events\": " << s.sim_events
        << ", \"batch_tasks\": " << s.batch_tasks
        << ", \"batch_waves\": " << s.batch_waves
        << ", \"sequential_waves\": " << s.sequential_waves << ", \"wall_seconds\": "
        << number_cell(s.wall_seconds) << ", \"threads\": " << s.threads << "},\n"
        << "  \"points\": [\n";
    const std::vector<std::string> columns = csv_columns(result);
    for (std::size_t i = 0; i < result.points.size(); ++i) {
        const std::vector<std::string> cells = point_cells(result, result.points[i]);
        out << "    {";
        bool first = true;
        for (std::size_t c = 0; c < cells.size(); ++c) {
            if (cells[c].empty()) {
                continue;  // omit columns the method did not produce
            }
            // Numeric columns are emitted bare; the three string columns
            // (scenario, label, coding_scheme) are quoted.
            const std::string& name = columns[c];
            const bool is_string =
                name == "scenario" || name == "label" || name == "coding_scheme";
            out << (first ? "" : ", ") << '"' << name << "\": "
                << (is_string ? json_string(cells[c]) : cells[c]);
            first = false;
        }
        if (result.network) {
            // Per-cell detail of the reference backend (the CSV keeps only
            // the network aggregate): the four paper measures per cell.
            for (const eval::PointEvaluation& evaluation :
                 result.points[i].evaluations) {
                if (evaluation.cell_measures.empty()) {
                    continue;
                }
                out << (first ? "" : ", ") << "\"cells\": [";
                for (std::size_t c = 0; c < evaluation.cell_measures.size(); ++c) {
                    const core::Measures& m = evaluation.cell_measures[c];
                    out << (c > 0 ? ", " : "") << "{\"cdt\": "
                        << number_cell(m.carried_data_traffic)
                        << ", \"plp\": " << number_cell(m.packet_loss_probability)
                        << ", \"qd\": " << number_cell(m.queueing_delay)
                        << ", \"atu\": " << number_cell(m.throughput_per_user_kbps)
                        << "}";
                }
                out << "]";
                first = false;
                break;
            }
        }
        out << (i + 1 < result.points.size() ? "},\n" : "}\n");
    }
    out << "  ]\n}\n";
}

bool write_campaign_json(const CampaignResult& result, const std::string& path) {
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "campaign: cannot write %s\n", path.c_str());
        return false;
    }
    write_campaign_json(result, out);
    return static_cast<bool>(out);
}

std::size_t CsvTable::column(const std::string& name) const {
    for (std::size_t c = 0; c < columns.size(); ++c) {
        if (columns[c] == name) {
            return c;
        }
    }
    throw std::out_of_range("CsvTable: no column named " + name);
}

const std::string& CsvTable::cell(std::size_t row, const std::string& name) const {
    return rows.at(row).at(column(name));
}

CsvTable read_csv(std::istream& in) {
    CsvTable table;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r') {
            line.pop_back();
        }
        std::vector<std::string> cells;
        std::string cell;
        bool quoted = false;
        for (std::size_t i = 0; i < line.size(); ++i) {
            const char c = line[i];
            if (quoted) {
                if (c == '"') {
                    if (i + 1 < line.size() && line[i + 1] == '"') {
                        cell += '"';
                        ++i;
                    } else {
                        quoted = false;
                    }
                } else {
                    cell += c;
                }
            } else if (c == '"') {
                quoted = true;
            } else if (c == ',') {
                cells.push_back(std::move(cell));
                cell.clear();
            } else {
                cell += c;
            }
        }
        cells.push_back(std::move(cell));
        if (table.columns.empty()) {
            table.columns = std::move(cells);
        } else {
            if (cells.size() != table.columns.size()) {
                throw std::runtime_error("read_csv: row " +
                                         std::to_string(table.rows.size() + 1) + " has " +
                                         std::to_string(cells.size()) + " cells, expected " +
                                         std::to_string(table.columns.size()));
            }
            table.rows.push_back(std::move(cells));
        }
    }
    return table;
}

void print_campaign_summary(const CampaignResult& result, std::FILE* out) {
    const CampaignSummary& s = result.summary;
    std::string methods;
    for (const std::string& method : result.methods) {
        methods += methods.empty() ? "" : "+";
        methods += method;
    }
    std::fprintf(out, "\ncampaign '%s' (%s): %zu variants x %zu rates = %zu points\n",
                 result.name.c_str(), methods.c_str(), s.variants, result.rates.size(),
                 s.points);
    if (s.model_solves > 0) {
        std::fprintf(out, "  chain solves: %zu, total solver iterations: %lld\n",
                     s.model_solves, s.total_iterations);
    }
    if (s.sim_replications > 0) {
        std::fprintf(out, "  simulator replications: %lld (%.2e events)\n",
                     s.sim_replications, static_cast<double>(s.sim_events));
    }
    if (s.batch_waves > 0) {
        // Cross-variant interleaving: the merged task set runs every
        // (backend, variant) grid's wave w together, so fewer waves than
        // dispatching one grid at a time means more tasks per dispatch.
        std::fprintf(out,
                     "  task set: %zu tasks in %zu merged waves "
                     "(one grid at a time: %zu waves)\n",
                     s.batch_tasks, s.batch_waves, s.sequential_waves);
    }
    std::fprintf(out, "  wall %.2f s on %d thread%s\n", s.wall_seconds, s.threads,
                 s.threads == 1 ? "" : "s");
}

}  // namespace gprsim::campaign
