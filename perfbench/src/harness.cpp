#include "harness.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/initial_guess.hpp"
#include "core/model.hpp"
#include "core/state_space.hpp"
#include "ctmc/engine.hpp"

namespace perfbench {

double quantile(std::vector<double> samples, double p) {
    if (samples.size() < 2) {
        return samples.empty() ? 0.0 : samples.front();
    }
    std::sort(samples.begin(), samples.end());
    // CPython: j = floor(p * (n + 1)) clamped to [1, n - 1], then linear
    // inter- (or, past the ends, extra-) polation between x[j-1] and x[j].
    const std::size_t n = samples.size();
    const double h = p * static_cast<double>(n + 1);
    const std::size_t j =
        std::clamp<std::size_t>(static_cast<std::size_t>(std::floor(h)), 1, n - 1);
    const double delta = h - static_cast<double>(j);
    return samples[j - 1] + delta * (samples[j] - samples[j - 1]);
}

// --- result -----------------------------------------------------------------

void Report::ratio(const std::string& name, const Ratio& r) {
    metric(name, r.value(), "ratio");
    note(name + ".base", "[" + json_number(r.numerator) + ", " + json_number(r.denominator) + "]");
}

void Report::percentile(const std::string& name, const std::vector<double>& samples, double p,
                        const std::string& unit) {
    metric(name, quantile(samples, p), unit);
    note(name + ".samples", json_number(static_cast<double>(samples.size())));
}

void Report::problem(const std::string& what) {
    correct = false;
    problems.push_back(what);
    std::fprintf(stderr, "perfbench: %s\n", what.c_str());
}

std::string json_string(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char escaped[8];
                    std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
                    out += escaped;
                } else {
                    out += c;
                }
        }
    }
    return out + "\"";
}

std::string json_number(double value) {
    if (!std::isfinite(value)) {
        return "null";
    }
    char buffer[40];
    if (value == std::floor(value) && std::fabs(value) < 9.0e15) {
        std::snprintf(buffer, sizeof(buffer), "%.0f", value);
        return buffer;
    }
    for (int digits = 15; digits <= 17; ++digits) {
        std::snprintf(buffer, sizeof(buffer), "%.*g", digits, value);
        if (std::strtod(buffer, nullptr) == value) {
            break;
        }
    }
    return buffer;
}

std::string meta_line(const Report& report) {
    std::string out = "{\"meta\": {";
    bool first = true;
    for (const auto& [key, value] : report.meta) {
        out += (first ? "" : ", ") + json_string(key) + ": " + value;
        first = false;
    }
    out += std::string(first ? "" : ", ") + "\"problems\": [";
    for (std::size_t i = 0; i < report.problems.size(); ++i) {
        out += (i ? ", " : "") + json_string(report.problems[i]);
    }
    return out + "]}}";
}

std::string result_line(const Report& report) {
    std::string out = std::string("{\"correct\": ") + (report.correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(report.attempted) +
                      ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const auto& [name, value_unit] = report.metrics[i];
        out += (i ? ", " : "") + json_string(name) + ": {\"value\": " +
               json_number(value_unit.first) + ", \"unit\": " + json_string(value_unit.second) +
               "}";
    }
    return out + "}}";
}

// --- host metadata ------------------------------------------------------------

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
    unsigned int regs[12] = {};
    unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
    if (max_leaf >= 0x80000004u) {
        for (unsigned int i = 0; i < 3; ++i) {
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                        &regs[4 * i + 3]);
        }
        std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
        brand.erase(std::find(brand.begin(), brand.end(), '\0'), brand.end());
        const auto first = brand.find_first_not_of(' ');
        return first == std::string::npos ? "unknown" : brand.substr(first);
    }
#endif
    return "unknown";
}

}  // namespace

std::string host_json(const std::string& git_sha) {
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("gcc ") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
           ", \"cpu\": " + json_string(cpu_model()) +
           ", \"compiler\": " + json_string(compiler) +
           ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
           ", \"git_sha\": " + json_string(git_sha) + "}";
}

double process_cpu_seconds() {
    timespec now{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- reference measures ---------------------------------------------------

namespace {

using gprsim::core::Measures;

const char* const kReferenceHeader =
    "variant,rate_index,call_arrival_rate,cdt,plp,qd,atu,mql,cvt,ags,gsm_blocking,"
    "gprs_blocking";

}  // namespace

const std::vector<MeasureTolerance>& measure_tolerances() {
    // About 7x the largest error the seed code shows on the workloads (see
    // perfbench/README.md). The Erlang-closed measures (CVT, AGS, blocking)
    // are exact at any residual. PLP is a gross-error guard only: the
    // balance-form PLP is up to 51% off at residual 1e-9 (ROADMAP item 1),
    // so its accuracy is tracked by the plp_rel_err metric and its bound.
    static const std::vector<MeasureTolerance> tolerances = {
        {"cdt", &Measures::carried_data_traffic, 2e-3},
        {"plp", &Measures::packet_loss_probability, 1.0},
        {"qd", &Measures::queueing_delay, 3e-3},
        {"atu", &Measures::throughput_per_user_kbps, 2e-3},
        {"mql", &Measures::mean_queue_length, 4e-3},
        {"cvt", &Measures::carried_voice_traffic, 1e-9},
        {"ags", &Measures::average_gprs_sessions, 1e-9},
        {"gsm_blocking", &Measures::gsm_blocking, 1e-9},
        {"gprs_blocking", &Measures::gprs_blocking, 1e-9},
    };
    return tolerances;
}

void write_reference(const gprsim::campaign::CampaignResult& result, std::ostream& out) {
    out << kReferenceHeader << "\n";
    char line[512];
    for (const auto& point : result.points) {
        const Measures& m = point.evaluations.front().measures;
        std::snprintf(line, sizeof(line),
                      "%zu,%zu,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n",
                      point.variant, point.rate_index, point.call_arrival_rate,
                      m.carried_data_traffic, m.packet_loss_probability, m.queueing_delay,
                      m.throughput_per_user_kbps, m.mean_queue_length,
                      m.carried_voice_traffic, m.average_gprs_sessions, m.gsm_blocking,
                      m.gprs_blocking);
        out << line;
    }
}

std::vector<ReferencePoint> read_reference(std::istream& in) {
    std::string line;
    if (!std::getline(in, line) || line != kReferenceHeader) {
        throw std::runtime_error("reference: missing or unexpected header");
    }
    std::vector<ReferencePoint> points;
    while (std::getline(in, line)) {
        if (line.empty()) {
            continue;
        }
        std::istringstream fields(line);
        std::string field;
        std::vector<double> values;
        while (std::getline(fields, field, ',')) {
            char* end = nullptr;
            const double value = std::strtod(field.c_str(), &end);
            if (end == field.c_str() || *end != '\0') {
                throw std::runtime_error("reference: bad number in line: " + line);
            }
            values.push_back(value);
        }
        if (values.size() != 12) {
            throw std::runtime_error("reference: expected 12 fields in line: " + line);
        }
        ReferencePoint point;
        point.variant = static_cast<std::size_t>(values[0]);
        point.rate_index = static_cast<std::size_t>(values[1]);
        point.rate = values[2];
        Measures& m = point.measures;
        m.carried_data_traffic = values[3];
        m.packet_loss_probability = values[4];
        m.queueing_delay = values[5];
        m.throughput_per_user_kbps = values[6];
        m.mean_queue_length = values[7];
        m.carried_voice_traffic = values[8];
        m.average_gprs_sessions = values[9];
        m.gsm_blocking = values[10];
        m.gprs_blocking = values[11];
        points.push_back(point);
    }
    return points;
}

double relative_error(double got, double ref) {
    const double diff = std::fabs(got - ref);
    return ref == 0.0 ? diff : diff / std::fabs(ref);
}

Comparison compare_measures(const Measures& got, const Measures& ref) {
    Comparison comparison;
    comparison.plp_rel_err =
        relative_error(got.packet_loss_probability, ref.packet_loss_probability);
    for (const MeasureTolerance& tolerance : measure_tolerances()) {
        const double error = relative_error(got.*tolerance.field, ref.*tolerance.field);
        // Written so a NaN measure fails too.
        if (!(error <= tolerance.rel_tol) && comparison.ok) {
            comparison.ok = false;
            comparison.worst = std::string(tolerance.name) + " rel err " + json_number(error);
        }
    }
    return comparison;
}

// --- serve_mix load ---------------------------------------------------------

namespace {

/// Uniform in [0, 1) from the top 53 bits: identical on every platform,
/// unlike std::uniform_real_distribution.
double uniform(std::mt19937_64& rng) {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/// Population of 54 smoke-sized cells, small enough that a ctmc+des
/// validation request costs tens of milliseconds.
std::string cell_fields(int cell) {
    const int channels = 5 + cell % 3;
    const int buffer = 8 + 2 * ((cell / 3) % 3);
    const int sessions = 4 + 2 * ((cell / 9) % 2);
    static const double fractions[] = {0.05, 0.1, 0.2};
    char text[256];
    std::snprintf(text, sizeof(text),
                  "\"traffic_model\": 1, \"reserved_pdch\": 1, \"gprs_fraction\": %g, "
                  "\"channels\": %d, \"buffer\": %d, \"max_gprs_sessions\": %d, "
                  "\"rates\": {\"first\": 0.2, \"last\": 0.8, \"count\": 3}",
                  fractions[(cell / 18) % 3], channels, buffer, sessions);
    return text;
}

constexpr int kCells = 54;
/// Simulation seeds per cell: 432 distinct des slices, so a validation
/// request only rarely finds its simulation in the 64-entry warm store by
/// chance and the offered work stays the same from the first request on.
constexpr int kSeeds = 8;

std::string validate_spec(int cell, int seed) {
    return "{\"name\": \"serve_mix\", \"methods\": [\"ctmc\", \"des\"], " + cell_fields(cell) +
           ", \"solver\": {\"tolerance\": 1e-9, \"warm_start\": true}, "
           "\"simulation\": {\"replications\": 2, \"seed\": " +
           std::to_string(1 + seed) +
           ", \"warmup\": 50, \"batch_count\": 3, \"batch_duration\": 75, \"tcp\": true}}";
}

std::string cheap_spec(int cell, const char* method) {
    return std::string("{\"name\": \"serve_mix\", \"methods\": [\"") + method + "\"], " +
           cell_fields(cell) + "}";
}

}  // namespace

std::vector<ScheduledRequest> make_schedule(std::uint64_t seed, double rate, double duration) {
    std::mt19937_64 rng(seed);
    std::vector<ScheduledRequest> schedule;
    static const char* const cheap_methods[] = {"fixed-point", "fluid", "erlang"};
    // The mix is stratified: every block of 20 consecutive requests holds
    // 15 validations, 3 cheap requests and 2 repeats in a seeded order, so
    // a seed moves arrival times and cells but not the shares. Cells come
    // from shuffled decks of all 54, one deck for each kind, so a seed
    // moves the order of the cells but hardly the work they make.
    std::vector<const char*> block;
    std::vector<int> validate_deck;
    std::vector<int> cheap_deck;
    const auto deal = [&rng](std::vector<int>& deck) {
        if (deck.empty()) {
            for (int cell = 0; cell < kCells; ++cell) {
                deck.push_back(cell);
            }
            for (std::size_t i = deck.size() - 1; i > 0; --i) {
                std::swap(deck[i], deck[static_cast<std::size_t>(uniform(rng) * (i + 1))]);
            }
        }
        const int cell = deck.back();
        deck.pop_back();
        return cell;
    };
    double due = 0.0;
    while (true) {
        due += -std::log(1.0 - uniform(rng)) / rate;
        if (due >= duration) {
            break;
        }
        if (block.empty()) {
            block.assign(15, "validate");
            block.insert(block.end(), 3, "cheap");
            block.insert(block.end(), 2, "repeat");
            for (std::size_t i = block.size() - 1; i > 0; --i) {
                std::swap(block[i], block[static_cast<std::size_t>(uniform(rng) * (i + 1))]);
            }
        }
        ScheduledRequest request;
        request.due = due;
        request.kind = block.back();
        block.pop_back();
        if (request.kind == std::string("repeat") && !schedule.empty()) {
            // One of the last 16 requests: its slices are likely still in
            // the warm store (or in flight, which joins them).
            const std::size_t window = std::min<std::size_t>(16, schedule.size());
            const auto back = static_cast<std::size_t>(uniform(rng) * window);
            request.spec = schedule[schedule.size() - 1 - back].spec;
        } else if (request.kind == std::string("cheap")) {
            request.spec =
                cheap_spec(deal(cheap_deck), cheap_methods[static_cast<int>(uniform(rng) * 3)]);
        } else {
            request.kind = "validate";
            request.spec =
                validate_spec(deal(validate_deck), static_cast<int>(uniform(rng) * kSeeds));
        }
        schedule.push_back(std::move(request));
    }
    return schedule;
}

// --- probe -------------------------------------------------------------------

Probe probe_chain(const gprsim::core::Parameters& parameters, double tolerance,
                  const std::string& method) {
    namespace core = gprsim::core;
    namespace ctmc = gprsim::ctmc;
    Probe probe;
    auto t0 = Clock::now();
    core::GprsModel model(parameters);
    ctmc::SolveOptions options;
    options.initial = core::product_form_initial(parameters, model.balanced(), model.space());
    options.permutation = core::qbd_level_ordering(model.space());
    probe.build_s = seconds_since(t0);

    t0 = Clock::now();
    const ctmc::QtMatrix qt = model.generator().to_qt_matrix();
    probe.csr_s = seconds_since(t0);

    options.tolerance = tolerance;
    options.method = ctmc::method_from_name(method).value_or(ctmc::SolveMethod::auto_select);
    options.num_threads = 1;
    t0 = Clock::now();
    const ctmc::SolveResult result = ctmc::default_engine().solve(qt, options);
    probe.solve_s = seconds_since(t0);

    t0 = Clock::now();
    const core::Measures measures = core::compute_measures(parameters, model.balanced(),
                                                           model.space(), result.distribution);
    probe.measures_s = seconds_since(t0);
    if (!(measures.carried_data_traffic >= 0.0) || !result.converged) {
        throw std::runtime_error("probe solve did not converge");
    }

    const auto n = static_cast<double>(qt.size());
    const auto nnz = static_cast<double>(qt.off_diagonal().nonzeros());
    probe.states = static_cast<long long>(qt.size());
    probe.nnz = static_cast<long long>(nnz);
    probe.sweeps = static_cast<long long>(result.iterations);
    probe.residual_passes = static_cast<long long>(result.residual_evaluations);
    // One Gauss-Seidel sweep streams the CSR values and column indices,
    // the row pointers and the diagonal once, and reads and writes the
    // iterate once; gathers of x are assumed to hit cache.
    probe.bytes_per_sweep = nnz * (sizeof(double) + sizeof(ctmc::col_type)) +
                            (n + 1.0) * sizeof(ctmc::index_type) + n * sizeof(double) +
                            2.0 * n * sizeof(double);
    return probe;
}

}  // namespace perfbench
