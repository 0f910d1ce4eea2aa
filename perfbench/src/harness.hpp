// Shared machinery of the gprsim benchmark: timing and percentile
// arithmetic, the result/metadata printer, host metadata, the committed
// reference measures, the seeded serve_mix load schedule, and the
// core -> ctmc probe solve. Everything here is a pure function of its
// inputs except the clock, so selftest.cpp can check it in isolation.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "campaign/runner.hpp"
#include "core/measures.hpp"
#include "core/parameters.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
}
inline double seconds_since(Clock::time_point from) {
    return seconds_between(from, Clock::now());
}

/// CPU seconds used so far by every thread of this process, live or
/// ended (CLOCK_PROCESS_CPUTIME_ID). On a paravirtualized guest the
/// kernel leaves out the time the host ran something else on the vCPU.
double process_cpu_seconds();

// --- statistics -------------------------------------------------------------

/// The p-quantile (0 < p < 1) as Python's statistics.quantiles computes it
/// with its default method="exclusive" (which extrapolates past the
/// extremes for small samples). Empty input gives 0, one sample itself.
double quantile(std::vector<double> samples, double p);
inline double median(std::vector<double> samples) { return quantile(std::move(samples), 0.5); }

/// A ratio that keeps its base: Report::ratio prints the value as the
/// metric and [numerator, denominator] in the metadata line.
struct Ratio {
    double numerator = 0.0;
    double denominator = 0.0;
    /// 0 when the base is empty (a layer the workload does not exercise).
    double value() const { return denominator > 0.0 ? numerator / denominator : 0.0; }
};

// --- result ---------------------------------------------------------------

/// One benchmark invocation's outcome: the final JSON line (correct,
/// attempted, failed, metrics) plus a metadata line printed before it.
struct Report {
    bool correct = true;
    long long attempted = 0;
    long long failed = 0;
    std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
    /// Metadata entries: key and an already-encoded JSON value.
    std::vector<std::pair<std::string, std::string>> meta;
    std::vector<std::string> problems;

    void metric(const std::string& name, double value, const std::string& unit) {
        metrics.push_back({name, {value, unit}});
    }
    /// Exact counters are printed as integers; the value is still a double
    /// in the JSON number sense.
    void counter(const std::string& name, long long value) {
        metric(name, static_cast<double>(value), "count");
    }
    void ratio(const std::string& name, const Ratio& r);
    /// A percentile together with the number of samples behind it.
    void percentile(const std::string& name, const std::vector<double>& samples, double p,
                    const std::string& unit);
    void note(const std::string& key, const std::string& json_value) {
        meta.push_back({key, json_value});
    }
    /// Marks the run incorrect and records why (printed to stderr and in
    /// the metadata line).
    void problem(const std::string& what);
};

std::string json_string(const std::string& text);
/// Shortest round-trip decimal form of a double (integers print without
/// a fraction, so exact counters read as integers).
std::string json_number(double value);
/// The metadata line: {"meta": {...}}.
std::string meta_line(const Report& report);
/// The final result line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}.
std::string result_line(const Report& report);

// --- host metadata --------------------------------------------------------

/// nproc, CPU model (from cpuid where available), compiler and version,
/// build type, and the git SHA handed in by run.py ("unknown" outside a
/// git checkout), encoded as a JSON object.
std::string host_json(const std::string& git_sha);
/// Peak resident set size of this process so far [MB].
double peak_rss_mb();

// --- reference measures ---------------------------------------------------

/// One point of a committed reference: the measures solved at tolerance
/// 1e-12, keyed by (variant, rate index).
struct ReferencePoint {
    std::size_t variant = 0;
    std::size_t rate_index = 0;
    double rate = 0.0;
    gprsim::core::Measures measures;
};

/// Writes the model measures of every point (the network aggregate for
/// network backends) as the reference CSV format read below.
void write_reference(const gprsim::campaign::CampaignResult& result, std::ostream& out);
/// Parses a reference CSV. Throws std::runtime_error on a malformed file.
std::vector<ReferencePoint> read_reference(std::istream& in);

/// Relative error |got - ref| / |ref|, with the absolute difference used
/// when the reference is exactly 0.
double relative_error(double got, double ref);

/// Outcome of comparing one point's measures with its reference.
struct Comparison {
    bool ok = true;
    double plp_rel_err = 0.0;
    /// First measure outside its tolerance, with its relative error.
    std::string worst;
};

/// Per-measure relative tolerances of the reference check (documented in
/// perfbench/README.md).
struct MeasureTolerance {
    const char* name;
    double gprsim::core::Measures::*field;
    double rel_tol;
};
const std::vector<MeasureTolerance>& measure_tolerances();

Comparison compare_measures(const gprsim::core::Measures& got,
                            const gprsim::core::Measures& ref);

// --- serve_mix load -------------------------------------------------------

/// One scheduled request of the open-loop stream.
struct ScheduledRequest {
    double due = 0.0;  ///< seconds after the stream starts
    /// "validate" (ctmc+des), "cheap" (fixed-point / fluid / erlang) or
    /// "repeat" (an earlier request's spec sent again).
    std::string kind;
    std::string spec;
};

/// Poisson arrivals at `rate` requests/s over [0, duration), with the
/// request mix drawn from the same seeded generator. Deterministic in
/// (seed, rate, duration) on every platform (own exponential and
/// uniform draws over std::mt19937_64).
std::vector<ScheduledRequest> make_schedule(std::uint64_t seed, double rate, double duration);

// --- the core -> ctmc probe -------------------------------------------------

/// One chain solved step by step through the model and solver layers'
/// public functions: the per-stage costs the campaign path hides.
struct Probe {
    long long states = 0;
    long long nnz = 0;           ///< off-diagonal entries of the transposed generator
    double build_s = 0.0;        ///< handover balance, state space, product-form guess
    double csr_s = 0.0;          ///< transposed generator to CSR
    double solve_s = 0.0;        ///< SolverEngine::solve
    double measures_s = 0.0;     ///< compute_measures
    long long sweeps = 0;
    long long residual_passes = 0;
    double bytes_per_sweep = 0.0;  ///< computed from n and nnz, not measured
};

/// Solves `parameters` at `tolerance` from the product-form start with
/// the `method` spelling, exactly like the ctmc backend's root points.
Probe probe_chain(const gprsim::core::Parameters& parameters, double tolerance,
                  const std::string& method);

}  // namespace perfbench
