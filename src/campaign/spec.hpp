// Declarative scenario campaigns (the batched front end of the paper's
// evaluation): a ScenarioSpec names a cartesian product of cell
// configurations — traffic model x reserved PDCHs x GPRS fraction x coding
// scheme x session cap — crossed with an arrival-rate grid, and names the
// eval backends each point runs through: any list of names registered in
// eval::BackendRegistry ("erlang", "ctmc", "des", "mm1k-approx", or an
// out-of-tree backend). Specs come from a small JSON-ish text format
// (parse_spec, with line-numbered errors) or from the chainable builder
// methods; CampaignRunner (runner.hpp) expands and executes them.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/coding_scheme.hpp"
#include "core/parameters.hpp"

namespace gprsim::campaign {

/// Spec-level error (parse or validation) with the 1-based line of the
/// offending construct; line() is 0 for programmatically built specs.
class SpecError : public std::invalid_argument {
public:
    /// `annotate` appends " (line N)" to the message; pass false when the
    /// message already carries its position (e.g. a rethrown JsonError).
    SpecError(const std::string& message, int line, bool annotate = true)
        : std::invalid_argument(annotate && line > 0
                                    ? message + " (line " + std::to_string(line) + ")"
                                    : message),
          line_(line) {}

    int line() const { return line_; }

private:
    int line_ = 0;
};

/// Chain-solve settings shared by every model point of the campaign.
struct SolverSpec {
    double tolerance = 1e-9;
    /// No effect (every point solves from its own product-form guess);
    /// kept only because perfbench reads it.
    bool warm_start = true;
    /// Iteration scheme for the chain solves: "gauss_seidel" or its second
    /// spelling "auto" (the default). Any other spelling is a SpecError.
    std::string method = "auto";
};

/// Replication-experiment settings shared by every DES point.
struct SimulationSpec {
    int replications = 4;
    std::uint64_t seed = 1;
    double warmup_time = 1500.0;
    int batch_count = 10;
    double batch_duration = 1500.0;  ///< [s]
    bool tcp = true;                 ///< TCP Reno vs open-loop sources
};

/// Approximation-backend knobs (the "fixed-point" and "fluid" evaluators)
/// shared by every point; mirrors eval::ApproxKnobs. Backends that do not
/// approximate ignore the block.
struct ApproxSpec {
    double fp_tolerance = 1e-10;    ///< fixed-point residual target
    double fp_damping = 1.0;        ///< iterate step fraction in (0, 1]
    int fp_max_iterations = 5000;
    double ode_rel_tol = 1e-8;      ///< fluid RK4(5) relative tolerance
    double ode_abs_tol = 1e-10;
    long long ode_max_steps = 200000;
    double ode_stationary_rate = 1e-9;  ///< drift-norm stationarity bound [1/s]
};

/// Multi-cell network block (the "network-fp" / "network-des" evaluators).
/// `enabled` gates everything: a spec without a "network" block expands to
/// the classic single-cell campaign. The three vectors are variant axes
/// crossed into the cartesian product (innermost, after max_gprs_sessions);
/// the scalars are shared by every variant. Mirrors eval::NetworkKnobs.
struct NetworkSpec {
    bool enabled = false;
    /// Cell-count axis; each count n becomes the most-square w x h lattice
    /// with w <= h (largest divisor of n at most sqrt(n)).
    std::vector<int> cell_counts{4};
    std::vector<double> speeds_kmh{3.0};  ///< mobility axis [km/h]
    std::vector<int> reuse_factors{1};    ///< frequency-reuse pattern axis
    std::string topology = "grid4";       ///< grid4 | grid8 | hex | clique
    bool wrap = true;                     ///< torus vs hard lattice edge
    int ra_block = 0;                     ///< routing-area tile, 0 = one RA
    double reference_speed_kmh = 3.0;     ///< speed at which dwell = preset
    double drift = 0.0;                   ///< eastward bias in [0, 1)
    std::string inner_backend = "ctmc";   ///< network-fp per-cell solver
    double outer_tolerance = 1e-12;       ///< inflow residual target
    double outer_damping = 1.0;           ///< inflow step fraction (0, 1]
    int outer_max_iterations = 50;
};

/// One resolved cell configuration of the cartesian product. `parameters`
/// is complete except for call_arrival_rate, which the runner sets per grid
/// point.
struct Variant {
    std::string label;  ///< e.g. "tm3 pdch=1 gprs=5% CS-2"
    int traffic_model = 1;      ///< Table 3 preset id; 0 for trace variants
    /// Trace file path when this variant's traffic came from a fitted
    /// arrival trace ("traffic_model": "trace:<file>"); empty for presets.
    std::string traffic_trace;
    int reserved_pdch = 1;
    double gprs_fraction = 0.05;
    core::CodingScheme coding_scheme = core::CodingScheme::cs2;
    int max_gprs_sessions = 0;  ///< 0 = the traffic-model preset's M
    core::Parameters parameters;

    // --- network axes (meaningful only when NetworkSpec::enabled) --------
    int network_cells = 0;  ///< 0 = single-cell campaign (no network block)
    int cells_x = 0;        ///< lattice shape resolved from network_cells
    int cells_y = 0;
    double speed_kmh = 0.0;
    int reuse_factor = 0;
};

struct ScenarioSpec {
    std::string name = "campaign";
    /// Registered backend names each point is evaluated with, in order.
    /// The first backend is the delta reference (runner.hpp); duplicates
    /// are rejected. Legacy single-method strings parse as one-element
    /// lists and "both" expands to {"ctmc", "des"}.
    std::vector<std::string> methods{"ctmc"};

    // --- variant axes (cartesian product, outermost first) ---------------
    std::vector<int> traffic_models{1};
    /// Trace-workload extension of the traffic axis: arrival-trace files,
    /// each fitted to an IPP/3GPP model during expand() (traffic/trace.hpp)
    /// and crossed into the product after the integer presets. Spec files
    /// spell these as "traffic_model": "trace:<file>" entries.
    std::vector<std::string> traffic_traces;
    std::vector<int> reserved_pdch{1};
    std::vector<double> gprs_fractions{0.05};
    std::vector<core::CodingScheme> coding_schemes{core::CodingScheme::cs2};
    /// Session-cap axis; 0 keeps the preset M of the traffic model.
    std::vector<int> max_gprs_sessions{0};

    // --- scalar overrides shared by every variant ------------------------
    int total_channels = 20;
    int buffer_capacity = 100;
    double flow_control_threshold = 0.7;
    double block_error_rate = 0.0;

    /// Arrival-rate grid (the x-axis); required, ascending.
    std::vector<double> rates;

    SolverSpec solver;
    SimulationSpec simulation;
    ApproxSpec approx;
    NetworkSpec network;

    // --- chainable builders ----------------------------------------------
    ScenarioSpec& named(std::string value);
    /// Single backend ("ctmc") or legacy alias ("both" -> ctmc + des).
    ScenarioSpec& with_method(const std::string& value);
    ScenarioSpec& with_methods(std::vector<std::string> values);
    ScenarioSpec& over_traffic_models(std::vector<int> values);
    /// Trace-workload axis: arrival-trace file paths (fitted in expand()).
    ScenarioSpec& over_traffic_traces(std::vector<std::string> values);
    ScenarioSpec& over_reserved_pdch(std::vector<int> values);
    ScenarioSpec& over_gprs_fractions(std::vector<double> values);
    ScenarioSpec& over_coding_schemes(std::vector<core::CodingScheme> values);
    ScenarioSpec& over_session_limits(std::vector<int> values);
    /// Evenly spaced grid [first, last] with count >= 2 points.
    ScenarioSpec& with_rate_grid(double first, double last, int count);
    ScenarioSpec& with_rates(std::vector<double> values);
    ScenarioSpec& with_tolerance(double value);
    /// Iteration scheme (SolverSpec::method): "auto" or "gauss_seidel".
    ScenarioSpec& with_solver_method(std::string value);
    ScenarioSpec& with_replications(int value);
    ScenarioSpec& with_seed(std::uint64_t value);
    /// Approximation-backend knob block (fixed-point / fluid).
    ScenarioSpec& with_approx(ApproxSpec value);
    /// Multi-cell network block; sets enabled = true.
    ScenarioSpec& with_network(NetworkSpec value);

    /// Number of variants (product of the axis sizes) and grid points.
    std::size_t variant_count() const;
    std::size_t point_count() const { return variant_count() * rates.size(); }

    /// Whether `backend` appears in `methods`.
    bool uses_backend(const std::string& backend) const;

    /// Throws SpecError when the spec is inconsistent (empty axes, empty or
    /// unsorted grid, bad ranges, a method name missing from the global
    /// BackendRegistry). Axis entries are validated individually; the
    /// per-variant Parameters::validate runs during expand().
    void validate() const;

    /// Validates, then materializes the cartesian product in deterministic
    /// order: the traffic axis (integer presets first, then traces, each in
    /// listed order, outermost) > reserved_pdch > gprs_fractions >
    /// coding_schemes > max_gprs_sessions > [network.cell_counts >
    /// network.speeds_kmh > network.reuse_factors] (innermost; network axes
    /// only when the network block is enabled). The runner's point order,
    /// the sinks' row order, and the benches' table indexing all rely on
    /// this order.
    std::vector<Variant> expand() const;
};

/// Parses the JSON-ish spec format. Top-level keys:
///   "name"               string
///   "methods"            array of registered backend names, e.g.
///                        ["ctmc", "des", "mm1k-approx"]
///   "method"             legacy single-string form: any backend name, or
///                        the alias "both" (= ["ctmc", "des"])
///   "traffic_model"      1|2|3 or "trace:<file>" (an arrival trace fitted
///                        to an IPP/3GPP model), or an array mixing both;
///                        presets expand before traces regardless of the
///                        listed order
///   "reserved_pdch"      int or array
///   "gprs_fraction"      number in (0,1) or array
///   "coding_scheme"      "cs1".."cs4" (or "CS-1".."CS-4"), or an array
///   "max_gprs_sessions"  int or array (0 = preset M)
///   "channels"           int        "buffer"   int
///   "eta"                number     "bler"     number
///   "rates"              array of numbers, or {"first","last","count"}
///   "solver"             {"tolerance", "warm_start", "method"};
///                        "warm_start" must be a boolean and has no effect
///   "simulation"         {"replications","seed","warmup","batch_count",
///                         "batch_duration","tcp"}
///   "approx"             {"fp_tolerance","fp_damping","fp_max_iterations",
///                         "ode_rel_tol","ode_abs_tol","ode_max_steps",
///                         "ode_stationary_rate"}
///   "network"            {"cells" int or array, "speeds_kmh" number or
///                         array, "reuse" int or array, "topology","wrap",
///                         "ra_block","reference_speed_kmh","drift",
///                         "inner","tolerance","damping",
///                         "max_outer_iterations"}; presence of the block
///                         enables multi-cell expansion
/// Unknown keys are rejected. All errors — syntax and semantic alike — are
/// thrown as SpecError carrying the offending 1-based line.
ScenarioSpec parse_spec(const std::string& text);

/// Reads and parses a spec file; throws SpecError when unreadable.
/// Relative "trace:<file>" paths are resolved against the spec file's
/// directory, so campaign specs can ship next to their captures.
ScenarioSpec parse_spec_file(const std::string& path);

}  // namespace gprsim::campaign
