// cell_sweep and lattice_fp: the CLI path (spec -> CSV) measured through
// campaign::CampaignRunner::run, and a traced run that performs the same
// merged batch step by step through the campaign and eval layers' public
// functions, timing each call from here.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>

#include "campaign/runner.hpp"
#include "campaign/sink.hpp"
#include "campaign/spec.hpp"
#include "ctmc/engine.hpp"
#include "eval/batch.hpp"
#include "eval/registry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace campaign = gprsim::campaign;
namespace eval = gprsim::eval;

namespace {

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw std::runtime_error("cannot read " + path);
    }
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::string csv_of(const campaign::CampaignResult& result) {
    std::ostringstream out;
    campaign::write_campaign_csv(result, out);
    return out.str();
}

/// The counters of one campaign run that must repeat exactly.
struct RunCounters {
    long long iterations = 0;
    long long sim_events = 0;
    long long tasks = 0;
    long long waves = 0;
    bool operator==(const RunCounters&) const = default;
};

RunCounters counters_of(const campaign::CampaignResult& result) {
    return {result.summary.total_iterations,
            static_cast<long long>(result.summary.sim_events),
            static_cast<long long>(result.summary.batch_tasks),
            static_cast<long long>(result.summary.batch_waves)};
}

// --- counting inner backend (traced lattice_fp) ------------------------------

/// Inner solves of network-fp as seen at the eval boundary: count, busy
/// time, chain sweeps, and distinct (cell parameters, pinned inflow)
/// problems.
struct InnerCounters {
    std::mutex mutex;
    long long solves = 0;
    long long sweeps = 0;
    double seconds = 0.0;
    std::set<std::string> distinct;

    void reset() {
        std::lock_guard<std::mutex> lock(mutex);
        solves = 0;
        sweeps = 0;
        seconds = 0.0;
        distinct.clear();
    }
};

InnerCounters& inner_counters() {
    static InnerCounters counters;
    return counters;
}

constexpr const char* kCountingInner = "perfbench-ctmc";

/// Every field that makes one inner cell problem differ from another.
std::string signature(const eval::ScenarioQuery& query) {
    const gprsim::core::Parameters p = query.resolved_parameters();
    char text[512];
    std::snprintf(text, sizeof(text), "%d %d %d %d %d %a %a %a %a %a %a %a %a %a %a %a %a %a",
                  p.total_channels, p.reserved_pdch, p.buffer_capacity, p.max_gprs_sessions,
                  p.pinned_handover ? 1 : 0, p.pdch_rate_kbps, p.block_error_rate,
                  p.call_arrival_rate, p.gprs_fraction, p.mean_gsm_call_duration,
                  p.mean_gsm_dwell_time, p.mean_gprs_dwell_time, p.gsm_handover_in,
                  p.gprs_handover_in, p.flow_control_threshold, p.traffic.packet_size_bits,
                  p.traffic.mean_session_duration(), query.solver.tolerance);
    return std::string(text) + " " + query.solver.method;
}

/// Delegates to the registered "ctmc" backend and records each call.
class CountingInner final : public eval::Evaluator {
public:
    explicit CountingInner(eval::Evaluator& inner) : inner_(inner) {}

    const std::string& name() const override {
        static const std::string n = kCountingInner;
        return n;
    }
    const std::string& description() const override {
        static const std::string d = "ctmc, counted by the benchmark's traced run";
        return d;
    }
    gprsim::common::Result<eval::PointEvaluation> evaluate(
        const eval::ScenarioQuery& query) override {
        const auto t0 = Clock::now();
        gprsim::common::Result<eval::PointEvaluation> point = inner_.evaluate(query);
        const double elapsed = seconds_since(t0);
        std::string key = signature(query);
        InnerCounters& counters = inner_counters();
        std::lock_guard<std::mutex> lock(counters.mutex);
        ++counters.solves;
        counters.seconds += elapsed;
        counters.sweeps += point.ok() ? point.value().iterations : 0;
        counters.distinct.insert(std::move(key));
        return point;
    }

private:
    eval::Evaluator& inner_;
};

void register_counting_inner() {
    // Resolved here, not in the factory: the registry runs factories under
    // its own lock.
    static const bool registered = [] {
        eval::Evaluator* ctmc = eval::BackendRegistry::global().find("ctmc").value();
        return eval::register_backend(kCountingInner, "ctmc, counted",
                                      [ctmc] { return std::make_unique<CountingInner>(*ctmc); })
            .ok();
    }();
    if (!registered) {
        throw std::runtime_error("cannot register the counting inner backend");
    }
}

// --- traced merged batch ------------------------------------------------------

struct TaskSpan {
    std::size_t wave = 0;
    Clock::time_point start;
    Clock::time_point end;
};

/// One traced campaign: the steps CampaignRunner::run performs, each
/// called and timed from here.
struct TracedRun {
    std::string csv;
    double total_s = 0.0;
    double expand_s = 0.0;
    double execute_s = 0.0;
    double assemble_s = 0.0;
    double csv_s = 0.0;
    eval::BatchStats stats;
    double busy_s = 0.0;
    double barrier_idle_s = 0.0;
    long long points = 0;
    long long chain_solves = 0;
    long long chain_sweeps = 0;
    long long warm_offered = 0;
    long long warm_won = 0;
    long long replications = 0;
    long long sim_events = 0;
    long long outer_iterations = 0;
    long long inner_solves = 0;
    long long inner_sweeps = 0;
    long long inner_distinct = 0;
    double inner_s = 0.0;
};

TracedRun traced_campaign(const campaign::ScenarioSpec& spec, gprsim::ctmc::SolverEngine& engine,
                          int threads) {
    TracedRun run;
    inner_counters().reset();
    const auto start = Clock::now();

    auto t0 = Clock::now();
    campaign::CampaignWorkload workload =
        campaign::build_campaign_workload(spec, campaign::CampaignOptions{});
    run.expand_s = seconds_since(t0);

    eval::GridOptions grid;
    grid.num_threads = threads;
    grid.pool = threads > 1 ? &engine.pool(threads) : nullptr;
    grid.warm_start = workload.effective.solver.warm_start;
    std::vector<eval::GridPlan> plans;
    for (const std::string& method : workload.effective.methods) {
        eval::Evaluator* backend = eval::BackendRegistry::global().find(method).value();
        plans.push_back(backend->plan_grids(workload.queries, workload.effective.rates, grid));
    }
    std::size_t total_tasks = 0;
    for (const eval::GridPlan& plan : plans) {
        total_tasks += plan.tasks.size();
    }
    std::vector<TaskSpan> spans(total_tasks);
    std::size_t slot = 0;
    for (eval::GridPlan& plan : plans) {
        for (eval::BatchTask& task : plan.tasks) {
            TaskSpan* span = &spans[slot++];
            span->wave = task.wave;
            task.run = [inner = std::move(task.run), span] {
                span->start = Clock::now();
                inner();
                span->end = Clock::now();
            };
        }
    }
    t0 = Clock::now();
    run.stats = eval::execute_plans(plans, grid);
    run.execute_s = seconds_since(t0);
    std::vector<std::vector<eval::GridOutcome>> outcomes;
    for (eval::GridPlan& plan : plans) {
        outcomes.push_back(plan.collect());
    }

    t0 = Clock::now();
    gprsim::common::Result<campaign::CampaignResult> assembled =
        campaign::assemble_campaign(workload, std::move(outcomes));
    if (!assembled.ok()) {
        throw std::runtime_error(assembled.error().message);
    }
    const campaign::CampaignResult result = assembled.take();
    run.assemble_s = seconds_since(t0);

    t0 = Clock::now();
    run.csv = csv_of(result);
    run.csv_s = seconds_since(t0);
    run.total_s = seconds_since(start);

    // Wave spans: first start to last end of each wave's tasks; threads
    // that ran nothing inside that window idled at the barrier.
    std::map<std::size_t, std::pair<Clock::time_point, Clock::time_point>> windows;
    std::map<std::size_t, double> wave_busy;
    for (const TaskSpan& span : spans) {
        const double busy = seconds_between(span.start, span.end);
        run.busy_s += busy;
        wave_busy[span.wave] += busy;
        auto [it, fresh] = windows.try_emplace(span.wave, span.start, span.end);
        if (!fresh) {
            it->second.first = std::min(it->second.first, span.start);
            it->second.second = std::max(it->second.second, span.end);
        }
    }
    for (const auto& [wave, window] : windows) {
        run.barrier_idle_s +=
            seconds_between(window.first, window.second) * threads - wave_busy[wave];
    }

    run.points = static_cast<long long>(result.points.size());
    for (const campaign::CampaignPoint& point : result.points) {
        for (const eval::PointEvaluation& evaluation : point.evaluations) {
            if (evaluation.backend == "ctmc") {
                ++run.chain_solves;
                run.chain_sweeps += evaluation.iterations;
            }
            if (evaluation.has_confidence) {
                run.replications += static_cast<long long>(evaluation.sim.replications.size());
                run.sim_events += static_cast<long long>(evaluation.sim.events_executed);
            }
            if (!evaluation.cell_measures.empty()) {
                run.outer_iterations += evaluation.iterations;
            }
        }
    }
    run.warm_offered = static_cast<long long>(result.summary.warm_offered_solves);
    run.warm_won = static_cast<long long>(result.summary.warm_started_solves);
    InnerCounters& inner = inner_counters();
    {
        std::lock_guard<std::mutex> lock(inner.mutex);
        run.inner_solves = inner.solves;
        run.inner_sweeps = inner.sweeps;
        run.inner_distinct = static_cast<long long>(inner.distinct.size());
        run.inner_s = inner.seconds;
    }
    return run;
}

/// Medians over the traced repeats of a member.
template <typename F>
double median_of(const std::vector<TracedRun>& runs, F field) {
    std::vector<double> values;
    for (const TracedRun& run : runs) {
        values.push_back(field(run));
    }
    return median(values);
}

/// Compares the first run's measures with the committed reference; each
/// mismatch is a problem. Returns the number of mismatching points and
/// raises `plp_rel_err` to the largest PLP error seen.
long long check_reference(const campaign::CampaignResult& result,
                          const std::vector<ReferencePoint>& reference, double& plp_rel_err,
                          Report& report) {
    long long failures = 0;
    if (result.points.size() != reference.size()) {
        report.problem("reference has " + std::to_string(reference.size()) + " points, run has " +
                       std::to_string(result.points.size()));
        ++failures;
    }
    for (std::size_t i = 0; i < result.points.size() && i < reference.size(); ++i) {
        const campaign::CampaignPoint& point = result.points[i];
        const ReferencePoint& ref = reference[i];
        if (ref.variant != point.variant || ref.rate_index != point.rate_index ||
            ref.rate != point.call_arrival_rate) {
            report.problem("reference point " + std::to_string(i) + " keys differ");
            ++failures;
            continue;
        }
        const Comparison comparison =
            compare_measures(point.evaluations.front().measures, ref.measures);
        plp_rel_err = std::max(plp_rel_err, comparison.plp_rel_err);
        if (!comparison.ok) {
            report.problem("point " + std::to_string(i) + ": " + comparison.worst);
            ++failures;
        }
    }
    return failures;
}

}  // namespace

void run_batch_workload(const RunOptions& options, Report& report) {
    const std::string spec_text =
        read_file(options.data_dir + "/specs/" + options.workload + ".json");
    std::istringstream reference_text(
        read_file(options.data_dir + "/reference/" + options.workload + ".csv"));
    const std::vector<ReferencePoint> reference = read_reference(reference_text);
    // End to end on one worker thread, so a campaign's CPU time is its
    // wall time on an idle host and no wave waits on a busy core. The
    // traced run uses every hardware thread, so the scheduler's idle
    // time shows in the eval layer's metrics.
    const int threads = options.trace ? options.threads : 1;
    report.note("threads", std::to_string(threads));

    // Set-up: engine start, spec parse and expansion. Repeated, the median
    // reported; the last engine serves the run.
    std::unique_ptr<gprsim::ctmc::SolverEngine> engine;
    campaign::ScenarioSpec spec;
    std::vector<double> setup_samples;
    for (int i = 0; i < 201; ++i) {
        engine.reset();
        const double cpu0 = process_cpu_seconds();
        auto fresh = std::make_unique<gprsim::ctmc::SolverEngine>(threads);
        spec = campaign::parse_spec(spec_text);
        const campaign::CampaignWorkload workload = campaign::build_campaign_workload(spec);
        setup_samples.push_back(process_cpu_seconds() - cpu0);
        engine = std::move(fresh);
    }
    campaign::CampaignRunner runner(*engine);
    campaign::CampaignOptions campaign_options;
    campaign_options.num_threads = threads;

    // Untimed pass: the spec cut to its first rate, so lazy allocations
    // and first-touch page faults land before timing.
    campaign::ScenarioSpec warm_spec = spec;
    warm_spec.rates.resize(1);
    runner.run(warm_spec, campaign_options);

    // Timed runs. Tracing off: only CampaignRunner::run and the CSV
    // write. Tracing on: each untraced run is paired with a traced one.
    // The first run's CSV is checked against the reference, and every
    // later run must reproduce it byte for byte.
    std::vector<double> campaign_cpu;
    std::vector<double> campaign_wall;
    std::vector<TracedRun> traced;
    std::string expected_csv;
    RunCounters expected_counters;
    long long root_point_sweeps = 0;
    long long reference_failures = 0;
    double plp_rel_err = 0.0;
    long long failed = 0;
    if (options.trace && spec.network.enabled) {
        register_counting_inner();
    }
    campaign::ScenarioSpec traced_spec = spec;
    if (spec.network.enabled) {
        traced_spec.network.inner_backend = kCountingInner;
    }
    const auto loop_start = Clock::now();
    while (campaign_cpu.size() < 3 || seconds_since(loop_start) < options.seconds) {
        const auto t0 = Clock::now();
        const double cpu0 = process_cpu_seconds();
        const campaign::CampaignResult result = runner.run(spec, campaign_options);
        const std::string csv = csv_of(result);
        campaign_cpu.push_back(process_cpu_seconds() - cpu0);
        campaign_wall.push_back(seconds_since(t0));

        if (campaign_cpu.size() == 1) {
            expected_csv = csv;
            expected_counters = counters_of(result);
            root_point_sweeps = result.points.front().iterations;
            reference_failures = check_reference(result, reference, plp_rel_err, report);
        } else if (csv != expected_csv || counters_of(result) != expected_counters) {
            report.problem("run " + std::to_string(campaign_cpu.size()) +
                           ": CSV or counters differ from the first run");
            ++failed;
        }

        if (options.trace) {
            traced.push_back(traced_campaign(traced_spec, *engine, threads));
            if (traced.back().csv != expected_csv) {
                report.problem("traced run CSV differs from the untraced CSV");
            }
        }
    }
    // A campaign is one attempt; a reference mismatch fails every run.
    report.attempted = static_cast<long long>(campaign_cpu.size());
    report.failed = reference_failures > 0 ? report.attempted : failed;
    report.note("reference_failures", std::to_string(reference_failures));
    report.note("campaign_runs", std::to_string(campaign_cpu.size()));
    report.note("campaign_wall_s", json_number(median(campaign_wall)));
    report.note("counters", "{\"iterations\": " + std::to_string(expected_counters.iterations) +
                                ", \"sim_events\": " +
                                std::to_string(expected_counters.sim_events) +
                                ", \"tasks\": " + std::to_string(expected_counters.tasks) +
                                ", \"waves\": " + std::to_string(expected_counters.waves) + "}");

    if (!options.trace) {
        report.percentile("setup_s", setup_samples, 0.5, "s");
        report.percentile("campaign_cpu_s", campaign_cpu, 0.5, "s");
        report.ratio("ok_ratio", {static_cast<double>(report.attempted - report.failed),
                                  static_cast<double>(report.attempted)});
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        report.metric("plp_rel_err", plp_rel_err, "ratio");
        return;
    }

    // --- traced: per-layer metrics ---------------------------------------
    const TracedRun& first = traced.front();
    for (const TracedRun& run : traced) {
        if (run.chain_sweeps != first.chain_sweeps || run.inner_sweeps != first.inner_sweeps ||
            run.sim_events != first.sim_events || run.stats.tasks != first.stats.tasks ||
            run.stats.waves != first.stats.waves || run.inner_solves != first.inner_solves) {
            report.problem("exact counters differ between traced repeats");
        }
    }
    std::vector<double> traced_totals;
    for (const TracedRun& run : traced) {
        traced_totals.push_back(run.total_s);
    }
    report.ratio("trace_overhead_ratio", {median(traced_totals), median(campaign_wall)});

    // The core -> ctmc probe: the workload's first point, solved twice.
    campaign::CampaignWorkload workload = campaign::build_campaign_workload(spec);
    gprsim::core::Parameters cell = workload.queries.front().resolved_parameters();
    cell.call_arrival_rate = spec.rates.front();
    std::vector<Probe> probes;
    for (int i = 0; i < 2; ++i) {
        probes.push_back(probe_chain(cell, spec.solver.tolerance, spec.solver.method));
    }
    if (probes[0].states != probes[1].states || probes[0].nnz != probes[1].nnz ||
        probes[0].sweeps != probes[1].sweeps ||
        probes[0].residual_passes != probes[1].residual_passes) {
        report.problem("probe counters differ between repeats");
    }
    if (!spec.network.enabled && probes[0].sweeps != root_point_sweeps) {
        report.problem("probe sweeps differ from the campaign's first point");
    }
    const auto probe_median = [&probes](double Probe::*field) {
        return median({probes[0].*field, probes[1].*field});
    };
    const Probe& probe = probes.front();
    report.counter("core.states", probe.states);
    report.counter("core.nnz", probe.nnz);
    report.metric("core.build_s", probe_median(&Probe::build_s), "s");
    report.metric("core.csr_s", probe_median(&Probe::csr_s), "s");
    report.metric("core.measures_s", probe_median(&Probe::measures_s), "s");
    report.counter("ctmc.residual_passes", probe.residual_passes);
    report.metric("ctmc.solve_s", probe_median(&Probe::solve_s), "s");
    report.metric("ctmc.sweep_us",
                  1e6 * probe_median(&Probe::solve_s) / static_cast<double>(probe.sweeps), "us");
    report.metric("ctmc.bytes_per_sweep", probe.bytes_per_sweep, "B");
    report.counter("ctmc.sweeps", first.chain_sweeps + first.inner_sweeps);
    report.ratio("ctmc.warm_win_ratio", {static_cast<double>(first.warm_won),
                                         static_cast<double>(first.warm_offered)});

    const double useful = static_cast<double>(first.chain_solves + first.replications +
                                              first.inner_solves);
    report.counter("eval.tasks", static_cast<long long>(first.stats.tasks));
    report.counter("eval.waves", static_cast<long long>(first.stats.waves));
    report.counter("eval.max_wave_width", static_cast<long long>(first.stats.max_wave_width));
    report.ratio("eval.useful_task_ratio", {useful, static_cast<double>(first.stats.tasks)});
    report.ratio("eval.busy_ratio",
                 {median_of(traced, [](const TracedRun& r) { return r.busy_s; }),
                  median_of(traced, [](const TracedRun& r) { return r.execute_s; }) *
                      threads});
    report.metric("eval.barrier_idle_s",
                  median_of(traced, [](const TracedRun& r) { return r.barrier_idle_s; }), "s");

    report.counter("network.outer_iterations", first.outer_iterations);
    report.counter("network.inner_solves", first.inner_solves);
    report.ratio("network.distinct_inner_ratio", {static_cast<double>(first.inner_distinct),
                                                  static_cast<double>(first.inner_solves)});
    report.metric("network.inner_solve_s",
                  median_of(traced, [](const TracedRun& r) { return r.inner_s; }), "s");

    report.counter("sim.replications", first.replications);
    report.counter("sim.events", first.sim_events);

    report.metric("campaign.expand_s",
                  median_of(traced, [](const TracedRun& r) { return r.expand_s; }), "s");
    report.metric("campaign.assemble_s",
                  median_of(traced, [](const TracedRun& r) { return r.assemble_s; }), "s");
    report.metric("campaign.csv_s",
                  median_of(traced, [](const TracedRun& r) { return r.csv_s; }), "s");
    report.counter("campaign.points", first.points);
    report.note("traced_runs", std::to_string(traced.size()));
}

}  // namespace perfbench
