// gprsim benchmark program.
//
//   gprsim_perfbench --workload <cell_sweep|lattice_fp|serve_mix> --seed <n>
//                    --seconds <s> --trace <0|1> --data <perfbench dir>
//                    --work <scratch dir> [--git-sha <sha>]
//   gprsim_perfbench --self-test
//   gprsim_perfbench --write-reference <cell_sweep|lattice_fp> --data <dir>
//
// Prints a metadata line and, last, the result line run.py forwards.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {

int run_self_test();  // selftest.cpp

namespace {

struct MetricSpec {
    const char* name;
    const char* unit;
};

// Keep in step with BENCHMARK.json.
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},     {"campaign_cpu_s", "s"}, {"ok_ratio", "ratio"},
    {"peak_rss_mb", "MB"}, {"plp_rel_err", "ratio"},
};

const MetricSpec kPerLayer[] = {
    {"ctmc.sweeps", "count"},
    {"ctmc.residual_passes", "count"},
    {"ctmc.solve_s", "s"},
    {"ctmc.sweep_us", "us"},
    {"ctmc.bytes_per_sweep", "B"},
    {"ctmc.warm_win_ratio", "ratio"},
    {"core.states", "count"},
    {"core.nnz", "count"},
    {"core.build_s", "s"},
    {"core.csr_s", "s"},
    {"core.measures_s", "s"},
    {"eval.tasks", "count"},
    {"eval.waves", "count"},
    {"eval.max_wave_width", "count"},
    {"eval.useful_task_ratio", "ratio"},
    {"eval.busy_ratio", "ratio"},
    {"eval.barrier_idle_s", "s"},
    {"network.outer_iterations", "count"},
    {"network.inner_solves", "count"},
    {"network.distinct_inner_ratio", "ratio"},
    {"network.inner_solve_s", "s"},
    {"sim.replications", "count"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.replication_s", "s"},
    {"queueing.fp_iterations", "count"},
    {"queueing.fp_s", "s"},
    {"service.admit_s", "s"},
    {"service.first_csv_s", "s"},
    {"service.stream_s", "s"},
    {"service.store_hit_ratio", "ratio"},
    {"service.saturated", "count"},
    {"service.queued_max", "count"},
    {"campaign.expand_s", "s"},
    {"campaign.assemble_s", "s"},
    {"campaign.csv_s", "s"},
    {"campaign.points", "count"},
    {"load.sent", "count"},
    {"load.late_max_s", "s"},
    {"trace_overhead_ratio", "ratio"},
};

int write_reference_file(const std::string& workload, const std::string& data_dir) {
    gprsim::campaign::ScenarioSpec spec =
        gprsim::campaign::parse_spec_file(data_dir + "/specs/" + workload + ".json");
    spec.solver.tolerance = 1e-12;
    gprsim::campaign::CampaignOptions options;
    options.num_threads = 0;
    const gprsim::campaign::CampaignResult result = gprsim::campaign::run_campaign(spec, options);
    const std::string path = data_dir + "/reference/" + workload + ".csv";
    std::ofstream out(path);
    write_reference(result, out);
    std::fprintf(stderr, "wrote %zu reference points to %s\n", result.points.size(),
                 path.c_str());
    return out ? 0 : 1;
}

/// Fills every end-to-end (trace off) or per-layer (trace on) metric the
/// workload did not report with 0 in its canonical unit, and flags names
/// outside the canonical lists.
void complete_metrics(bool trace, Report& report) {
    std::set<std::string> present;
    for (const auto& metric : report.metrics) {
        present.insert(metric.first);
    }
    std::set<std::string> known;
    const auto fill = [&](const MetricSpec* begin, const MetricSpec* end) {
        for (const MetricSpec* spec = begin; spec != end; ++spec) {
            known.insert(spec->name);
            if (present.count(spec->name) == 0) {
                report.metric(spec->name, 0.0, spec->unit);
            }
        }
    };
    if (trace) {
        fill(std::begin(kPerLayer), std::end(kPerLayer));
    } else {
        fill(std::begin(kEndToEnd), std::end(kEndToEnd));
    }
    for (const std::string& name : present) {
        if (known.count(name) == 0) {
            report.problem("metric " + name + " is not in BENCHMARK.json's list");
        }
    }
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--self-test") {
            return run_self_test();
        }
        if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
            std::fprintf(stderr, "usage: see the header of perfbench/src/main.cpp\n");
            return 2;
        }
        args[key.substr(2)] = argv[++i];
    }
    try {
        if (args.count("write-reference")) {
            return write_reference_file(args["write-reference"], args["data"]);
        }
        RunOptions options;
        options.workload = args["workload"];
        options.seed = std::stoull(args.count("seed") ? args["seed"] : "1");
        options.seconds = std::stod(args.count("seconds") ? args["seconds"] : "10");
        options.trace = args.count("trace") && args["trace"] == "1";
        options.data_dir = args["data"];
        options.work_dir = args.count("work") ? args["work"] : ".";
        options.threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

        Report report;
        report.note("workload", json_string(options.workload));
        report.note("seed", std::to_string(options.seed));
        report.note("seconds", json_number(options.seconds));
        report.note("trace", options.trace ? "true" : "false");
        report.note("host", host_json(args.count("git-sha") ? args["git-sha"] : "unknown"));
        if (options.workload == "cell_sweep" || options.workload == "lattice_fp") {
            run_batch_workload(options, report);
        } else if (options.workload == "serve_mix") {
            run_serve_workload(options, report);
        } else {
            std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
            return 2;
        }
        complete_metrics(options.trace, report);
        std::printf("%s\n%s\n", meta_line(report).c_str(), result_line(report).c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
