// The benchmark's workloads. Each fills a Report with either the
// end-to-end metrics (tracing off) or the per-layer metrics of a traced
// run; main.cpp prints it.
#pragma once

#include <cstdint>
#include <string>

#include "harness.hpp"

namespace perfbench {

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Directory holding specs/ and reference/ (the benchmark's own).
    std::string data_dir;
    /// Scratch directory inside the checkout (the serve_mix socket).
    std::string work_dir;
    /// Worker width: the machine's hardware threads.
    int threads = 1;
};

/// cell_sweep and lattice_fp: one campaign spec run repeatedly through
/// campaign::CampaignRunner::run.
void run_batch_workload(const RunOptions& options, Report& report);

/// serve_mix: a seeded open-loop request stream into an in-process
/// service::Server.
void run_serve_workload(const RunOptions& options, Report& report);

}  // namespace perfbench
