// The analytic network coupling: an outer fixed-point iteration over the
// lattice's incoming handover flows, with each cell solved by a delegated
// single-cell backend under a pinned external inflow.
//
// The paper balances one cell's handover flow against its own outflow
// (Eq. 4-5); on a lattice the incoming flow of cell j is instead set by
// its neighbors' populations through the mobility matrices:
//
//   in_v[j] = sum_i  E[n_v,i] * H_gsm[i][j]       (and likewise sessions)
//
// The outer loop alternates independent per-cell solves at pinned inflows
// (Parameters::pinned_handover — any registered analytic backend works as
// the inner solve) with a serial damped update of the inflow vector. On a
// homogeneous wrapped lattice the doubly-stochastic mobility matrices make
// the paper's self-balanced single cell the exact fixed point, which the
// network symmetry tests pin to 1e-10.
//
// Inner-solve memo: solve_cell() looks its inner query up in an
// eval::Memo keyed by eval::query_signature(inner backend, inner query),
// so identical cell problems — every cell of a homogeneous lattice, and
// the same cell at the same speed and rate in every lattice of a campaign
// — are solved once. The leader calls the inner backend; followers copy
// its result. Inner backends are pure functions of their query, so a copy
// is bit-identical to a fresh solve and the per-cell slot receives the
// same measures and iterations either way. The inner query's network
// block is reset to eval::NetworkKnobs{}: it carries the OUTER problem's
// knobs, which no single-cell backend reads, and would otherwise keep
// lattices of different shapes from ever sharing a key.
//
// Determinism contract: solve_cell() calls within one outer iteration are
// independent (they read the iteration's frozen inflows and write disjoint
// per-cell slots), and every reduction — the inflow update, residuals,
// aggregation — runs serially in fixed cell order inside advance() /
// finish(). The serial solve() entry point and the wave-ordered plan of
// the network-fp backend execute the identical call sequence, so results
// are bitwise invariant to thread count and dispatch mode.
#pragma once

#include <memory>
#include <vector>

#include "common/result.hpp"
#include "core/measures.hpp"
#include "eval/evaluator.hpp"
#include "eval/memo.hpp"
#include "network/lattice.hpp"
#include "network/mobility.hpp"

namespace gprsim::network {

struct NetworkOptions {
    double tolerance = 1e-12;  ///< max relative inflow change across cells
    double damping = 1.0;      ///< inflow step fraction in (0, 1]
    int max_outer_iterations = 50;
};

struct NetworkSolution {
    std::vector<core::Measures> cells;   ///< per-cell measures, cell order
    core::Measures aggregate;            ///< network aggregate (see below)
    std::vector<double> cell_residuals;  ///< per-cell inflow change at the last fold
    int outer_iterations = 0;
    double residual = 0.0;  ///< max of cell_residuals
    bool converged = false;
    double rau_rate = 0.0;  ///< routing-area updates per second, network-wide
    long long inner_iterations = 0;  ///< summed over all inner solves
};

/// Network aggregate of per-cell measures: per-cell means for the
/// extensive quantities (CDT, MQL, CVT, AGS, offered rate, throughput) so
/// aggregates stay comparable to single-cell values at any lattice size;
/// flow-weighted means for the ratios (PLP by offered packet rate, QD and
/// ATU by carried data / sessions) so empty cells cannot dilute them; plain
/// means for the blocking probabilities. Uniform fallback when a weight
/// vector sums to zero.
core::Measures aggregate_measures(const std::vector<core::Measures>& cells);

/// Memo of finished inner single-cell evaluations (see above). Its owner
/// scopes reuse: solve() owns one per call, the network-fp plan one per
/// plan shared by every point of the batch.
using InnerMemo = eval::Memo<common::Result<eval::PointEvaluation>>;

/// One network fixed-point computation, exposed as separate phases so the
/// network-fp backend can lay the per-cell solves of each outer iteration
/// onto a shared thread pool as one wave of tasks:
///
///   while (!done()) { solve_cell(0..n-1, memo)  [any order / concurrently];
///                     advance()                 [serial, once per iteration]; }
///   finish()
///
/// solve() runs that loop serially with a memo of its own — same calls,
/// same order, bitwise the same result.
class NetworkFixedPoint {
public:
    /// `cell_query` supplies the per-cell knob blocks (solver, approx) and
    /// the base arrival rate; per-cell parameters and arrival rates come
    /// from the lattice. `inner` must outlive this object.
    NetworkFixedPoint(CellLattice lattice, const MobilityModel& mobility,
                      const eval::ScenarioQuery& cell_query, eval::Evaluator& inner,
                      const NetworkOptions& options);
    ~NetworkFixedPoint();

    int cell_count() const;
    /// True once converged, failed, or at the iteration cap; later
    /// solve_cell() calls are no-ops.
    bool done() const;
    int iterations() const;

    /// Solves cell `cell` at the current iteration's pinned inflows
    /// through `memo` (which may be shared with other fixed points).
    /// Thread-safe across DISTINCT cells of one iteration; never throws.
    void solve_cell(int cell, InnerMemo& memo);
    /// Folds the iteration's cell solves into new damped inflows and the
    /// convergence decision. Serial; call exactly once after each full
    /// round of solve_cell().
    void advance();
    /// Assembles the solution (serial). Typed non_convergence error when
    /// the outer loop hit the iteration cap, inner-solve errors forwarded
    /// with their cell named.
    common::Result<NetworkSolution> finish();

    /// The serial reference path: full solve in one call.
    common::Result<NetworkSolution> solve();

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

}  // namespace gprsim::network
