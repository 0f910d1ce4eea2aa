// Generator-matrix views of the GPRS Markov chain.
//
// GprsGenerator is a matrix-free transposed-generator operator (satisfies
// ctmc::QtOperatorConcept): rows are enumerated on the fly from the Table 1
// transition structure, so even the 22-million-state chain of the paper's
// Fig. 10 (M = 150) can be solved without storing a matrix. to_qt_matrix()
// materializes the same operator as CSR when memory allows — roughly an
// order of magnitude faster per Gauss-Seidel sweep.
#pragma once

#include <cstddef>

#include "ctmc/solver.hpp"
#include "ctmc/sparse_matrix.hpp"
#include "core/parameters.hpp"
#include "core/state_space.hpp"
#include "core/transitions.hpp"

namespace gprsim::core {

class GprsGenerator {
public:
    /// `parameters` must be validated; `rates` normally comes from
    /// balance_handover() so that handover flows are in equilibrium.
    GprsGenerator(Parameters parameters, ModelRates rates);

    const Parameters& parameters() const { return parameters_; }
    const ModelRates& rates() const { return rates_; }
    const StateSpace& space() const { return space_; }

    // --- ctmc::QtOperatorConcept ---------------------------------------
    common::index_type size() const { return space_.size(); }
    /// K + 1: the codec stores the buffer level k outermost, and k moves
    /// one level at a time while the phase (n, m, r) keeps still.
    common::index_type levels() const { return space_.buffer_capacity() + 1; }

    double diagonal(common::index_type i) const {
        return -total_exit_rate(parameters_, rates_, space_.state_of(i));
    }

    template <typename F>
    void for_each_incoming(common::index_type i, F&& f) const {
        const State s = space_.state_of(i);
        core::for_each_incoming(parameters_, rates_, s,
                                [&](const State& pred, double rate) {
                                    f(space_.index_of(pred), rate);
                                });
    }

    // --- materialized forms ---------------------------------------------
    /// Transposed generator in CSR form (off-diagonal) plus diagonal array,
    /// with levels() levels: its rows are stored phase column by phase
    /// column (see ctmc::QtMatrix).
    ctmc::QtMatrix to_qt_matrix() const;

    /// The generator Q itself (diagonal included); used by GTH ground-truth
    /// solves in tests. O(n^2) memory via dense GTH, so small configs only.
    ctmc::SparseMatrix to_generator_matrix() const;

    /// Estimated heap footprint of to_qt_matrix(), used to decide between
    /// the CSR and matrix-free solve paths.
    std::size_t estimated_qt_bytes() const;

private:
    Parameters parameters_;
    ModelRates rates_;
    StateSpace space_;
};

}  // namespace gprsim::core
