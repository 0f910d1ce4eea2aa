// Row-ordering support for the steady-state solvers: permutation helpers
// and QtMatrix reindexing.
//
// A permutation is spelled as `order[new] = old` — position p of the
// reordered system holds what position order[p] held in the caller's
// indexing. SolveOptions::permutation uses this convention: the engine
// solves the reordered system (Gauss-Seidel sweeps then walk the rows in
// the order the permutation prescribes) and inverse-applies the
// permutation to the distribution before returning, so callers never see
// internal indices.
//
// A reindexed matrix has one level: a permutation generally breaks the
// level-outermost layout the line sweep relies on (kernels.hpp), so the
// reordered system is swept point by point. The GPRS generator needs no
// reordering: its StateSpace codec stores the buffer level outermost and
// its operators declare that layout through levels(). The machinery below
// exists for alternative codecs and is validated by the scramble/round-trip
// tests in tests/ctmc/ordering_test.cpp.
#pragma once

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ctmc/solver_options.hpp"

namespace gprsim::ctmc {

/// Whether `order` maps every position to itself. An empty span counts as
/// identity (SolveOptions::permutation's "no reordering" spelling).
inline bool is_identity_permutation(std::span<const index_type> order) {
    for (std::size_t p = 0; p < order.size(); ++p) {
        if (order[p] != static_cast<index_type>(p)) {
            return false;
        }
    }
    return true;
}

/// Throws unless `order` is a bijection on [0, n).
inline void validate_permutation(std::span<const index_type> order, index_type n) {
    if (static_cast<index_type>(order.size()) != n) {
        throw std::invalid_argument("permutation size does not match the state count");
    }
    std::vector<bool> seen(static_cast<std::size_t>(n), false);
    for (const index_type old : order) {
        if (old < 0 || old >= n || seen[static_cast<std::size_t>(old)]) {
            throw std::invalid_argument("order is not a permutation of [0, n)");
        }
        seen[static_cast<std::size_t>(old)] = true;
    }
}

/// inverse[old] = new for `order[new] = old`.
inline std::vector<index_type> inverse_permutation(std::span<const index_type> order) {
    std::vector<index_type> inverse(order.size());
    for (std::size_t p = 0; p < order.size(); ++p) {
        inverse[static_cast<std::size_t>(order[p])] = static_cast<index_type>(p);
    }
    return inverse;
}

/// x reindexed into the permuted system: result[p] = x[order[p]].
inline std::vector<double> permute_vector(std::span<const double> x,
                                          std::span<const index_type> order) {
    std::vector<double> out(order.size());
    for (std::size_t p = 0; p < order.size(); ++p) {
        out[p] = x[static_cast<std::size_t>(order[p])];
    }
    return out;
}

/// The inverse map, back to caller indexing: result[order[p]] = x[p].
inline std::vector<double> inverse_permute_vector(std::span<const double> x,
                                                  std::span<const index_type> order) {
    std::vector<double> out(order.size());
    for (std::size_t p = 0; p < order.size(); ++p) {
        out[static_cast<std::size_t>(order[p])] = x[p];
    }
    return out;
}

/// The transposed generator reindexed by `order`: entry (p, q) of the
/// result is entry (order[p], order[q]) of `qt`, diagonal included. The
/// result has one level.
inline QtMatrix permute_qt_matrix(const QtMatrix& qt,
                                  std::span<const index_type> order) {
    validate_permutation(order, qt.size());
    const std::vector<index_type> inverse = inverse_permutation(order);
    std::vector<double> diag(order.size());
    std::vector<index_type> row_ptr{0};
    row_ptr.reserve(order.size() + 1);
    std::vector<col_type> cols;
    std::vector<double> values;
    std::vector<std::pair<col_type, double>> row;
    for (std::size_t p = 0; p < order.size(); ++p) {
        diag[p] = qt.diagonal(order[p]);
        row.clear();
        qt.for_each_incoming(order[p], [&](index_type j, double rate) {
            row.emplace_back(static_cast<col_type>(inverse[static_cast<std::size_t>(j)]), rate);
        });
        std::sort(row.begin(), row.end());
        for (const auto& [col, rate] : row) {
            cols.push_back(col);
            values.push_back(rate);
        }
        row_ptr.push_back(static_cast<index_type>(cols.size()));
    }
    const index_type n = qt.size();
    return QtMatrix(SparseMatrix::from_csr(n, n, std::move(row_ptr), std::move(cols),
                                           std::move(values)),
                    std::move(diag));
}

}  // namespace gprsim::ctmc
