#include "core/generator.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace gprsim::core {

GprsGenerator::GprsGenerator(Parameters parameters, ModelRates rates)
    : parameters_(std::move(parameters)),
      rates_(rates),
      space_(parameters_.buffer_capacity, parameters_.gsm_channels(),
             parameters_.max_gprs_sessions) {
    parameters_.validate();
}

ctmc::QtMatrix GprsGenerator::to_qt_matrix() const {
    const common::index_type n = space_.size();

    // Rows of Q^T are exactly the incoming-transition lists, so the CSR can
    // be emitted row by row with no staging triplets, in the QtMatrix's
    // stored order: phase (n, m, r) by phase, the buffer levels of each
    // phase in a row. The inverse events of Table 1 never produce duplicate
    // (pred, state) pairs, which the per-row sort would otherwise have to
    // merge.
    std::vector<common::index_type> row_ptr;
    row_ptr.reserve(static_cast<std::size_t>(n) + 1);
    std::vector<ctmc::col_type> cols;
    std::vector<double> values;
    cols.reserve(static_cast<std::size_t>(n) * 10);
    values.reserve(static_cast<std::size_t>(n) * 10);
    std::vector<double> diag;
    diag.reserve(static_cast<std::size_t>(n));

    row_ptr.push_back(0);
    std::vector<std::pair<common::index_type, double>> row;
    for (int gsm = 0; gsm <= space_.gsm_channels(); ++gsm) {
        for (int m = 0; m <= space_.max_gprs_sessions(); ++m) {
            for (int r = 0; r <= m; ++r) {
                for (int k = 0; k <= space_.buffer_capacity(); ++k) {
                    const State s{k, gsm, m, r};
                    row.clear();
                    core::for_each_incoming(parameters_, rates_, s,
                                            [&](const State& pred, double rate) {
                                                row.emplace_back(space_.index_of(pred), rate);
                                            });
                    std::sort(row.begin(), row.end());
                    for (const auto& [col, rate] : row) {
                        cols.push_back(static_cast<ctmc::col_type>(col));
                        values.push_back(rate);
                    }
                    row_ptr.push_back(static_cast<common::index_type>(cols.size()));
                    diag.push_back(-total_exit_rate(parameters_, rates_, s));
                }
            }
        }
    }

    ctmc::SparseMatrix off = ctmc::SparseMatrix::from_csr(
        n, n, std::move(row_ptr), std::move(cols), std::move(values));
    return ctmc::QtMatrix(std::move(off), std::move(diag), levels());
}

ctmc::SparseMatrix GprsGenerator::to_generator_matrix() const {
    std::vector<ctmc::Triplet> triplets;
    space_.for_each([&](const State& s, common::index_type i) {
        double exit = 0.0;
        core::for_each_outgoing(parameters_, rates_, s,
                                [&](const State& succ, double rate) {
                                    triplets.push_back({i, space_.index_of(succ), rate});
                                    exit += rate;
                                });
        triplets.push_back({i, i, -exit});
    });
    return ctmc::SparseMatrix::from_triplets(space_.size(), space_.size(),
                                             std::move(triplets));
}

std::size_t GprsGenerator::estimated_qt_bytes() const {
    // ~10 incoming transitions per state, each costing a column index and a
    // value, plus the diagonal and row-pointer arrays.
    const auto n = static_cast<std::size_t>(space_.size());
    return n * 10 * (sizeof(common::index_type) + sizeof(double)) +
           n * (2 * sizeof(double) + sizeof(common::index_type));
}

}  // namespace gprsim::core
