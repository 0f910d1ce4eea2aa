// Product-form initial guess for the steady-state solver.
//
// The chain's (n) and (m, r) marginals are known exactly (Erlang and
// Erlang x binomial — paper Eq. 2-3 plus the IPP stationary split), and the
// buffer marginal is well approximated by a one-dimensional birth-death
// chain with modulator-averaged rates. Their product is not the true joint
// distribution (k is correlated with the modulator), but it is orders of
// magnitude closer than a uniform vector, which cuts Gauss-Seidel iteration
// counts substantially on the multi-million-state chains.
#pragma once

#include <vector>

#include "core/handover.hpp"
#include "core/parameters.hpp"
#include "core/state_space.hpp"

namespace gprsim::core {

/// Normalized product-form distribution over `space`.
std::vector<double> product_form_initial(const Parameters& parameters,
                                         const BalancedTraffic& balanced,
                                         const StateSpace& space);

/// A warm start from a neighbouring operating point's distribution
/// `previous` over `space`: within each phase (n, m, r) the buffer
/// distribution of `previous` is kept, and the phase's total mass is set to
/// its exact marginal (that of product_form_initial). The line solve
/// settles a phase's buffer column in one sweep but moves mass between
/// phases slowly, so a start with stale phase marginals can cost more
/// sweeps than the product form itself.
std::vector<double> phase_corrected_initial(const Parameters& parameters,
                                            const BalancedTraffic& balanced,
                                            const StateSpace& space,
                                            std::vector<double> previous);

}  // namespace gprsim::core
