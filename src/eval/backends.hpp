// Built-in evaluation backends. Eight backends self-register in
// BackendRegistry::global():
//
//   erlang       closed-form Erlang populations and blocking (Eq. 2-7);
//                microseconds per point, no chain state
//   ctmc         stationary solve of the full Markov chain (Table 1)
//                from the product-form start; every grid point is one
//                dependency-free task equal to its standalone evaluate()
//                (the pointwise plan it shares with fixed-point and fluid)
//   des          replications of the detailed network simulator, pooled
//                into 95% CIs; plan_grids/evaluate_grid(s) emit one task
//                per (variant, point, replication) with the same
//                substream-block discipline as sim::ExperimentEngine, all
//                dependency-free
//   mm1k-approx  cheap M/M/c/K fixed-point approximation of the data plane
//                over the Erlang populations — the proof that a third-party
//                approximation plugs into the registry without touching the
//                campaign runner, spec parser, or CLI
//   fixed-point  damped fixed-point decomposition over the (voice, session,
//                queue) dimensions: exact Erlang marginals coupled to a
//                level-dependent birth-death queue with mean-rate closure;
//                handles 10^6-session populations in milliseconds
//                (src/eval/large_population.cpp)
//   fluid        mean-field / fluid-limit ODE over the scaled occupancies,
//                integrated with an adaptive Cash-Karp RK4(5) stepper;
//                exact in the N -> infinity scaling
//                (src/eval/large_population.cpp)
//   network-fp   multi-cell lattice fixed point over handover inflows; each
//                cell solved by the single-cell backend named in
//                network.inner_backend under a pinned inflow, outer waves
//                laid out on the shared pool (src/network/backends.cpp)
//   network-des  replications of the simulator in multi-cell network mode
//                (per-cell parameters, weighted handover targets, routing
//                areas), pooled like des (src/network/backends.cpp)
//
// All eight return Results; no exception crosses evaluate() /
// evaluate_grid() / evaluate_grids() / a plan's tasks.
#pragma once

#include "eval/registry.hpp"

namespace gprsim::eval {

namespace detail {

/// Registers the built-ins into `registry`. Called exactly once from
/// BackendRegistry::global(); explicit (rather than static-initializer
/// magic) because gprsim is a static library and the linker may drop
/// translation units nobody references.
void register_builtin_backends(BackendRegistry& registry);

/// Registers the large-population approximations (fixed-point, fluid);
/// called from register_builtin_backends, defined in
/// src/eval/large_population.cpp.
void register_large_population_backends(BackendRegistry& registry);

/// Registers the multi-cell network backends (network-fp, network-des);
/// called from register_builtin_backends, defined in
/// src/network/backends.cpp.
void register_network_backends(BackendRegistry& registry);

}  // namespace detail

}  // namespace gprsim::eval
