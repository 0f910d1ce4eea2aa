// The network backends through the unified eval API: registration,
// bitwise thread-count invariance of evaluate_grids for both network-fp
// and network-des, provenance fields, and typed failures for bad inner
// backends.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "eval/backends.hpp"
#include "eval/registry.hpp"

namespace gprsim::eval {
namespace {

Evaluator& backend(const char* name) {
    auto found = BackendRegistry::global().find(name);
    EXPECT_TRUE(found.ok()) << name;
    return *found.value();
}

/// Tiny 2x2 network scenario (both backends finish in well under a second).
ScenarioQuery tiny_network_query() {
    ScenarioQuery query;
    query.parameters = core::Parameters::base();
    query.parameters.total_channels = 6;
    query.parameters.buffer_capacity = 10;
    query.parameters.max_gprs_sessions = 6;
    query.parameters.gprs_fraction = 0.1;
    query.call_arrival_rate = 0.5;
    query.solver.tolerance = 1e-10;
    query.simulation.replications = 2;
    query.simulation.warmup_time = 50.0;
    query.simulation.batch_count = 3;
    query.simulation.batch_duration = 100.0;
    query.network.cells_x = 2;
    query.network.cells_y = 2;
    return query;
}

std::vector<ScenarioQuery> network_variants() {
    std::vector<ScenarioQuery> queries(3, tiny_network_query());
    queries[1].parameters.gprs_fraction = 0.2;
    queries[1].network.speed_kmh = 30.0;
    // Open boundary with drift: cells differ in inflow, so the inner-solve
    // memo must keep them apart.
    queries[2].network.cells_x = 3;
    queries[2].network.wrap = false;
    queries[2].network.drift = 0.3;
    return queries;
}

/// Inner calls seen by the counting backend below.
std::atomic<long long> g_inner_calls{0};

/// Delegates to the registered "ctmc" backend and counts each call.
class CountingInner final : public Evaluator {
public:
    explicit CountingInner(Evaluator& inner) : inner_(inner) {}
    const std::string& name() const override {
        static const std::string n = "counting-ctmc";
        return n;
    }
    const std::string& description() const override {
        static const std::string d = "ctmc, counted by the network backend tests";
        return d;
    }
    common::Result<PointEvaluation> evaluate(const ScenarioQuery& query) override {
        ++g_inner_calls;
        return inner_.evaluate(query);
    }

private:
    Evaluator& inner_;
};

void register_counting_inner() {
    // Resolved here, not in the factory: the registry runs factories under
    // its own lock.
    static const bool registered = [] {
        Evaluator* ctmc = &backend("ctmc");
        return register_backend("counting-ctmc", "ctmc, counted",
                                [ctmc] { return std::make_unique<CountingInner>(*ctmc); })
            .ok();
    }();
    ASSERT_TRUE(registered);
}

void expect_bitwise_equal(const PointEvaluation& a, const PointEvaluation& b) {
    EXPECT_EQ(std::memcmp(&a.measures, &b.measures, sizeof(core::Measures)), 0);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(std::memcmp(&a.residual, &b.residual, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&a.rau_rate, &b.rau_rate, sizeof(double)), 0);
    ASSERT_EQ(a.cell_measures.size(), b.cell_measures.size());
    for (std::size_t c = 0; c < a.cell_measures.size(); ++c) {
        EXPECT_EQ(std::memcmp(&a.cell_measures[c], &b.cell_measures[c],
                              sizeof(core::Measures)),
                  0);
    }
    ASSERT_EQ(a.cell_residuals.size(), b.cell_residuals.size());
    for (std::size_t c = 0; c < a.cell_residuals.size(); ++c) {
        EXPECT_EQ(std::memcmp(&a.cell_residuals[c], &b.cell_residuals[c], sizeof(double)),
                  0);
    }
    if (a.has_confidence || b.has_confidence) {
        EXPECT_EQ(a.has_confidence, b.has_confidence);
        EXPECT_EQ(std::memcmp(&a.sim.carried_data_traffic.mean,
                              &b.sim.carried_data_traffic.mean, sizeof(double)),
                  0);
    }
}

TEST(NetworkBackends, RegisteredWithDescriptions) {
    for (const char* name : {"network-fp", "network-des"}) {
        auto found = BackendRegistry::global().find(name);
        ASSERT_TRUE(found.ok()) << name;
        EXPECT_EQ(found.value()->name(), name);
        EXPECT_FALSE(found.value()->description().empty()) << name;
    }
}

TEST(NetworkBackends, SinglePointCarriesNetworkProvenance) {
    auto fp = backend("network-fp").evaluate(tiny_network_query());
    ASSERT_TRUE(fp.ok()) << fp.error().to_string();
    EXPECT_EQ(fp.value().backend, "network-fp");
    EXPECT_EQ(fp.value().cell_measures.size(), 4u);
    EXPECT_EQ(fp.value().cell_residuals.size(), 4u);
    EXPECT_GE(fp.value().iterations, 1);
    EXPECT_EQ(fp.value().solver_method, "ctmc");  // the delegated inner solve

    auto des = backend("network-des").evaluate(tiny_network_query());
    ASSERT_TRUE(des.ok()) << des.error().to_string();
    EXPECT_EQ(des.value().cell_measures.size(), 4u);
    EXPECT_TRUE(des.value().has_confidence);
}

TEST(NetworkBackends, GridsAreBitwiseThreadCountInvariant) {
    const std::vector<double> rates{0.4, 0.6};
    const std::vector<ScenarioQuery> queries = network_variants();
    common::ThreadPool pool(4);
    for (const char* name : {"network-fp", "network-des"}) {
        auto serial = backend(name).evaluate_grids(queries, rates);
        GridOptions wide;
        wide.num_threads = 4;
        wide.pool = &pool;
        auto parallel = backend(name).evaluate_grids(queries, rates, wide);
        ASSERT_EQ(serial.size(), queries.size()) << name;
        ASSERT_EQ(parallel.size(), queries.size()) << name;
        for (std::size_t q = 0; q < queries.size(); ++q) {
            ASSERT_TRUE(serial[q].ok()) << name << ": " << serial[q].error().to_string();
            ASSERT_TRUE(parallel[q].ok()) << name;
            ASSERT_EQ(serial[q].value().size(), rates.size()) << name;
            for (std::size_t i = 0; i < rates.size(); ++i) {
                expect_bitwise_equal(serial[q].value()[i], parallel[q].value()[i]);
            }
        }
    }
}

TEST(NetworkBackends, IdenticalCellProblemsSolveOncePerPlan) {
    register_counting_inner();
    // Homogeneous wrapped lattices: 2 sizes x 2 speeds, 3 rates. Every cell
    // of every lattice at one (speed, rate) is the same pinned problem, and
    // the self-balanced start converges in one outer iteration.
    std::vector<ScenarioQuery> queries;
    for (const int cells : {1, 2}) {
        for (const double speed : {3.0, 30.0}) {
            ScenarioQuery query = tiny_network_query();
            query.network.cells_x = cells;
            query.network.cells_y = cells;
            query.network.speed_kmh = speed;
            query.network.inner_backend = "counting-ctmc";
            queries.push_back(query);
        }
    }
    const std::vector<double> rates{0.3, 0.4, 0.5};
    const long long distinct = 2 * static_cast<long long>(rates.size());

    g_inner_calls = 0;
    auto serial = backend("network-fp").evaluate_grids(queries, rates);
    EXPECT_EQ(g_inner_calls.load(), distinct);

    common::ThreadPool pool(4);
    GridOptions wide;
    wide.num_threads = 4;
    wide.pool = &pool;
    auto parallel = backend("network-fp").evaluate_grids(queries, rates, wide);
    // The memo lives for one plan: the second grid pays for its own solves.
    EXPECT_EQ(g_inner_calls.load(), 2 * distinct);

    ASSERT_EQ(serial.size(), queries.size());
    ASSERT_EQ(parallel.size(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
        ASSERT_TRUE(serial[q].ok()) << serial[q].error().to_string();
        ASSERT_TRUE(parallel[q].ok()) << parallel[q].error().to_string();
        for (std::size_t i = 0; i < rates.size(); ++i) {
            EXPECT_EQ(serial[q].value()[i].iterations, 1);
            expect_bitwise_equal(serial[q].value()[i], parallel[q].value()[i]);
        }
    }
}

TEST(NetworkBackends, UnknownInnerBackendFailsTyped) {
    ScenarioQuery query = tiny_network_query();
    query.network.inner_backend = "no-such-backend";
    auto point = backend("network-fp").evaluate(query);
    ASSERT_FALSE(point.ok());
    EXPECT_EQ(point.error().code, common::EvalErrorCode::unknown_backend);
    // A network backend as the inner solve is rejected up front (it would
    // recurse), as part of query validation.
    query.network.inner_backend = "network-fp";
    auto recursive = backend("network-fp").evaluate(query);
    ASSERT_FALSE(recursive.ok());
    EXPECT_EQ(recursive.error().code, common::EvalErrorCode::invalid_query);
}

}  // namespace
}  // namespace gprsim::eval
