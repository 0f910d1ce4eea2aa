// eval::Memo: the leader/follower/promotion protocol, reference draining
// and idle eviction, get_or_compute under contention, and the
// exhaustiveness of the signatures that key it (query_signature and the
// service's slice suffix) — the memo is only correct if perturbing any
// single field of a query changes its key.
#include "eval/memo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "service/service.hpp"

namespace gprsim::eval {
namespace {

/// The service's warm store: the memo over (backend, variant) slice
/// outcomes. The protocol cases run on that instantiation.
using WarmStore = Memo<GridOutcome>;

GridOutcome one_point_outcome(double rate) {
    PointEvaluation point;
    point.wall_seconds = rate;
    return GridOutcome(std::vector<PointEvaluation>{point});
}

TEST(WarmStore, LeaderComputesFollowersCopy) {
    WarmStore store(4);
    bool hit = false;
    WarmStore::Ticket leader = store.acquire("sig", hit);
    EXPECT_FALSE(hit);
    ASSERT_TRUE(leader.leader());

    bool follower_hit = false;
    WarmStore::Ticket follower = store.acquire("sig", follower_hit);
    EXPECT_TRUE(follower_hit);  // join-in-flight counts as a hit
    EXPECT_FALSE(follower.leader());

    std::thread waiter([&follower] {
        auto cached = follower.wait();
        ASSERT_TRUE(cached.has_value());
        ASSERT_TRUE(cached->ok());
        EXPECT_DOUBLE_EQ(cached->value().front().wall_seconds, 1.5);
    });
    leader.publish(one_point_outcome(1.5));
    waiter.join();
    EXPECT_EQ(store.active_refs(), 2u);
}

TEST(WarmStore, AbandonPromotesExactlyOneWaiter) {
    WarmStore store(4);
    bool hit = false;
    WarmStore::Ticket leader = store.acquire("sig", hit);
    WarmStore::Ticket follower_a = store.acquire("sig", hit);
    WarmStore::Ticket follower_b = store.acquire("sig", hit);

    std::atomic<int> promoted{0};
    std::atomic<int> served{0};
    auto follow = [&promoted, &served](WarmStore::Ticket& ticket) {
        auto cached = ticket.wait();
        if (!cached.has_value()) {
            // Promoted: now responsible for the slice.
            ASSERT_TRUE(ticket.leader());
            ++promoted;
            ticket.publish(one_point_outcome(2.0));
        } else {
            ASSERT_TRUE(cached->ok());
            ++served;
        }
    };
    std::thread ta(follow, std::ref(follower_a));
    std::thread tb(follow, std::ref(follower_b));
    leader.abandon();
    ta.join();
    tb.join();
    EXPECT_EQ(promoted.load(), 1);
    EXPECT_EQ(served.load(), 1);
}

TEST(WarmStore, RefsDrainAndIdleEntriesEvict) {
    WarmStore store(2);
    for (int i = 0; i < 5; ++i) {
        bool hit = false;
        WarmStore::Ticket ticket = store.acquire("sig" + std::to_string(i), hit);
        EXPECT_FALSE(hit);
        ticket.publish(one_point_outcome(1.0));
    }
    EXPECT_EQ(store.active_refs(), 0u);
    EXPECT_LE(store.entries(), 2u);

    // The retained entries still serve hits.
    bool hit = false;
    WarmStore::Ticket ticket = store.acquire("sig4", hit);
    EXPECT_TRUE(hit);
    auto cached = ticket.wait();
    ASSERT_TRUE(cached.has_value());
    EXPECT_TRUE(cached->ok());
}

TEST(WarmStore, DroppedLeaderTicketAbandonsImplicitly) {
    WarmStore store(4);
    bool hit = false;
    WarmStore::Ticket follower;
    {
        WarmStore::Ticket leader = store.acquire("sig", hit);
        follower = store.acquire("sig", hit);
        // Leader destroyed without publish: the follower must be promoted,
        // not deadlocked.
    }
    auto cached = follower.wait();
    EXPECT_FALSE(cached.has_value());
    EXPECT_TRUE(follower.leader());
}

/// Converts to any member type: T{AnyField{}...} compiles exactly up to
/// the aggregate's member count.
struct AnyField {
    template <class T>
    operator T() const;
};

template <class T, class... Fields>
constexpr std::size_t field_count() {
    if constexpr (requires { T{Fields{}..., AnyField{}}; }) {
        return field_count<T, Fields..., AnyField>();
    } else {
        return sizeof...(Fields);
    }
}

using Perturbation = std::function<void(ScenarioQuery&)>;

/// One single-field change per member of core::Parameters, with the
/// `traffic` member expanded into its own fields.
std::vector<Perturbation> parameter_perturbations() {
    return {
        [](ScenarioQuery& q) { q.parameters.total_channels = 21; },
        [](ScenarioQuery& q) { q.parameters.reserved_pdch = 2; },
        [](ScenarioQuery& q) { q.parameters.buffer_capacity = 101; },
        [](ScenarioQuery& q) { q.parameters.pdch_rate_kbps = 9.05; },
        [](ScenarioQuery& q) { q.parameters.block_error_rate = 0.1; },
        [](ScenarioQuery& q) { q.parameters.call_arrival_rate = 0.6; },
        [](ScenarioQuery& q) { q.parameters.gprs_fraction = 0.2; },
        [](ScenarioQuery& q) { q.parameters.mean_gsm_call_duration = 100.0; },
        [](ScenarioQuery& q) { q.parameters.mean_gsm_dwell_time = 50.0; },
        [](ScenarioQuery& q) { q.parameters.mean_gprs_dwell_time = 100.0; },
        [](ScenarioQuery& q) { q.parameters.max_gprs_sessions = 40; },
        [](ScenarioQuery& q) { q.parameters.pinned_handover = true; },
        [](ScenarioQuery& q) { q.parameters.gsm_handover_in = 0.1; },
        [](ScenarioQuery& q) { q.parameters.gprs_handover_in = 0.1; },
        [](ScenarioQuery& q) { q.parameters.flow_control_threshold = 0.8; },
        [](ScenarioQuery& q) { q.parameters.traffic.mean_packet_calls = 6.0; },
        [](ScenarioQuery& q) { q.parameters.traffic.mean_reading_time = 400.0; },
        [](ScenarioQuery& q) { q.parameters.traffic.mean_packets_per_call = 20.0; },
        [](ScenarioQuery& q) { q.parameters.traffic.mean_packet_interarrival = 0.4; },
        [](ScenarioQuery& q) { q.parameters.traffic.packet_size_bits = 1000.0; },
    };
}

std::vector<Perturbation> solver_perturbations() {
    return {
        [](ScenarioQuery& q) { q.solver.tolerance = 1e-10; },
        [](ScenarioQuery& q) { q.solver.max_iterations = 1000; },
        [](ScenarioQuery& q) { q.solver.method = "gauss_seidel"; },
    };
}

std::vector<Perturbation> simulation_perturbations() {
    return {
        [](ScenarioQuery& q) { q.simulation.replications = 5; },
        [](ScenarioQuery& q) { q.simulation.seed = 7; },
        [](ScenarioQuery& q) { q.simulation.warmup_time = 100.0; },
        [](ScenarioQuery& q) { q.simulation.batch_count = 3; },
        [](ScenarioQuery& q) { q.simulation.batch_duration = 10.0; },
        [](ScenarioQuery& q) { q.simulation.tcp = false; },
    };
}

std::vector<Perturbation> approx_perturbations() {
    return {
        [](ScenarioQuery& q) { q.approx.fp_tolerance = 1e-8; },
        [](ScenarioQuery& q) { q.approx.fp_damping = 0.5; },
        [](ScenarioQuery& q) { q.approx.fp_max_iterations = 10; },
        [](ScenarioQuery& q) { q.approx.ode_rel_tol = 1e-6; },
        [](ScenarioQuery& q) { q.approx.ode_abs_tol = 1e-9; },
        [](ScenarioQuery& q) { q.approx.ode_max_steps = 10; },
        [](ScenarioQuery& q) { q.approx.ode_stationary_rate = 1e-8; },
    };
}

std::vector<Perturbation> network_perturbations() {
    return {
        [](ScenarioQuery& q) { q.network.cells_x = 3; },
        [](ScenarioQuery& q) { q.network.cells_y = 3; },
        [](ScenarioQuery& q) { q.network.topology = "hex"; },
        [](ScenarioQuery& q) { q.network.wrap = false; },
        [](ScenarioQuery& q) { q.network.reuse_factor = 3; },
        [](ScenarioQuery& q) { q.network.ra_block = 2; },
        [](ScenarioQuery& q) { q.network.speed_kmh = 50.0; },
        [](ScenarioQuery& q) { q.network.reference_speed_kmh = 10.0; },
        [](ScenarioQuery& q) { q.network.drift = 0.2; },
        [](ScenarioQuery& q) { q.network.inner_backend = "fluid"; },
        [](ScenarioQuery& q) { q.network.outer_tolerance = 1e-9; },
        [](ScenarioQuery& q) { q.network.outer_damping = 0.5; },
        [](ScenarioQuery& q) { q.network.outer_max_iterations = 10; },
    };
}

TEST(WarmStore, SignatureSeparatesEveryAxis) {
    using service::slice_signature;
    ScenarioQuery query;
    const std::vector<double> rates{0.5, 1.0};
    const std::string base = slice_signature("ctmc", query, rates, true, 0);
    EXPECT_NE(base, slice_signature("des", query, rates, true, 0));
    EXPECT_NE(base, slice_signature("ctmc", query, {0.5}, true, 0));
    EXPECT_NE(base, slice_signature("ctmc", query, rates, false, 0));
    EXPECT_NE(base, slice_signature("ctmc", query, rates, true, 2));

    ScenarioQuery changed = query;
    changed.simulation.seed = 7;
    EXPECT_NE(base, slice_signature("ctmc", changed, rates, true, 0));
    changed = query;
    changed.parameters.gprs_fraction = 0.2;
    EXPECT_NE(base, slice_signature("ctmc", changed, rates, true, 0));
    EXPECT_EQ(base, slice_signature("ctmc", query, rates, true, 0));

    // Every field, one at a time. The member counts pin the lists below
    // to the structs: a new field fails here until the signature and its
    // perturbation cover it.
    static_assert(field_count<ScenarioQuery>() == 6);
    static_assert(field_count<traffic::ThreeGppSessionModel>() == 5);
    static_assert(field_count<core::Parameters>() == 16);
    static_assert(field_count<SolverKnobs>() == 3);
    static_assert(field_count<SimulationKnobs>() == 6);
    static_assert(field_count<ApproxKnobs>() == 7);
    static_assert(field_count<NetworkKnobs>() == 13);
    const std::vector<std::vector<Perturbation>> blocks{
        parameter_perturbations(),
        {[](ScenarioQuery& q) { q.call_arrival_rate = 0.7; }},
        solver_perturbations(),
        simulation_perturbations(),
        approx_perturbations(),
        network_perturbations(),
    };
    EXPECT_EQ(blocks[0].size(), field_count<core::Parameters>() - 1 +
                                    field_count<traffic::ThreeGppSessionModel>());
    EXPECT_EQ(blocks[2].size(), field_count<SolverKnobs>());
    EXPECT_EQ(blocks[3].size(), field_count<SimulationKnobs>());
    EXPECT_EQ(blocks[4].size(), field_count<ApproxKnobs>());
    EXPECT_EQ(blocks[5].size(), field_count<NetworkKnobs>());

    const std::string query_base = query_signature("ctmc", query);
    EXPECT_NE(query_base, query_signature("des", query));
    std::vector<std::string> seen{query_base};
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        for (std::size_t f = 0; f < blocks[b].size(); ++f) {
            ScenarioQuery perturbed = query;
            blocks[b][f](perturbed);
            const std::string sig = query_signature("ctmc", perturbed);
            EXPECT_NE(sig, query_base) << "block " << b << " field " << f;
            EXPECT_NE(slice_signature("ctmc", perturbed, rates, true, 0), base)
                << "block " << b << " field " << f;
            seen.push_back(sig);
        }
    }
    // No two single-field changes alias onto one key either.
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(Memo, ConcurrentLookupsComputeOnce) {
    Memo<int> memo(4);
    std::atomic<int> computed{0};
    std::atomic<int> hits{0};
    std::vector<int> values(8, 0);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < values.size(); ++t) {
        threads.emplace_back([&, t] {
            bool hit = false;
            values[t] = memo.get_or_compute(
                "cell",
                [&] {
                    ++computed;
                    std::this_thread::sleep_for(std::chrono::milliseconds(20));
                    return 42;
                },
                &hit);
            hits += hit ? 1 : 0;
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(computed.load(), 1);
    EXPECT_EQ(hits.load(), static_cast<int>(values.size()) - 1);
    for (const int value : values) {
        EXPECT_EQ(value, 42);
    }
    EXPECT_EQ(memo.active_refs(), 0u);
    EXPECT_EQ(memo.entries(), 1u);
}

}  // namespace
}  // namespace gprsim::eval
