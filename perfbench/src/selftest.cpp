// Self-tests of the benchmark's own arithmetic: percentiles and their
// sample counts, ratios with their bases, the seeded schedule, and the
// reference comparison. run.py runs them before every measurement.
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>

#include "harness.hpp"

namespace perfbench {

namespace {

int failures = 0;

void check(bool condition, const char* what) {
    if (!condition) {
        ++failures;
        std::fprintf(stderr, "self-test FAILED: %s\n", what);
    }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b)); }

void test_quantiles() {
    // Expected values from Python's statistics.quantiles (method="exclusive").
    const std::vector<double> ten = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
    check(near(quantile(ten, 0.25), 2.75), "quartile 1 of 1..10");
    check(near(quantile(ten, 0.5), 5.5), "median of 1..10");
    check(near(quantile(ten, 0.75), 8.25), "quartile 3 of 1..10");
    check(near(quantile(ten, 0.9), 9.9), "p90 of 1..10");
    check(near(quantile({3.0, 1.0, 2.0}, 0.9), 3.6), "p90 of three samples extrapolates");
    check(near(quantile({0.2, 0.4, 0.1, 0.3}, 0.9), 0.45), "p90 of four samples");
    check(near(quantile({5.0, 1.0}, 0.5), 3.0), "median of two samples");
    check(quantile({7.0}, 0.9) == 7.0, "one sample is its own percentile");
    check(quantile({}, 0.5) == 0.0, "empty input gives 0");

    Report report;
    report.percentile("lat", {1.0, 2.0, 3.0}, 0.5, "s");
    check(report.metrics.size() == 1 && report.metrics[0].second.first == 2.0,
          "percentile metric value");
    check(report.meta.size() == 1 && report.meta[0].first == "lat.samples" &&
              report.meta[0].second == "3",
          "percentile records its sample count");
}

void test_ratios() {
    check(Ratio{3.0, 4.0}.value() == 0.75, "ratio value");
    check(Ratio{0.0, 0.0}.value() == 0.0, "empty base gives 0");
    Report report;
    report.ratio("hits", {3.0, 4.0});
    check(report.metrics[0].second.first == 0.75 && report.metrics[0].second.second == "ratio",
          "ratio metric");
    check(report.meta[0].first == "hits.base" && report.meta[0].second == "[3, 4]",
          "ratio records its base");
}

void test_json() {
    check(json_number(7660.0) == "7660", "counters print as integers");
    check(std::stod(json_number(0.1)) == 0.1, "doubles round-trip");
    check(std::stod(json_number(1.0 / 3.0)) == 1.0 / 3.0, "all digits kept");
    check(json_string("a\"b\n") == "\"a\\\"b\\n\"", "string escaping");
    Report report;
    report.attempted = 2;
    report.failed = 1;
    report.metric("x_s", 1.5, "s");
    check(result_line(report) ==
              "{\"correct\": true, \"attempted\": 2, \"failed\": 1, \"metrics\": "
              "{\"x_s\": {\"value\": 1.5, \"unit\": \"s\"}}}",
          "result line layout");
}

void test_schedule() {
    const auto a = make_schedule(42, 60.0, 20.0);
    const auto b = make_schedule(42, 60.0, 20.0);
    const auto c = make_schedule(43, 60.0, 20.0);
    bool same = a.size() == b.size();
    for (std::size_t i = 0; same && i < a.size(); ++i) {
        same = a[i].due == b[i].due && a[i].spec == b[i].spec && a[i].kind == b[i].kind;
    }
    check(same, "a seed fixes the schedule");
    bool differs = a.size() != c.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i) {
        differs = a[i].due != c[i].due || a[i].spec != c[i].spec;
    }
    check(differs, "another seed gives another schedule");

    bool ordered = true;
    std::set<std::string> kinds;
    std::set<std::string> validate_specs;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ordered = ordered && a[i].due >= 0.0 && a[i].due < 20.0 && (i == 0 || a[i].due >= a[i - 1].due);
        kinds.insert(a[i].kind);
        if (a[i].kind == "validate") {
            validate_specs.insert(a[i].spec);
        }
    }
    check(ordered, "due times ascend inside the window");
    check(kinds.size() == 3, "every request kind occurs");
    // Two slices (ctmc, des) per validation spec must overflow the
    // 64-entry warm store, so eviction happens.
    check(2 * validate_specs.size() > 64, "distinct slices exceed the warm store");
    // Cells are dealt from decks: the first 54 validations cover all 54.
    std::set<std::string> first_deck;
    for (std::size_t i = 0, dealt = 0; i < a.size() && dealt < 54; ++i) {
        if (a[i].kind == "validate") {
            const std::string& spec = a[i].spec;
            const std::size_t from = spec.find("\"traffic_model\"");
            first_deck.insert(spec.substr(from, spec.find("\"solver\"") - from));
            ++dealt;
        }
    }
    check(first_deck.size() == 54, "the first 54 validations use every cell once");
    const auto long_run = make_schedule(7, 50.0, 400.0);
    const double mean_rate = static_cast<double>(long_run.size()) / 400.0;
    check(std::fabs(mean_rate - 50.0) < 2.5, "arrival rate matches the request");
}

void test_reference_comparison() {
    gprsim::core::Measures ref;
    ref.carried_data_traffic = 0.25;
    ref.packet_loss_probability = 1e-3;
    ref.queueing_delay = 0.5;
    ref.throughput_per_user_kbps = 0.2;
    ref.mean_queue_length = 0.3;
    ref.carried_voice_traffic = 16.0;
    ref.average_gprs_sessions = 14.0;
    ref.gsm_blocking = 0.2;
    ref.gprs_blocking = 0.05;

    const Comparison same = compare_measures(ref, ref);
    check(same.ok && same.plp_rel_err == 0.0, "identical measures pass");

    gprsim::core::Measures close = ref;
    close.packet_loss_probability *= 1.5;
    close.carried_data_traffic *= 1.001;
    const Comparison near_plp = compare_measures(close, ref);
    check(near_plp.ok && near(near_plp.plp_rel_err, 0.5), "PLP error is measured, not failed");

    gprsim::core::Measures off = ref;
    off.packet_loss_probability *= 2.5;
    check(!compare_measures(off, ref).ok, "gross PLP error fails");
    off = ref;
    off.carried_data_traffic *= 1.01;
    check(!compare_measures(off, ref).ok, "1% CDT error fails");
    off = ref;
    off.carried_voice_traffic += 1e-6;
    check(!compare_measures(off, ref).ok, "closed-form measure must match tightly");
    off = ref;
    off.queueing_delay = std::nan("");
    check(!compare_measures(off, ref).ok, "NaN fails");
    check(relative_error(1e-9, 0.0) == 1e-9, "zero reference uses the absolute error");

    // Round trip through the reference file format, bit for bit.
    gprsim::campaign::CampaignResult result;
    result.points.resize(2);
    for (std::size_t i = 0; i < 2; ++i) {
        result.points[i].variant = i;
        result.points[i].rate_index = 1 - i;
        result.points[i].call_arrival_rate = 0.1 * static_cast<double>(i + 3);
        result.points[i].evaluations.resize(1);
        result.points[i].evaluations[0].measures = ref;
        result.points[i].evaluations[0].measures.queueing_delay = 1.0 / 3.0 + i;
    }
    std::stringstream file;
    write_reference(result, file);
    const std::vector<ReferencePoint> back = read_reference(file);
    bool exact = back.size() == 2;
    for (std::size_t i = 0; exact && i < 2; ++i) {
        exact = back[i].variant == i && back[i].rate_index == 1 - i &&
                back[i].rate == result.points[i].call_arrival_rate &&
                back[i].measures.queueing_delay ==
                    result.points[i].evaluations[0].measures.queueing_delay &&
                compare_measures(back[i].measures, result.points[i].evaluations[0].measures)
                        .plp_rel_err == 0.0;
    }
    check(exact, "reference file round-trips exactly");
    std::stringstream bad("variant,rate\n");
    bool threw = false;
    try {
        read_reference(bad);
    } catch (const std::exception&) {
        threw = true;
    }
    check(threw, "malformed reference is rejected");
}

}  // namespace

int run_self_test() {
    test_quantiles();
    test_ratios();
    test_json();
    test_schedule();
    test_reference_comparison();
    if (failures == 0) {
        std::fprintf(stderr, "perfbench self-test: all checks passed\n");
    }
    return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
