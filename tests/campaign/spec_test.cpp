// Campaign spec format: accepted documents, builder equivalence, cartesian
// expansion order, and — most importantly — that every malformed spec is
// rejected with the 1-based line number of the offending construct.
#include "campaign/spec.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "campaign/json.hpp"
#include "campaign/runner.hpp"
#include "eval/memo.hpp"
#include "eval/registry.hpp"

namespace gprsim::campaign {
namespace {

TEST(ParseSpec, FullDocumentRoundTrips) {
    const std::string text = R"({
      // comments and trailing commas are part of the spec format
      "name": "fig06",
      "method": "both",
      "traffic_model": 3,
      "reserved_pdch": [1, 2],
      "gprs_fraction": [0.02, 0.05, 0.10],
      "coding_scheme": "cs2",
      "max_gprs_sessions": 0,
      "channels": 20,
      "buffer": 100,
      "eta": 0.7,
      "bler": 0.0,
      "rates": {"first": 0.1, "last": 1.0, "count": 10},
      "solver": {"tolerance": 1e-9, "warm_start": true},
      "simulation": {"replications": 4, "seed": 600, "warmup": 1500,
                     "batch_count": 10, "batch_duration": 1500, "tcp": true},
    })";
    const ScenarioSpec spec = parse_spec(text);
    EXPECT_EQ(spec.name, "fig06");
    EXPECT_EQ(spec.methods, (std::vector<std::string>{"ctmc", "des"}));
    EXPECT_EQ(spec.traffic_models, std::vector<int>{3});
    EXPECT_EQ(spec.reserved_pdch, (std::vector<int>{1, 2}));
    EXPECT_EQ(spec.gprs_fractions, (std::vector<double>{0.02, 0.05, 0.10}));
    EXPECT_EQ(spec.variant_count(), 6u);
    ASSERT_EQ(spec.rates.size(), 10u);
    EXPECT_DOUBLE_EQ(spec.rates.front(), 0.1);
    EXPECT_DOUBLE_EQ(spec.rates.back(), 1.0);
    EXPECT_EQ(spec.point_count(), 60u);
    EXPECT_DOUBLE_EQ(spec.solver.tolerance, 1e-9);
    EXPECT_EQ(spec.simulation.replications, 4);
    EXPECT_EQ(spec.simulation.seed, 600u);
}

TEST(ParseSpec, BuilderMatchesParsedSpec) {
    const ScenarioSpec parsed = parse_spec(R"({
      "name": "grid",
      "method": "ctmc",
      "traffic_model": [1, 2],
      "reserved_pdch": [1, 4],
      "rates": [0.2, 0.5, 0.8],
    })");
    ScenarioSpec built;
    built.named("grid")
        .with_method("ctmc")
        .over_traffic_models({1, 2})
        .over_reserved_pdch({1, 4})
        .with_rates({0.2, 0.5, 0.8});
    EXPECT_EQ(parsed.name, built.name);
    EXPECT_EQ(parsed.traffic_models, built.traffic_models);
    EXPECT_EQ(parsed.reserved_pdch, built.reserved_pdch);
    EXPECT_EQ(parsed.rates, built.rates);
    EXPECT_EQ(parsed.variant_count(), built.variant_count());
}

TEST(ParseSpec, ExpansionOrderIsDocumentedCartesianProduct) {
    ScenarioSpec spec;
    spec.over_traffic_models({1, 3})
        .over_reserved_pdch({0, 2})
        .with_rates({0.5});
    const std::vector<Variant> variants = spec.expand();
    ASSERT_EQ(variants.size(), 4u);
    // traffic_models outermost, reserved_pdch inner.
    EXPECT_EQ(variants[0].traffic_model, 1);
    EXPECT_EQ(variants[0].reserved_pdch, 0);
    EXPECT_EQ(variants[1].traffic_model, 1);
    EXPECT_EQ(variants[1].reserved_pdch, 2);
    EXPECT_EQ(variants[2].traffic_model, 3);
    EXPECT_EQ(variants[2].reserved_pdch, 0);
    EXPECT_EQ(variants[3].traffic_model, 3);
    EXPECT_EQ(variants[3].reserved_pdch, 2);
    // Preset M comes from the traffic model (tm1 -> 50, tm3 -> 20).
    EXPECT_EQ(variants[0].parameters.max_gprs_sessions, 50);
    EXPECT_EQ(variants[2].parameters.max_gprs_sessions, 20);
    // The variant label carries every axis value.
    EXPECT_NE(variants[3].label.find("tm3"), std::string::npos);
    EXPECT_NE(variants[3].label.find("pdch=2"), std::string::npos);
}

TEST(ParseSpec, MethodsListAcceptsAnyRegisteredBackends) {
    const ScenarioSpec spec = parse_spec(R"({
      "name": "multi",
      "methods": ["ctmc", "des", "mm1k-approx"],
      "rates": [0.5],
    })");
    EXPECT_EQ(spec.methods, (std::vector<std::string>{"ctmc", "des", "mm1k-approx"}));
}

TEST(ParseSpec, LegacyMethodAliasesStillParse) {
    EXPECT_EQ(parse_spec(R"({"method": "erlang", "rates": [0.5]})").methods,
              std::vector<std::string>{"erlang"});
    EXPECT_EQ(parse_spec(R"({"method": "ctmc", "rates": [0.5]})").methods,
              std::vector<std::string>{"ctmc"});
    // "both" is the pre-registry spelling of "model and simulator".
    EXPECT_EQ(parse_spec(R"({"method": "both", "rates": [0.5]})").methods,
              (std::vector<std::string>{"ctmc", "des"}));
    // The alias also expands inside a list.
    EXPECT_EQ(parse_spec(R"({"methods": ["erlang", "both"], "rates": [0.5]})").methods,
              (std::vector<std::string>{"erlang", "ctmc", "des"}));
}

TEST(ParseSpec, CustomRegisteredBackendAcceptedInMethods) {
    // A backend registered by out-of-tree code is immediately valid in
    // specs — the whole point of the registry dispatch.
    static bool registered = false;
    if (!registered) {
        ASSERT_TRUE(eval::register_backend("spec-test-custom", "spec test stub", [] {
                        class Stub final : public eval::Evaluator {
                            const std::string& name() const override {
                                static const std::string n = "spec-test-custom";
                                return n;
                            }
                            const std::string& description() const override {
                                static const std::string d = "stub";
                                return d;
                            }
                            common::Result<eval::PointEvaluation> evaluate(
                                const eval::ScenarioQuery& query) override {
                                eval::PointEvaluation point;
                                point.backend = name();
                                point.call_arrival_rate = query.call_arrival_rate;
                                return point;
                            }
                        };
                        return std::make_unique<Stub>();
                    }).ok());
        registered = true;
    }
    const ScenarioSpec spec =
        parse_spec(R"({"methods": ["spec-test-custom"], "rates": [0.5]})");
    EXPECT_EQ(spec.methods, std::vector<std::string>{"spec-test-custom"});
    spec.validate();  // does not throw
}

TEST(SpecValidate, EmptyMethodsRejected) {
    ScenarioSpec spec;
    spec.with_rates({0.5});
    spec.methods.clear();
    EXPECT_THROW(spec.validate(), SpecError);
}

TEST(ParseSpec, SessionLimitAxisOverridesPresetM) {
    ScenarioSpec spec;
    spec.over_session_limits({0, 10}).with_rates({0.5});
    const std::vector<Variant> variants = spec.expand();
    ASSERT_EQ(variants.size(), 2u);
    EXPECT_EQ(variants[0].parameters.max_gprs_sessions, 50);  // tm1 preset
    EXPECT_EQ(variants[1].parameters.max_gprs_sessions, 10);
}

/// Expects `parse_spec(text)` to throw a SpecError whose line() matches.
void expect_rejected_at_line(const std::string& text, int line,
                             const std::string& message_fragment) {
    try {
        parse_spec(text);
        FAIL() << "spec was accepted: " << text;
    } catch (const SpecError& e) {
        EXPECT_EQ(e.line(), line) << e.what();
        EXPECT_NE(std::string(e.what()).find(message_fragment), std::string::npos)
            << e.what();
    }
}

TEST(ParseSpecErrors, SyntaxErrorCarriesLineNumber) {
    expect_rejected_at_line("{\n  \"name\": \"x\",\n  \"rates\": [0.1,,\n}", 3,
                            "unexpected character");
}

TEST(ParseSpecErrors, UnknownMethodRejectedWithLineAndKnownBackends) {
    expect_rejected_at_line(R"({
      "rates": [0.5],
      "methods": ["ctmc", "diffusion"]
    })",
                            3, "registered backends");
}

TEST(ParseSpecErrors, DuplicateMethodRejected) {
    expect_rejected_at_line(R"({
      "rates": [0.5],
      "methods": ["ctmc", "ctmc"]
    })",
                            3, "listed twice");
    // The alias expansion is checked too: "both" already contains "des".
    EXPECT_THROW(parse_spec(R"({"methods": ["des", "both"], "rates": [0.5]})"),
                 SpecError);
}

TEST(ParseSpecErrors, UnknownKeyCarriesItsLine) {
    expect_rejected_at_line(R"({
      "name": "x",
      "rates": [0.5],
      "reserved_pdhc": 2
    })",
                            4, "unknown campaign key \"reserved_pdhc\"");
}

TEST(ParseSpecErrors, UnknownNestedKeyCarriesItsLine) {
    expect_rejected_at_line(R"({
      "rates": [0.5],
      "solver": {
        "tolernace": 1e-9
      }
    })",
                            4, "unknown \"solver\" key");
}

TEST(ParseSpecErrors, RemovedSolverMethodRejectedWithAcceptedSpellings) {
    for (const char* method : {"jacobi", "power", "sor", "symmetric_gauss_seidel",
                               "red_black_gauss_seidel"}) {
        expect_rejected_at_line(std::string(R"({
      "rates": [0.5],
      "solver": {
        "method": ")") + method + R"("
      }
    })",
                                4, "(accepted: auto, gauss_seidel)");
        // Builder-made specs (and the runner's method override) hit the
        // same check in validate().
        ScenarioSpec spec;
        spec.with_rates({0.5}).with_solver_method(method);
        EXPECT_THROW(spec.validate(), SpecError) << method;
    }
    for (const char* method : {"auto", "gauss_seidel"}) {
        const std::string text =
            std::string(R"({"rates": [0.5], "solver": {"method": ")") + method + "\"}}";
        EXPECT_EQ(parse_spec(text).solver.method, method);
    }
}

TEST(ParseSpecErrors, WrongTypeCarriesItsLine) {
    expect_rejected_at_line(R"({
      "rates": [0.5],
      "method": 3
    })",
                            3, "expected string");
}

TEST(ParseSpec, WarmStartKeyIsATypeCheckedNoOp) {
    // "warm_start" still parses (older specs set it) but changes nothing:
    // false and true expand to the same workload, query for query.
    const auto workload_of = [](const char* flag) {
        return build_campaign_workload(parse_spec(std::string(R"({
      "method": "ctmc",
      "reserved_pdch": [1, 2],
      "rates": [0.2, 0.5],
      "solver": {"tolerance": 1e-9, "warm_start": )") + flag + "}\n    }"));
    };
    const CampaignWorkload on = workload_of("true");
    const CampaignWorkload off = workload_of("false");
    EXPECT_EQ(on.effective.rates, off.effective.rates);
    EXPECT_EQ(on.effective.methods, off.effective.methods);
    ASSERT_EQ(on.queries.size(), 2u);
    ASSERT_EQ(on.queries.size(), off.queries.size());
    for (std::size_t v = 0; v < on.queries.size(); ++v) {
        EXPECT_EQ(eval::query_signature("ctmc", on.queries[v]),
                  eval::query_signature("ctmc", off.queries[v]))
            << v;
    }
    // The type check on outside input stays.
    expect_rejected_at_line(R"({
      "rates": [0.5],
      "solver": {
        "warm_start": 3
      }
    })",
                            4, "expected boolean");
}

TEST(ParseSpecErrors, NonIntegerAxisValueRejected) {
    expect_rejected_at_line(R"({
      "rates": [0.5],
      "reserved_pdch": [1, 2.5]
    })",
                            3, "must be an integer");
}

TEST(ParseSpecErrors, BadTrafficModelRejected) {
    EXPECT_THROW(parse_spec(R"({"rates": [0.5], "traffic_model": 4})"), SpecError);
}

TEST(ParseSpecErrors, BadCodingSchemeNamesValidOptions) {
    expect_rejected_at_line(R"({
      "rates": [0.5],
      "coding_scheme": "cs9"
    })",
                            3, "unknown coding scheme");
}

TEST(ParseSpecErrors, MissingRatesRejected) {
    EXPECT_THROW(parse_spec(R"({"name": "x"})"), SpecError);
}

TEST(ParseSpecErrors, DuplicateKeyRejected) {
    expect_rejected_at_line("{\n  \"rates\": [0.5],\n  \"rates\": [0.6]\n}", 3,
                            "duplicate key");
}

TEST(ParseSpecErrors, DescendingRatesRejected) {
    EXPECT_THROW(parse_spec(R"({"rates": [0.5, 0.4]})"), SpecError);
}

TEST(ParseSpecErrors, GridRatesNeedTwoPoints) {
    expect_rejected_at_line(R"({
      "rates": {"first": 0.1, "last": 1.0, "count": 1}
    })",
                            2, "count >= 2");
}

TEST(ParseSpec, SeedAcceptsFullUintRangeUpTo2To53) {
    const ScenarioSpec spec = parse_spec(R"({
      "rates": [0.5],
      "simulation": {"seed": 3000000000}
    })");
    EXPECT_EQ(spec.simulation.seed, 3000000000u);
}

TEST(ParseSpecErrors, NegativeOrHugeSeedRejected) {
    expect_rejected_at_line(R"({
      "rates": [0.5],
      "simulation": {"seed": -1}
    })",
                            3, "non-negative integer");
    EXPECT_THROW(parse_spec(R"({"rates": [0.5], "simulation": {"seed": 1e17}})"),
                 SpecError);
}

TEST(ParseSpecErrors, DesMethodValidatesSimulationBlock) {
    EXPECT_THROW(parse_spec(R"({
      "method": "des",
      "rates": [0.5],
      "simulation": {"replications": 0}
    })"),
                 SpecError);
}

TEST(SpecValidate, BuilderSpecsAreValidatedToo) {
    ScenarioSpec spec;
    spec.with_rates({0.5}).over_gprs_fractions({1.5});
    EXPECT_THROW(spec.validate(), SpecError);
    EXPECT_THROW((ScenarioSpec{}.with_rate_grid(1.0, 0.5, 5)), SpecError);
}

TEST(SpecValidate, NameWithControlCharactersRejected) {
    // The name flows into CSV rows and JSON strings; embedded newlines
    // would break their framing, so validate() rejects them up front.
    ScenarioSpec spec;
    spec.named("a\nb").with_rates({0.5});
    EXPECT_THROW(spec.validate(), SpecError);
    EXPECT_THROW(parse_spec(R"({"name": "a\nb", "rates": [0.5]})"), SpecError);
}

TEST(ParseSpecFile, MissingFileThrows) {
    EXPECT_THROW(parse_spec_file("/nonexistent/campaign.json"), SpecError);
}

}  // namespace
}  // namespace gprsim::campaign
