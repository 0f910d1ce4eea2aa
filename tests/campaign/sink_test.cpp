// Campaign sinks: CSV round-trip at full double precision, column layout
// stability, quoting, the JSON document's shape (parseable by the spec
// layer's own JSON reader), and the summary block.
#include "campaign/sink.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "campaign/json.hpp"

namespace gprsim::campaign {
namespace {

/// Small deterministic campaign (erlang method — no solver, milliseconds).
CampaignResult sample_result() {
    ScenarioSpec spec;
    spec.named("sink sample, quoted")
        .with_method("erlang")
        .over_reserved_pdch({0, 2})
        .with_rate_grid(0.25, 0.75, 3);
    return run_campaign(spec);
}

double parse_double(const std::string& cell) {
    char* end = nullptr;
    const double value = std::strtod(cell.c_str(), &end);
    EXPECT_NE(end, cell.c_str()) << "unparseable cell: " << cell;
    return value;
}

TEST(CampaignCsv, RoundTripsExactBits) {
    const CampaignResult result = sample_result();
    std::ostringstream out;
    write_campaign_csv(result, out);

    std::istringstream in(out.str());
    const CsvTable table = read_csv(in);
    ASSERT_EQ(table.rows.size(), result.points.size());
    ASSERT_EQ(table.columns.size(), 40u);

    for (std::size_t row = 0; row < table.rows.size(); ++row) {
        const CampaignPoint& point = result.points[row];
        const Variant& variant = result.variants[point.variant];
        // The quoted scenario name survives the comma.
        EXPECT_EQ(table.cell(row, "scenario"), "sink sample, quoted");
        EXPECT_EQ(table.cell(row, "reserved_pdch"), std::to_string(variant.reserved_pdch));
        // Doubles round-trip bit-exactly through max_digits10 text.
        EXPECT_EQ(parse_double(table.cell(row, "call_arrival_rate")),
                  point.call_arrival_rate);
        EXPECT_EQ(parse_double(table.cell(row, "model_cvt")),
                  point.model.carried_voice_traffic);
        EXPECT_EQ(parse_double(table.cell(row, "model_gsm_blocking")),
                  point.model.gsm_blocking);
        // Columns the erlang method cannot fill stay empty.
        EXPECT_TRUE(table.cell(row, "sim_cdt").empty());
        EXPECT_TRUE(table.cell(row, "delta_cdt").empty());
    }
}

TEST(CampaignCsv, ReaderRejectsRaggedRows) {
    std::istringstream in("a,b,c\n1,2,3\n4,5\n");
    EXPECT_THROW(read_csv(in), std::runtime_error);
}

TEST(CampaignCsv, ReaderHandlesQuotedCells) {
    std::istringstream in("name,value\n\"a,b\",\"say \"\"hi\"\"\"\n");
    const CsvTable table = read_csv(in);
    ASSERT_EQ(table.rows.size(), 1u);
    EXPECT_EQ(table.cell(0, "name"), "a,b");
    EXPECT_EQ(table.cell(0, "value"), "say \"hi\"");
}

TEST(CampaignCsv, UnknownColumnThrows) {
    std::istringstream in("a,b\n1,2\n");
    const CsvTable table = read_csv(in);
    EXPECT_THROW(table.column("missing"), std::out_of_range);
}

TEST(CampaignJson, DocumentParsesWithOwnReader) {
    const CampaignResult result = sample_result();
    std::ostringstream out;
    write_campaign_json(result, out);

    const JsonValue root = parse_json(out.str());
    ASSERT_TRUE(root.is_object());
    EXPECT_EQ(root.find("name")->as_string(), "sink sample, quoted");
    const JsonValue* methods = root.find("methods");
    ASSERT_NE(methods, nullptr);
    ASSERT_TRUE(methods->is_array());
    ASSERT_EQ(methods->items().size(), 1u);
    EXPECT_EQ(methods->items().front().as_string(), "erlang");
    const JsonValue* summary = root.find("summary");
    ASSERT_NE(summary, nullptr);
    EXPECT_EQ(static_cast<std::size_t>(summary->find("points")->as_number()),
              result.points.size());
    const JsonValue* points = root.find("points");
    ASSERT_NE(points, nullptr);
    ASSERT_EQ(points->items().size(), result.points.size());
    const JsonValue& first = points->items().front();
    EXPECT_EQ(first.find("model_cvt")->as_number(),
              result.points.front().model.carried_voice_traffic);
    // Omitted (empty) columns must be absent, not null.
    EXPECT_EQ(first.find("sim_cdt"), nullptr);
}

TEST(CampaignSummary, PrintsIterationTotals)
{
    const CampaignResult result = sample_result();
    char buffer[512] = {};
    std::FILE* out = std::tmpfile();
    ASSERT_NE(out, nullptr);
    print_campaign_summary(result, out);
    std::rewind(out);
    const std::size_t read = std::fread(buffer, 1, sizeof(buffer) - 1, out);
    std::fclose(out);
    const std::string text(buffer, read);
    EXPECT_NE(text.find("campaign 'sink sample, quoted' (erlang)"), std::string::npos);
    EXPECT_NE(text.find("2 variants x 3 rates = 6 points"), std::string::npos);
}

}  // namespace
}  // namespace gprsim::campaign
