// Unit coverage of the service building blocks: the frame codec, the
// bounded SPSC ring, and the rolling stats reservoir. The shared warm
// store is an eval::Memo (tests/eval/memo_test.cpp); the end-to-end
// behaviors (typed rejections, byte-identity, saturation) live in
// fault_injection_test.cpp and concurrency_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "service/protocol.hpp"
#include "service/ring.hpp"
#include "service/stats.hpp"

namespace gprsim::service {
namespace {

TEST(Protocol, EncodeParseRoundtrip) {
    const Frame frame{"campaign", 42, "{\"name\": \"x\"}"};
    const std::string bytes = encode_frame(frame);
    const std::size_t newline = bytes.find('\n');
    ASSERT_NE(newline, std::string::npos);

    Frame parsed;
    auto length = parse_frame_header(bytes.substr(0, newline), parsed);
    ASSERT_TRUE(length.ok()) << length.error().message;
    EXPECT_EQ(parsed.type, "campaign");
    EXPECT_EQ(parsed.id, 42u);
    EXPECT_EQ(length.value(), frame.payload.size());
    EXPECT_EQ(bytes.substr(newline + 1), frame.payload);
}

TEST(Protocol, RejectsMalformedHeaders) {
    Frame frame;
    // Wrong magic, missing fields, junk length, oversized length: each a
    // typed invalid_query, never a crash.
    for (const std::string line :
         {"HTTP/1.1 campaign 1 10", "GPRS/1 campaign 1", "GPRS/1 campaign one 10",
          "GPRS/1 campaign 1 ten", "GPRS/1 campaign 1 10 extra", "",
          "GPRS/1 campaign 1 999999999999999"}) {
        auto length = parse_frame_header(line, frame);
        ASSERT_FALSE(length.ok()) << "accepted: " << line;
        EXPECT_EQ(length.error().code, common::EvalErrorCode::invalid_query);
    }
}

TEST(Protocol, ErrorPayloadRoundtripsAndDefaultsUnknownCodes) {
    const common::EvalError error{common::EvalErrorCode::saturated, "queue full"};
    const common::EvalError back = decode_error_payload(encode_error_payload(error));
    EXPECT_EQ(back.code, common::EvalErrorCode::saturated);
    EXPECT_EQ(back.message, "queue full");

    const common::EvalError unknown = decode_error_payload("no_such_code\nboom");
    EXPECT_EQ(unknown.code, common::EvalErrorCode::internal);
    EXPECT_EQ(unknown.message, "boom");
}

TEST(Ring, DeliversInOrderAndDrainsAfterClose) {
    FrameRing ring(2);
    std::thread producer([&ring] {
        for (int i = 0; i < 10; ++i) {
            ASSERT_TRUE(ring.push(Frame{"csv", static_cast<std::uint64_t>(i), ""}));
        }
        ring.close();
    });
    for (int i = 0; i < 10; ++i) {
        auto frame = ring.pop();
        ASSERT_TRUE(frame.has_value());
        EXPECT_EQ(frame->id, static_cast<std::uint64_t>(i));
    }
    EXPECT_FALSE(ring.pop().has_value());  // closed and drained
    producer.join();
}

TEST(Ring, ShutdownUnblocksAndRejectsTheProducer) {
    FrameRing ring(1);
    ASSERT_TRUE(ring.push(Frame{"csv", 0, "full"}));
    std::atomic<bool> rejected{false};
    std::thread producer([&ring, &rejected] {
        // Blocks on the full ring until the consumer abandons, then the
        // frame must be discarded, not delivered.
        rejected = !ring.push(Frame{"csv", 1, "late"});
    });
    ring.shutdown();
    producer.join();
    EXPECT_TRUE(rejected);
    EXPECT_FALSE(ring.push(Frame{"csv", 2, ""}));
    EXPECT_EQ(ring.size(), 0u);  // buffered frames dropped
}

TEST(Stats, CountsAndQuantiles) {
    RollingStats stats(8);
    stats.record_received();
    stats.record_served();
    stats.record_store(true);
    stats.record_store(false);
    stats.record_store(false);
    for (int i = 1; i <= 100; ++i) {
        stats.record_point(static_cast<double>(i));  // reservoir keeps 93..100
    }
    const StatsSnapshot snap = stats.snapshot();
    EXPECT_EQ(snap.requests_received, 1u);
    EXPECT_EQ(snap.requests_served, 1u);
    EXPECT_EQ(snap.points_evaluated, 100u);
    EXPECT_NEAR(snap.store_hit_rate(), 1.0 / 3.0, 1e-12);
    EXPECT_EQ(snap.reservoir_points, 8u);
    EXPECT_GE(snap.p50_point_seconds, 93.0);
    EXPECT_LE(snap.p50_point_seconds, 100.0);
    EXPECT_GE(snap.p99_point_seconds, snap.p50_point_seconds);
    const std::string json = snap.to_json();
    EXPECT_NE(json.find("\"hit_rate\""), std::string::npos);
    EXPECT_NE(json.find("\"p99_seconds\""), std::string::npos);
}

}  // namespace
}  // namespace gprsim::service
