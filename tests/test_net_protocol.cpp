// Wire protocol: round-trip fidelity and fuzz-style decode robustness.
//
// The decode path is the server's attack surface: it must classify
// truncated, bit-flipped, oversized-length, wrong-magic, and plain random
// garbage frames as typed errors (or NeedMore) without crashing, leaking,
// or allocating proportionally to attacker-chosen lengths. This suite runs
// under the ASan/UBSan CI job, so "no crashes/leaks" is machine-checked.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>

#include "net/protocol.hpp"
#include "util/rng.hpp"

namespace gns::net {
namespace {

serve::RolloutRequest sample_request() {
  serve::RolloutRequest req;
  req.model = "columns";
  req.steps = 12;
  req.material = 0.577;
  req.deadline_ms = 250.0;
  req.window = {{0.1, 0.2, 0.3, 0.4}, {0.15, 0.25, 0.35, 0.45},
                {0.2, 0.3, 0.4, 0.5}};
  req.node_attrs = {1.0, 0.0};
  return req;
}

/// Doubles the wire must carry untouched: a quiet NaN with payload bits,
/// +-Inf, the smallest subnormal, +-1e300 and -0.0.
std::vector<double> non_finite_payload() {
  return {std::bit_cast<double>(0x7FF800000000BEEFull),
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::denorm_min(),
          1e300,
          -1e300,
          -0.0};
}

/// Bit patterns, so NaN payloads and the sign of zero compare exactly.
std::uint64_t bits(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

std::vector<std::uint64_t> bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (const double v : values) out.push_back(bits(v));
  return out;
}

/// Decodes the frame at the buffer head, asserting it frames correctly.
FrameView must_frame(const std::vector<std::uint8_t>& wire) {
  FrameView frame;
  DecodeError error;
  EXPECT_EQ(try_decode_frame(wire.data(), wire.size(), frame, error),
            DecodeStatus::Ok)
      << error.message;
  return frame;
}

TEST(NetProtocol, RolloutRequestRoundTripIsExact) {
  const serve::RolloutRequest req = sample_request();
  const auto wire = encode_rollout_request(77, req);
  const FrameView frame = must_frame(wire);
  EXPECT_EQ(frame.type, MessageType::RolloutRequest);
  EXPECT_EQ(frame.request_id, 77u);
  EXPECT_EQ(frame.frame_bytes, wire.size());

  serve::RolloutRequest out;
  std::string error;
  ASSERT_TRUE(decode_rollout_request(frame, out, error)) << error;
  EXPECT_EQ(out.model, req.model);
  EXPECT_EQ(out.steps, req.steps);
  EXPECT_EQ(out.material, req.material);  // bitwise: doubles travel as-is
  EXPECT_EQ(out.deadline_ms, req.deadline_ms);
  EXPECT_EQ(out.window, req.window);
  EXPECT_EQ(out.node_attrs, req.node_attrs);

  // Non-finite and extreme values in every double field of the request
  // (window, material, node_attrs) arrive with their exact bit patterns.
  const std::vector<double> payload = non_finite_payload();
  for (const double material : payload) {
    serve::RolloutRequest hostile = sample_request();
    hostile.material = material;
    hostile.window = {payload, payload, payload};
    hostile.node_attrs = payload;
    serve::RolloutRequest back;
    ASSERT_TRUE(decode_rollout_request(
        must_frame(encode_rollout_request(78, hostile)), back, error))
        << error;
    EXPECT_EQ(bits(back.material), bits(material));
    ASSERT_EQ(back.window.size(), hostile.window.size());
    for (std::size_t t = 0; t < hostile.window.size(); ++t)
      EXPECT_EQ(bits(back.window[t]), bits(hostile.window[t])) << t;
    EXPECT_EQ(bits(back.node_attrs), bits(hostile.node_attrs));
  }
}

TEST(NetProtocol, ChunkStatusErrorRoundTrip) {
  WireChunk chunk;
  chunk.first_frame = 5;
  chunk.frame_len = 3;
  chunk.data = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  {
    const auto wire = encode_rollout_chunk(9, chunk);
    WireChunk out;
    std::string error;
    ASSERT_TRUE(decode_rollout_chunk(must_frame(wire), out, error)) << error;
    EXPECT_EQ(out.first_frame, 5u);
    EXPECT_EQ(out.num_frames(), 2u);
    EXPECT_EQ(out.data, chunk.data);
  }
  {
    WireChunk hostile;
    hostile.first_frame = 0;
    hostile.data = non_finite_payload();
    hostile.frame_len = static_cast<std::uint32_t>(hostile.data.size());
    WireChunk out;
    std::string error;
    ASSERT_TRUE(decode_rollout_chunk(
        must_frame(encode_rollout_chunk(10, hostile)), out, error))
        << error;
    EXPECT_EQ(out.num_frames(), 1u);
    EXPECT_EQ(bits(out.data), bits(hostile.data));
  }
  {
    WireStatus status;
    status.status = serve::JobStatus::DeadlineExceeded;
    status.total_frames = 4;
    status.queue_ms = 1.5;
    status.exec_ms = 2.5;
    status.total_ms = 4.25;
    status.error = "deadline exceeded after 4 of 9 steps";
    const auto wire = encode_status_reply(11, status);
    WireStatus out;
    std::string error;
    ASSERT_TRUE(decode_status_reply(must_frame(wire), out, error)) << error;
    EXPECT_EQ(out.status, serve::JobStatus::DeadlineExceeded);
    EXPECT_EQ(out.total_frames, 4u);
    EXPECT_EQ(out.total_ms, 4.25);
    EXPECT_EQ(out.error, status.error);
  }
  {
    const auto wire = encode_error_reply(13, {NetError::Busy, "try later"});
    WireError out;
    std::string error;
    ASSERT_TRUE(decode_error_reply(must_frame(wire), out, error)) << error;
    EXPECT_EQ(out.code, NetError::Busy);
    EXPECT_EQ(out.message, "try later");
  }
}

TEST(NetProtocol, EveryTruncationIsNeedMoreNeverError) {
  const auto wire = encode_rollout_request(1, sample_request());
  // A prefix of a valid frame is always an incomplete frame — the decoder
  // must ask for more bytes, never misclassify or read past the end.
  for (std::size_t len = 0; len < wire.size(); ++len) {
    FrameView frame;
    DecodeError error;
    EXPECT_EQ(try_decode_frame(wire.data(), len, frame, error),
              DecodeStatus::NeedMore)
        << "prefix length " << len;
  }
}

TEST(NetProtocol, WrongMagicIsFatalTypedError) {
  auto wire = encode_rollout_request(1, sample_request());
  wire[0] ^= 0xFF;
  FrameView frame;
  DecodeError error;
  ASSERT_EQ(try_decode_frame(wire.data(), wire.size(), frame, error),
            DecodeStatus::Error);
  EXPECT_EQ(error.code, NetError::BadMagic);
  EXPECT_TRUE(error.fatal);
}

TEST(NetProtocol, OversizedLengthRejectedBeforeBufferingOrAllocation) {
  auto wire = encode_rollout_request(1, sample_request());
  const std::uint32_t huge = kMaxPayloadBytes + 1;
  std::memcpy(wire.data() + 16, &huge, sizeof(huge));  // payload_len field
  FrameView frame;
  DecodeError error;
  // Only the 20-byte header is present, yet the verdict is immediate: a
  // hostile length must never make the server buffer toward it.
  ASSERT_EQ(try_decode_frame(wire.data(), kHeaderBytes, frame, error),
            DecodeStatus::Error);
  EXPECT_EQ(error.code, NetError::TooLarge);
  EXPECT_TRUE(error.fatal);
}

TEST(NetProtocol, UnknownVersionAndTypeAreTyped) {
  {
    auto wire = encode_rollout_request(1, sample_request());
    wire[4] = 99;  // version
    FrameView frame;
    DecodeError error;
    ASSERT_EQ(try_decode_frame(wire.data(), wire.size(), frame, error),
              DecodeStatus::Error);
    EXPECT_EQ(error.code, NetError::BadVersion);
    EXPECT_TRUE(error.fatal);
  }
  {
    auto wire = encode_rollout_request(42, sample_request());
    wire[5] = 200;  // type: framing survives, the frame is skippable
    FrameView frame;
    DecodeError error;
    ASSERT_EQ(try_decode_frame(wire.data(), wire.size(), frame, error),
              DecodeStatus::Error);
    EXPECT_EQ(error.code, NetError::BadType);
    EXPECT_FALSE(error.fatal);
    EXPECT_EQ(error.skip_bytes, wire.size());
    EXPECT_EQ(error.request_id, 42u);  // echoable in the ErrorReply
  }
}

TEST(NetProtocol, EveryBitFlipDecodesWithoutCrashing) {
  const auto pristine = encode_rollout_request(7, sample_request());
  // Flip every bit of the frame one at a time; each mutant must decode to
  // Ok / NeedMore / a typed error — and payload parsing, when reached,
  // must validate without crashing (ASan/UBSan enforce the "cleanly" part).
  for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutant = pristine;
      mutant[byte] ^= static_cast<std::uint8_t>(1u << bit);
      FrameView frame;
      DecodeError error;
      const DecodeStatus status =
          try_decode_frame(mutant.data(), mutant.size(), frame, error);
      if (status != DecodeStatus::Ok) continue;
      serve::RolloutRequest out;
      std::string parse_error;
      (void)decode_rollout_request(frame, out, parse_error);
    }
  }
}

TEST(NetProtocol, RandomGarbageNeverCrashes) {
  Rng rng(20260807);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t len =
        static_cast<std::size_t>(rng.uniform(0.0, 96.0));
    std::vector<std::uint8_t> garbage(len);
    for (auto& b : garbage)
      b = static_cast<std::uint8_t>(rng.uniform(0.0, 256.0));
    FrameView frame;
    DecodeError error;
    const DecodeStatus status =
        try_decode_frame(garbage.data(), garbage.size(), frame, error);
    if (status != DecodeStatus::Ok) continue;
    serve::RolloutRequest req_out;
    WireChunk chunk_out;
    WireStatus status_out;
    WireError error_out;
    WireStatsRequest stats_req_out;
    WireStatsReply stats_reply_out;
    std::string parse_error;
    switch (frame.type) {
      case MessageType::RolloutRequest:
        (void)decode_rollout_request(frame, req_out, parse_error);
        break;
      case MessageType::RolloutChunk:
        (void)decode_rollout_chunk(frame, chunk_out, parse_error);
        break;
      case MessageType::StatusReply:
        (void)decode_status_reply(frame, status_out, parse_error);
        break;
      case MessageType::ErrorReply:
        (void)decode_error_reply(frame, error_out, parse_error);
        break;
      case MessageType::StatsRequest:
        (void)decode_stats_request(frame, stats_req_out, parse_error);
        break;
      case MessageType::StatsReply:
        (void)decode_stats_reply(frame, stats_reply_out, parse_error);
        break;
      case MessageType::Hello: {
        WireHello hello_out;
        (void)decode_hello(frame, hello_out, parse_error);
        break;
      }
      case MessageType::HelloReply: {
        WireHelloReply hello_reply_out;
        (void)decode_hello_reply(frame, hello_reply_out, parse_error);
        break;
      }
    }
  }
}

TEST(NetProtocol, PayloadCountMismatchesAreMalformed) {
  // Declared window bigger than the bytes present.
  {
    auto wire = encode_rollout_request(1, sample_request());
    FrameView frame = must_frame(wire);
    // Patch num_window_frames (after model string + steps + 2 doubles).
    const std::size_t off = kHeaderBytes + 2 + 7 + 4 + 8 + 8;
    const std::uint32_t bogus = 60;
    std::memcpy(wire.data() + off, &bogus, sizeof(bogus));
    frame = must_frame(wire);
    serve::RolloutRequest out;
    std::string error;
    EXPECT_FALSE(decode_rollout_request(frame, out, error));
    EXPECT_FALSE(error.empty());
  }
  // Trailing bytes after a complete request payload.
  {
    auto wire = encode_rollout_request(1, sample_request());
    wire.insert(wire.end(), {0, 0, 0, 0});  // 4 junk bytes inside the frame
    std::uint32_t payload_len;
    std::memcpy(&payload_len, wire.data() + 16, sizeof(payload_len));
    payload_len += 4;
    std::memcpy(wire.data() + 16, &payload_len, sizeof(payload_len));
    serve::RolloutRequest out;
    std::string error;
    EXPECT_FALSE(decode_rollout_request(must_frame(wire), out, error));
  }
  // Chunk whose data does not tile into whole frames.
  {
    WireChunk chunk;
    chunk.first_frame = 0;
    chunk.frame_len = 3;
    chunk.data = {1.0, 2.0, 3.0};
    auto wire = encode_rollout_chunk(1, chunk);
    // Patch frame_len to 2: 3 doubles no longer tile.
    const std::uint32_t bogus = 2;
    std::memcpy(wire.data() + kHeaderBytes + 8, &bogus, sizeof(bogus));
    WireChunk out;
    std::string error;
    EXPECT_FALSE(decode_rollout_chunk(must_frame(wire), out, error));
  }
  // Status with an out-of-range JobStatus byte.
  {
    WireStatus status;
    auto wire = encode_status_reply(1, status);
    wire[kHeaderBytes] = 250;
    WireStatus out;
    std::string error;
    EXPECT_FALSE(decode_status_reply(must_frame(wire), out, error));
  }
}

// ---- Protocol v2: trace context, phase breakdown, stats frames -------------

TEST(NetProtocolV2, RequestTraceContextRoundTrips) {
  serve::RolloutRequest req = sample_request();
  req.trace_id = 0xDEADBEEFCAFEF00Dull;
  req.trace_flags = 3;
  const auto wire = encode_rollout_request(5, req);
  const FrameView frame = must_frame(wire);
  EXPECT_EQ(frame.version, kProtocolVersion);

  serve::RolloutRequest out;
  std::string error;
  ASSERT_TRUE(decode_rollout_request(frame, out, error)) << error;
  EXPECT_EQ(out.trace_id, req.trace_id);
  EXPECT_EQ(out.trace_flags, req.trace_flags);
  EXPECT_EQ(out.window, req.window);
}

TEST(NetProtocolV2, V1RequestDecodesWithZeroTraceContext) {
  serve::RolloutRequest req = sample_request();
  req.trace_id = 0xDEADBEEFCAFEF00Dull;  // dropped by a v1 encode
  const auto wire = encode_rollout_request(5, req, /*version=*/1);
  const FrameView frame = must_frame(wire);
  EXPECT_EQ(frame.version, 1);

  serve::RolloutRequest out;
  std::string error;
  ASSERT_TRUE(decode_rollout_request(frame, out, error)) << error;
  EXPECT_EQ(out.trace_id, 0u);
  EXPECT_EQ(out.trace_flags, 0u);
  EXPECT_EQ(out.model, req.model);
  EXPECT_EQ(out.window, req.window);  // v1 layout is untouched by v2
}

WireStatus sample_status() {
  WireStatus status;
  status.status = serve::JobStatus::Ok;
  status.total_frames = 8;
  status.queue_ms = 1.5;
  status.exec_ms = 2.5;
  status.total_ms = 4.25;
  status.trace_id = 0x123456789ABCDEF0ull;
  status.cached = true;
  status.cache_outcome = serve::CacheOutcome::Hit;
  status.phases.decode_us = 11.0;
  status.phases.cache_us = 22.0;
  status.phases.queue_us = 33.0;
  status.phases.batch_wait_us = 44.0;
  status.phases.compute_us = 55.0;
  status.phases.serialize_us = 66.0;
  return status;
}

TEST(NetProtocolV2, StatusReplyPhasesAndOutcomeRoundTrip) {
  const WireStatus status = sample_status();
  const auto wire = encode_status_reply(21, status);
  WireStatus out;
  std::string error;
  ASSERT_TRUE(decode_status_reply(must_frame(wire), out, error)) << error;
  EXPECT_EQ(out.trace_id, status.trace_id);
  EXPECT_TRUE(out.cached);
  EXPECT_EQ(out.cache_outcome, serve::CacheOutcome::Hit);
  EXPECT_EQ(out.phases.decode_us, 11.0);
  EXPECT_EQ(out.phases.cache_us, 22.0);
  EXPECT_EQ(out.phases.queue_us, 33.0);
  EXPECT_EQ(out.phases.batch_wait_us, 44.0);
  EXPECT_EQ(out.phases.compute_us, 55.0);
  EXPECT_EQ(out.phases.serialize_us, 66.0);
  EXPECT_EQ(out.phases.write_us, 0.0);  // by definition 0 on the wire
}

TEST(NetProtocolV2, V1StatusReplyDropsTheAppendix) {
  const auto wire = encode_status_reply(21, sample_status(), /*version=*/1);
  WireStatus out;
  std::string error;
  ASSERT_TRUE(decode_status_reply(must_frame(wire), out, error)) << error;
  // v1 clients see the exact pre-v2 layout; the appendix defaults.
  EXPECT_EQ(out.total_frames, 8u);
  EXPECT_EQ(out.total_ms, 4.25);
  EXPECT_EQ(out.trace_id, 0u);
  EXPECT_FALSE(out.cached);
  EXPECT_EQ(out.cache_outcome, serve::CacheOutcome::None);
  EXPECT_EQ(out.phases.total_us(), 0.0);
}

TEST(NetProtocolV2, StatsFramesRoundTrip) {
  {
    WireStatsRequest req;
    req.format = WireStatsRequest::kJson;
    const auto wire = encode_stats_request(31, req);
    const FrameView frame = must_frame(wire);
    EXPECT_EQ(frame.type, MessageType::StatsRequest);
    WireStatsRequest out;
    std::string error;
    ASSERT_TRUE(decode_stats_request(frame, out, error)) << error;
    EXPECT_EQ(out.format, WireStatsRequest::kJson);
  }
  {
    WireStatsReply reply;
    reply.uptime_ms = 1234.5;
    reply.inflight = 3;
    reply.queue_depth = 7;
    reply.active_connections = 2;
    reply.draining = 1;
    reply.format = WireStatsRequest::kPrometheus;
    reply.body = "# HELP x x\nx_total 4\n";
    const auto wire = encode_stats_reply(32, reply);
    const FrameView frame = must_frame(wire);
    EXPECT_EQ(frame.type, MessageType::StatsReply);
    WireStatsReply out;
    std::string error;
    ASSERT_TRUE(decode_stats_reply(frame, out, error)) << error;
    EXPECT_EQ(out.uptime_ms, 1234.5);
    EXPECT_EQ(out.inflight, 3u);
    EXPECT_EQ(out.queue_depth, 7u);
    EXPECT_EQ(out.active_connections, 2u);
    EXPECT_EQ(out.draining, 1u);
    EXPECT_EQ(out.body, reply.body);
  }
}

TEST(NetProtocolV2, OversizedStatsBodyIsTruncatedAtEncode) {
  WireStatsReply reply;
  reply.body.assign(kMaxStatsBodyBytes + 1000, 'x');
  const auto wire = encode_stats_reply(33, reply);
  WireStatsReply out;
  std::string error;
  ASSERT_TRUE(decode_stats_reply(must_frame(wire), out, error)) << error;
  EXPECT_EQ(out.body.size(), kMaxStatsBodyBytes);
}

TEST(NetProtocolV2, StatsFrameOnV1WireIsSkippableBadType) {
  // A stats frame whose header claims v1: type 5 does not exist in v1, so
  // the decoder must reject it as a skippable BadType, keeping an old
  // server's framing intact against a new client.
  auto wire = encode_stats_request(34, {});
  wire[4] = 1;  // version byte
  FrameView frame;
  DecodeError error;
  ASSERT_EQ(try_decode_frame(wire.data(), wire.size(), frame, error),
            DecodeStatus::Error);
  EXPECT_EQ(error.code, NetError::BadType);
  EXPECT_FALSE(error.fatal);
  EXPECT_EQ(error.skip_bytes, wire.size());
}

TEST(NetProtocolV2, NewFramesSurviveTruncationAndBitFlips) {
  WireStatsReply reply;
  reply.uptime_ms = 99.0;
  reply.body = "metric 1\n";
  const std::vector<std::vector<std::uint8_t>> frames = {
      encode_stats_request(41, {}),
      encode_stats_reply(42, reply),
      encode_status_reply(43, sample_status()),
  };
  for (const auto& pristine : frames) {
    // Every strict prefix is NeedMore — length-prefix framing is intact.
    for (std::size_t len = 0; len < pristine.size(); ++len) {
      FrameView frame;
      DecodeError error;
      EXPECT_EQ(try_decode_frame(pristine.data(), len, frame, error),
                DecodeStatus::NeedMore)
          << "prefix length " << len;
    }
    // Every single-bit mutant decodes cleanly or fails typed — never
    // crashes (ASan/UBSan enforce the memory half of that claim).
    for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        auto mutant = pristine;
        mutant[byte] ^= static_cast<std::uint8_t>(1u << bit);
        FrameView frame;
        DecodeError error;
        if (try_decode_frame(mutant.data(), mutant.size(), frame, error) !=
            DecodeStatus::Ok)
          continue;
        std::string parse_error;
        WireStatsRequest sreq;
        WireStatsReply srep;
        WireStatus status;
        switch (frame.type) {
          case MessageType::StatsRequest:
            (void)decode_stats_request(frame, sreq, parse_error);
            break;
          case MessageType::StatsReply:
            (void)decode_stats_reply(frame, srep, parse_error);
            break;
          case MessageType::StatusReply:
            (void)decode_status_reply(frame, status, parse_error);
            break;
          default:
            break;
        }
      }
    }
  }
}

// ---- Protocol v3: HELLO capability handshake, BackendLost ------------------

TEST(NetProtocolV3, HelloRoundTripIsExact) {
  {
    WireHello hello;
    hello.kind = WireHello::kRouter;
    const auto wire = encode_hello(51, hello);
    const FrameView frame = must_frame(wire);
    EXPECT_EQ(frame.type, MessageType::Hello);
    EXPECT_EQ(frame.version, kProtocolVersion);
    WireHello out;
    std::string error;
    ASSERT_TRUE(decode_hello(frame, out, error)) << error;
    EXPECT_EQ(out.kind, WireHello::kRouter);
  }
  {
    WireHelloReply reply;
    reply.protocol_version = kProtocolVersion;
    reply.draining = 1;
    reply.max_inflight = 64;
    reply.current_inflight = 3;
    reply.workers = 4;
    reply.models = {"columns", "sand", "mpm_2d"};
    const auto wire = encode_hello_reply(52, reply);
    const FrameView frame = must_frame(wire);
    EXPECT_EQ(frame.type, MessageType::HelloReply);
    WireHelloReply out;
    std::string error;
    ASSERT_TRUE(decode_hello_reply(frame, out, error)) << error;
    EXPECT_EQ(out.protocol_version, kProtocolVersion);
    EXPECT_EQ(out.draining, 1u);
    EXPECT_EQ(out.max_inflight, 64u);
    EXPECT_EQ(out.current_inflight, 3u);
    EXPECT_EQ(out.workers, 4u);
    EXPECT_EQ(out.models, reply.models);
  }
}

TEST(NetProtocolV3, HelloOnPreV3WireIsSkippableBadType) {
  // What an old server's decoder does with a router's HELLO: type 7 does
  // not exist below v3, so the frame must reject as a skippable BadType
  // with intact framing. The router's legacy-backend fallback is built on
  // exactly this guarantee.
  for (std::uint8_t version : {1, 2}) {
    auto wire = encode_hello(53, {});
    wire[4] = version;
    FrameView frame;
    DecodeError error;
    ASSERT_EQ(try_decode_frame(wire.data(), wire.size(), frame, error),
              DecodeStatus::Error)
        << "version " << static_cast<int>(version);
    EXPECT_EQ(error.code, NetError::BadType);
    EXPECT_FALSE(error.fatal);
    EXPECT_EQ(error.skip_bytes, wire.size());
    EXPECT_EQ(error.request_id, 53u);
  }
}

TEST(NetProtocolV3, BackendLostIsV3OnlyOnTheWire) {
  // Round-trips on a v3 frame…
  const auto wire = encode_error_reply(54, {NetError::BackendLost, "gone"});
  WireError out;
  std::string error;
  ASSERT_TRUE(decode_error_reply(must_frame(wire), out, error)) << error;
  EXPECT_EQ(out.code, NetError::BackendLost);
  EXPECT_EQ(out.message, "gone");

  // …but is out of range for a pre-v3 frame: append-only versioning means
  // an old client must never see a code its enum cannot hold.
  auto v2 = wire;
  v2[4] = 2;  // version byte; payload untouched
  WireError v2_out;
  EXPECT_FALSE(decode_error_reply(must_frame(v2), v2_out, error));
}

TEST(NetProtocolV3, HelloReplyModelCountIsBounded) {
  WireHelloReply reply;
  reply.models = {"a", "b"};
  auto wire = encode_hello_reply(55, reply);
  // Patch num_models (u16 after the 14-byte fixed header fields) to claim
  // more entries than the payload holds: must fail, not over-allocate.
  const std::uint16_t bogus = 999;
  std::memcpy(wire.data() + kHeaderBytes + 14, &bogus, sizeof(bogus));
  WireHelloReply out;
  std::string error;
  EXPECT_FALSE(decode_hello_reply(must_frame(wire), out, error));
  EXPECT_FALSE(error.empty());
}

TEST(NetProtocolV3, HelloFramesSurviveTruncationAndBitFlips) {
  WireHelloReply reply;
  reply.max_inflight = 8;
  reply.models = {"columns", "m"};
  const std::vector<std::vector<std::uint8_t>> frames = {
      encode_hello(61, {WireHello::kRouter}),
      encode_hello_reply(62, reply),
  };
  for (const auto& pristine : frames) {
    for (std::size_t len = 0; len < pristine.size(); ++len) {
      FrameView frame;
      DecodeError error;
      EXPECT_EQ(try_decode_frame(pristine.data(), len, frame, error),
                DecodeStatus::NeedMore)
          << "prefix length " << len;
    }
    for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        auto mutant = pristine;
        mutant[byte] ^= static_cast<std::uint8_t>(1u << bit);
        FrameView frame;
        DecodeError error;
        if (try_decode_frame(mutant.data(), mutant.size(), frame, error) !=
            DecodeStatus::Ok)
          continue;
        std::string parse_error;
        WireHello hello;
        WireHelloReply hello_reply;
        switch (frame.type) {
          case MessageType::Hello:
            (void)decode_hello(frame, hello, parse_error);
            break;
          case MessageType::HelloReply:
            (void)decode_hello_reply(frame, hello_reply, parse_error);
            break;
          default:
            break;
        }
      }
    }
  }
}

TEST(NetProtocol, BackToBackFramesDecodeSequentially) {
  const auto a = encode_error_reply(1, {NetError::Busy, "a"});
  const auto b = encode_status_reply(2, {});
  std::vector<std::uint8_t> stream = a;
  stream.insert(stream.end(), b.begin(), b.end());

  FrameView frame;
  DecodeError error;
  ASSERT_EQ(try_decode_frame(stream.data(), stream.size(), frame, error),
            DecodeStatus::Ok);
  EXPECT_EQ(frame.type, MessageType::ErrorReply);
  EXPECT_EQ(frame.request_id, 1u);

  ASSERT_EQ(try_decode_frame(stream.data() + frame.frame_bytes,
                             stream.size() - frame.frame_bytes, frame, error),
            DecodeStatus::Ok);
  EXPECT_EQ(frame.type, MessageType::StatusReply);
  EXPECT_EQ(frame.request_id, 2u);
}

}  // namespace
}  // namespace gns::net
