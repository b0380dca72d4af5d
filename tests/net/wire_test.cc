#include "net/wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/checksum.h"

namespace tilestore {
namespace net {
namespace {

// Little-endian u32 store, for hand-patching header fields in tests.
void PutU32At(std::vector<uint8_t>* buf, size_t off, uint32_t v) {
  (*buf)[off + 0] = static_cast<uint8_t>(v);
  (*buf)[off + 1] = static_cast<uint8_t>(v >> 8);
  (*buf)[off + 2] = static_cast<uint8_t>(v >> 16);
  (*buf)[off + 3] = static_cast<uint8_t>(v >> 24);
}

// Re-seals the header CRC after a test patched earlier header bytes, so
// the patched field (not the CRC check) is what the decoder trips on.
void ResealHeaderCrc(std::vector<uint8_t>* frame) {
  PutU32At(frame, 24, Crc32c(frame->data(), 24));
}

// A whole frame in one buffer, as the receiving socket sees it. Senders
// never join the two: they pass the header and the payload to one
// vectored send.
std::vector<uint8_t> EncodeFrame(WireOp op, bool response,
                                 uint64_t request_id,
                                 const std::vector<uint8_t>& payload,
                                 uint16_t version = kWireVersion) {
  std::vector<uint8_t> frame(kHeaderBytes);
  EncodeFrameHeader(op, response, request_id, payload, frame.data(),
                    version);
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

// Splits a frame built by EncodeFrame back into a verified payload, so the
// hostile-length tests below show their payloads pass the CRC checks and
// are caught by the decoder's own bounds.
std::vector<uint8_t> VerifiedPayload(const std::vector<uint8_t>& frame) {
  FrameHeader header;
  EXPECT_TRUE(DecodeHeader(frame.data(), &header).ok());
  std::vector<uint8_t> payload(frame.begin() + kHeaderBytes, frame.end());
  EXPECT_TRUE(VerifyPayload(header, payload).ok());
  return payload;
}

constexpr uint64_t k64MiB = uint64_t{64} << 20;

TEST(NetWireFrame, RoundTrip) {
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  std::vector<uint8_t> frame =
      EncodeFrame(WireOp::kRangeQuery, /*response=*/false, 42, payload);
  ASSERT_EQ(frame.size(), kHeaderBytes + payload.size());

  FrameHeader header;
  ASSERT_TRUE(DecodeHeader(frame.data(), &header).ok());
  EXPECT_EQ(header.version, kWireVersion);
  EXPECT_EQ(header.op, WireOp::kRangeQuery);
  EXPECT_FALSE(header.response);
  EXPECT_EQ(header.request_id, 42u);
  EXPECT_EQ(header.payload_len, payload.size());
  EXPECT_TRUE(VerifyPayload(header, payload).ok());
}

TEST(NetWireFrame, ResponseFlagRoundTrip) {
  std::vector<uint8_t> frame =
      EncodeFrame(WireOp::kPing, /*response=*/true, 7, {});
  FrameHeader header;
  ASSERT_TRUE(DecodeHeader(frame.data(), &header).ok());
  EXPECT_TRUE(header.response);
  EXPECT_EQ(header.op, WireOp::kPing);
  EXPECT_EQ(header.payload_len, 0u);
}

TEST(NetWireFrame, CorruptHeaderCrcRejected) {
  std::vector<uint8_t> frame = EncodeFrame(WireOp::kPing, false, 1, {});
  frame[8] ^= 0xFF;  // flip a request_id byte, leave the CRC stale
  FrameHeader header;
  EXPECT_TRUE(DecodeHeader(frame.data(), &header).IsCorruption());
}

TEST(NetWireFrame, BadMagicRejected) {
  std::vector<uint8_t> frame = EncodeFrame(WireOp::kPing, false, 1, {});
  PutU32At(&frame, 0, 0xDEADBEEF);
  ResealHeaderCrc(&frame);
  FrameHeader header;
  EXPECT_TRUE(DecodeHeader(frame.data(), &header).IsCorruption());
}

TEST(NetWireFrame, NewerVersionYieldsUnimplemented) {
  std::vector<uint8_t> frame = EncodeFrame(WireOp::kPing, false, 1, {});
  frame[4] = static_cast<uint8_t>(kWireVersion + 1);
  ResealHeaderCrc(&frame);
  FrameHeader header;
  EXPECT_TRUE(DecodeHeader(frame.data(), &header).IsUnimplemented());
}

TEST(NetWireFrame, UnknownOpRejected) {
  std::vector<uint8_t> frame = EncodeFrame(WireOp::kPing, false, 1, {});
  frame[6] = 0x7F;  // not a WireOp
  frame[7] = 0x00;
  ResealHeaderCrc(&frame);
  FrameHeader header;
  EXPECT_TRUE(DecodeHeader(frame.data(), &header).IsCorruption());
}

TEST(NetWireFrame, OversizedPayloadLengthRejected) {
  std::vector<uint8_t> frame = EncodeFrame(WireOp::kPing, false, 1, {});
  PutU32At(&frame, 16, static_cast<uint32_t>(kMaxPayloadBytes) + 1);
  ResealHeaderCrc(&frame);
  FrameHeader header;
  EXPECT_TRUE(DecodeHeader(frame.data(), &header).IsCorruption());
}

TEST(NetWireFrame, CorruptPayloadCaughtByCrc) {
  std::vector<uint8_t> payload = {9, 8, 7};
  std::vector<uint8_t> frame =
      EncodeFrame(WireOp::kStats, false, 3, payload);
  FrameHeader header;
  ASSERT_TRUE(DecodeHeader(frame.data(), &header).ok());
  payload[1] ^= 0x01;
  EXPECT_TRUE(VerifyPayload(header, payload).IsCorruption());
}

TEST(NetWireFrame, OpNamesAreStable) {
  EXPECT_EQ(WireOpName(WireOp::kRangeQuery), "range_query");
  EXPECT_EQ(WireOpName(WireOp::kRetile), "retile");
  EXPECT_EQ(WireOpName(WireOp::kHello), "hello");
  EXPECT_EQ(WireOpName(WireOp::kCompact), "compact");
  EXPECT_EQ(WireOpName(WireOp::kFilterQuery), "filter_query");
  EXPECT_EQ(WireOpName(static_cast<WireOp>(99)), "unknown");
  EXPECT_TRUE(WireOpValid(1));
  EXPECT_TRUE(WireOpValid(7));
  EXPECT_TRUE(WireOpValid(8));
  EXPECT_TRUE(WireOpValid(9));
  EXPECT_TRUE(WireOpValid(10));
  EXPECT_FALSE(WireOpValid(0));
  EXPECT_FALSE(WireOpValid(11));
}

// --------------------------------------------------------------------------
// Request payload serde.

TEST(NetWireRequests, RangeQueryRoundTrip) {
  RangeQueryRequest req;
  req.name = "temperature";
  req.region = MInterval({{0, 99}, {-5, 63}});
  RangeQueryRequest out;
  ASSERT_TRUE(DecodeRangeQueryRequest(EncodeRangeQueryRequest(req), &out).ok());
  EXPECT_EQ(out.name, "temperature");
  EXPECT_EQ(out.region, req.region);
}

TEST(NetWireRequests, AggregateRoundTrip) {
  AggregateRequest req;
  req.name = "a";
  req.region = MInterval({{1, 2}});
  req.op = 3;
  AggregateRequest out;
  ASSERT_TRUE(DecodeAggregateRequest(EncodeAggregateRequest(req), &out).ok());
  EXPECT_EQ(out.name, "a");
  EXPECT_EQ(out.region, req.region);
  EXPECT_EQ(out.op, 3);
}

TEST(NetWireRequests, InsertTilesRoundTrip) {
  InsertTilesRequest req;
  req.name = "obj";
  req.create_if_missing = true;
  req.definition_domain = MInterval({{0, 255}, {0, 255}});
  req.cell_type_id = static_cast<uint8_t>(CellTypeId::kUInt8);
  WireTile tile;
  tile.domain = MInterval({{0, 1}, {0, 1}});
  tile.cells = {10, 20, 30, 40};
  req.tiles.push_back(tile);
  InsertTilesRequest out;
  ASSERT_TRUE(
      DecodeInsertTilesRequest(EncodeInsertTilesRequest(req), &out).ok());
  EXPECT_TRUE(out.create_if_missing);
  EXPECT_EQ(out.definition_domain, req.definition_domain);
  ASSERT_EQ(out.tiles.size(), 1u);
  EXPECT_EQ(out.tiles[0].domain, tile.domain);
  EXPECT_EQ(out.tiles[0].cells, tile.cells);
}

TEST(NetWireRequests, HostileTileCountRejectedBeforeAllocation) {
  // A CRC-valid frame claiming ~4 billion tiles in a tiny payload must be
  // rejected by the length check, not by attempting a ~300 GB reserve.
  ByteWriter w;
  w.Str("obj");
  w.U8(0);  // create_if_missing = false
  w.U32(0xFFFFFFFFu);
  InsertTilesRequest out;
  EXPECT_TRUE(DecodeInsertTilesRequest(w.Take(), &out).IsCorruption());
}

TEST(NetWireRequests, HostileTileLengthRejectedBeforeAllocation) {
  // One tile claiming 64 MiB of cells in a ~40-byte payload: the length is
  // bounded by the bytes present, not only by the protocol maximum.
  ByteWriter w;
  w.Str("obj");
  w.U8(0);  // create_if_missing = false
  w.U32(1);
  WriteInterval(&w, MInterval({{0, 9}}));
  w.U64(k64MiB);
  const std::vector<uint8_t> payload = VerifiedPayload(
      EncodeFrame(WireOp::kInsertTiles, /*response=*/false, 1, w.Take()));
  InsertTilesRequest out;
  EXPECT_TRUE(DecodeInsertTilesRequest(payload, &out).IsCorruption());
  EXPECT_TRUE(out.tiles.empty());
}

TEST(NetWireResponses, HostileResultLengthRejectedBeforeAllocation) {
  // A range or filter reply claiming 64 MiB of cells and carrying none.
  ByteWriter w;
  w.U8(static_cast<uint8_t>(StatusCode::kOk));
  WriteInterval(&w, MInterval({{0, (int64_t{1} << 26) - 1}}));
  w.U8(static_cast<uint8_t>(CellTypeId::kUInt8));
  w.U64(k64MiB);
  const std::vector<uint8_t> bytes = w.Take();
  Status server;
  RangeQueryResponse range;
  EXPECT_TRUE(DecodeRangeQueryResponse(
                  VerifiedPayload(EncodeFrame(WireOp::kRangeQuery,
                                              /*response=*/true, 2, bytes)),
                  &server, &range)
                  .IsCorruption());
  EXPECT_EQ(range.cells.capacity(), 0u);
  FilterQueryResponse filter;
  EXPECT_TRUE(DecodeFilterQueryResponse(
                  VerifiedPayload(EncodeFrame(WireOp::kFilterQuery,
                                              /*response=*/true, 3, bytes)),
                  &server, &filter)
                  .IsCorruption());
  EXPECT_EQ(filter.cells.capacity(), 0u);
  QueryResultView view;
  EXPECT_TRUE(DecodeQueryResultView(bytes, &server, &view).IsCorruption());
}

TEST(NetWireResponses, QueryResultViewPointsIntoThePayload) {
  RangeQueryResponse resp;
  resp.domain = MInterval({{0, 1}, {0, 2}});
  resp.cell_type_id = static_cast<uint8_t>(CellTypeId::kUInt8);
  resp.cells = {1, 2, 3, 4, 5, 6};
  const std::vector<uint8_t> payload = EncodeRangeQueryResponse(resp);
  Status server;
  QueryResultView view;
  ASSERT_TRUE(DecodeQueryResultView(payload, &server, &view).ok());
  ASSERT_TRUE(server.ok());
  EXPECT_EQ(view.domain, resp.domain);
  EXPECT_EQ(view.cell_type_id, resp.cell_type_id);
  // Borrowed, not copied: the cells are the payload's last bytes.
  EXPECT_EQ(view.cells.data() + view.cells.size(),
            payload.data() + payload.size());
  EXPECT_TRUE(std::equal(view.cells.begin(), view.cells.end(),
                         resp.cells.begin(), resp.cells.end()));

  // Cells that do not fill the domain exactly are not a usable result.
  resp.cells.pop_back();
  EXPECT_TRUE(DecodeQueryResultView(EncodeRangeQueryResponse(resp), &server,
                                    &view)
                  .IsCorruption());
}

TEST(NetWireResponses, SplitQueryReplyFramesLikeTheJoinedOne) {
  // The server sends a query reply as a small prefix and the cells held
  // apart; the frame on the wire must be byte-identical to the joined one.
  RangeQueryResponse resp;
  resp.domain = MInterval({{-3, 40}, {2, 9}});
  resp.cell_type_id = static_cast<uint8_t>(CellTypeId::kUInt16);
  resp.cells.resize(resp.domain.CellCountOrDie() * 2);
  for (size_t i = 0; i < resp.cells.size(); ++i) {
    resp.cells[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  const std::vector<uint8_t> joined = EncodeRangeQueryResponse(resp);
  std::vector<uint8_t> cells = resp.cells;
  const uint8_t* cells_data = cells.data();
  const SplitPayload split =
      EncodeQueryResultSplit(resp.domain, resp.cell_type_id, std::move(cells));
  EXPECT_EQ(split.body.data(), cells_data);  // moved, not copied
  std::vector<uint8_t> rejoined = split.prefix;
  rejoined.insert(rejoined.end(), split.body.begin(), split.body.end());
  EXPECT_EQ(rejoined, joined);

  uint8_t one[kHeaderBytes];
  uint8_t two[kHeaderBytes];
  EncodeFrameHeader(WireOp::kFilterQuery, /*response=*/true, 77, joined, one);
  EncodeFrameHeader(WireOp::kFilterQuery, /*response=*/true, 77, split.prefix,
                    split.body, two);
  EXPECT_EQ(std::memcmp(one, two, kHeaderBytes), 0);
}

TEST(NetWireRequests, TruncatedPayloadIsCorruption) {
  OpenMDDRequest req;
  req.name = "some-object-name";
  std::vector<uint8_t> payload = EncodeOpenMDDRequest(req);
  payload.resize(payload.size() / 2);
  OpenMDDRequest out;
  EXPECT_TRUE(DecodeOpenMDDRequest(payload, &out).IsCorruption());
}

TEST(NetWireRequests, TrailingGarbageIsCorruption) {
  StatsRequest req;
  std::vector<uint8_t> payload = EncodeStatsRequest(req);
  payload.push_back(0xAB);
  StatsRequest out;
  EXPECT_TRUE(DecodeStatsRequest(payload, &out).IsCorruption());
}

// --------------------------------------------------------------------------
// Response payload serde.

TEST(NetWireResponses, OkResponseRoundTrip) {
  RangeQueryResponse resp;
  resp.domain = MInterval({{0, 1}, {0, 2}});
  resp.cell_type_id = static_cast<uint8_t>(CellTypeId::kUInt8);
  resp.cells = {1, 2, 3, 4, 5, 6};
  Status server;
  RangeQueryResponse out;
  ASSERT_TRUE(DecodeRangeQueryResponse(EncodeRangeQueryResponse(resp),
                                       &server, &out)
                  .ok());
  ASSERT_TRUE(server.ok());
  EXPECT_EQ(out.domain, resp.domain);
  EXPECT_EQ(out.cells, resp.cells);
}

TEST(NetWireResponses, ErrorResponseCarriesStatus) {
  const Status error = Status::Unavailable("overloaded: no slots");
  Status server;
  RangeQueryResponse out;
  ASSERT_TRUE(
      DecodeRangeQueryResponse(EncodeErrorResponse(error), &server, &out)
          .ok());
  EXPECT_TRUE(server.IsUnavailable());
  EXPECT_EQ(server.message(), "overloaded: no slots");
}

TEST(NetWireResponses, DeadlineExceededSurvivesTheWire) {
  Status server;
  ASSERT_TRUE(DecodePingResponse(
                  EncodeErrorResponse(Status::DeadlineExceeded("too slow")),
                  &server)
                  .ok());
  EXPECT_TRUE(server.IsDeadlineExceeded());
}

TEST(NetWireResponses, UnknownStatusCodeRejected) {
  std::vector<uint8_t> payload = {250};  // not a StatusCode
  Status server;
  EXPECT_TRUE(DecodePingResponse(payload, &server).IsCorruption());
}

// --------------------------------------------------------------------------
// v2 negotiation (kHello) and the version window.

TEST(NetWireFrame, NegotiatedVersionStampsTheHeader) {
  // A client that negotiated down to v1 stamps v1 on every later frame;
  // both versions in the window decode cleanly.
  for (uint16_t version = kMinWireVersion; version <= kWireVersion;
       ++version) {
    std::vector<uint8_t> frame =
        EncodeFrame(WireOp::kPing, /*response=*/false, 7, {}, version);
    FrameHeader header;
    ASSERT_TRUE(DecodeHeader(frame.data(), &header).ok());
    EXPECT_EQ(header.version, version);
  }
}

TEST(NetWireFrame, VersionBelowWindowYieldsUnimplemented) {
  std::vector<uint8_t> frame =
      EncodeFrame(WireOp::kPing, /*response=*/false, 7, {});
  frame[4] = 0;  // version u16 lives at offset 4
  frame[5] = 0;
  ResealHeaderCrc(&frame);
  FrameHeader header;
  EXPECT_TRUE(DecodeHeader(frame.data(), &header).IsUnimplemented());
}

TEST(NetWireRequests, HelloRoundTrip) {
  HelloRequest req;
  req.max_version = kWireVersion;
  req.expected_shard_id = 7;
  HelloRequest out;
  ASSERT_TRUE(DecodeHelloRequest(EncodeHelloRequest(req), &out).ok());
  EXPECT_EQ(out.max_version, kWireVersion);
  EXPECT_EQ(out.expected_shard_id, 7u);

  // The default asks for any shard.
  ASSERT_TRUE(
      DecodeHelloRequest(EncodeHelloRequest(HelloRequest{}), &out).ok());
  EXPECT_EQ(out.expected_shard_id, kAnyShard);

  std::vector<uint8_t> truncated = EncodeHelloRequest(req);
  truncated.pop_back();
  EXPECT_TRUE(DecodeHelloRequest(truncated, &out).IsCorruption());
}

TEST(NetWireResponses, HelloResponseRoundTrip) {
  HelloResponse resp;
  resp.version = kWireVersion;
  resp.shard_id = 3;
  resp.shard_count = 8;
  Status server;
  HelloResponse out;
  ASSERT_TRUE(
      DecodeHelloResponse(EncodeHelloResponse(resp), &server, &out).ok());
  ASSERT_TRUE(server.ok());
  EXPECT_EQ(out.version, kWireVersion);
  EXPECT_EQ(out.shard_id, 3u);
  EXPECT_EQ(out.shard_count, 8u);

  // A v1 server pinned below kHello answers with a clean error response.
  ASSERT_TRUE(DecodeHelloResponse(
                  EncodeErrorResponse(Status::Unimplemented("no hello")),
                  &server, &out)
                  .ok());
  EXPECT_TRUE(server.IsUnimplemented());
}

TEST(NetWireResponses, AggregateValueBitExact) {
  AggregateResponse resp;
  resp.value = -0.1 + 3e300;
  Status server;
  AggregateResponse out;
  ASSERT_TRUE(DecodeAggregateResponse(EncodeAggregateResponse(resp), &server,
                                      &out)
                  .ok());
  EXPECT_EQ(out.value, resp.value);
}

}  // namespace
}  // namespace net
}  // namespace tilestore
