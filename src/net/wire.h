#ifndef TILESTORE_NET_WIRE_H_
#define TILESTORE_NET_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/serde.h"
#include "common/status.h"
#include "core/cell_type.h"
#include "core/minterval.h"

namespace tilestore {
namespace net {

/// \brief The tilestore binary wire protocol (DESIGN.md §9).
///
/// Every message is one *frame*: a fixed 28-byte header followed by a
/// variable payload. All integers are little-endian, matching the on-disk
/// format.
///
///   magic       u32   'TSN1'
///   version     u16   kWireVersion; a server rejects newer majors
///   op          u16   WireOp, high bit (kResponseFlag) set on responses
///   request_id  u64   echoed verbatim in the response
///   payload_len u32   <= kMaxPayloadBytes
///   payload_crc u32   CRC-32C of the payload bytes
///   header_crc  u32   CRC-32C of the preceding 24 header bytes
///
/// The header CRC lets a receiver reject a corrupt length before
/// allocating; the payload CRC protects the body. Response payloads always
/// begin with one status byte (`StatusCode`); non-OK responses follow with
/// a length-prefixed message string and nothing else, OK responses with
/// the op-specific body documented per encoder below.
constexpr uint32_t kWireMagic = 0x54534E31;  // "TSN1"
/// Highest protocol version this build speaks. v2 adds the kHello
/// negotiation op carrying shard identity (shard_id/shard_count), used by
/// the cluster routing client to detect misconfigured shard maps. The
/// frame layout is unchanged between v1 and v2, so every peer accepts
/// frames stamped with any version in [kMinWireVersion, kWireVersion] and
/// the negotiated version only gates which ops may be sent.
constexpr uint16_t kWireVersion = 2;
constexpr uint16_t kMinWireVersion = 1;
constexpr uint16_t kResponseFlag = 0x8000;
constexpr size_t kHeaderBytes = 28;
/// Upper bound on one frame's payload: large enough for any sane tile
/// batch or query result, small enough that a corrupt or hostile length
/// cannot balloon server memory.
constexpr size_t kMaxPayloadBytes = 64u << 20;

enum class WireOp : uint16_t {
  kPing = 1,
  kOpenMDD = 2,
  kRangeQuery = 3,
  kAggregate = 4,
  kInsertTiles = 5,
  kStats = 6,
  kRetile = 7,
  /// v2: version/shard negotiation. A v1 server treats the op as unknown
  /// and drops the connection, which clients take as "speak v1".
  kHello = 8,
  /// Admin op: synchronously measure (and, past the server's tile floor,
  /// compact) one object's physical layout. See `Compactor::CompactNow`.
  kCompact = 9,
  /// v2: range query with a cell-value predicate pushed down to the
  /// server, which prunes whole tiles via per-tile summaries. A v1 server
  /// treats the op as unknown and drops the connection; v2-negotiated
  /// clients refuse to send it to a v1 peer.
  kFilterQuery = 10,
};

/// Static-literal op name ("range_query", ...), usable as a trace span
/// name. Unknown ops map to "unknown".
std::string_view WireOpName(WireOp op);
bool WireOpValid(uint16_t raw);

/// Decoded frame header.
struct FrameHeader {
  uint16_t version = 0;
  WireOp op = WireOp::kPing;
  bool response = false;
  uint64_t request_id = 0;
  uint32_t payload_len = 0;
  uint32_t payload_crc = 0;
};

/// Writes the `kHeaderBytes` header of the frame carrying `payload` into
/// `out`, both CRCs included. The payload is not copied: senders pass the
/// header and the payload to one vectored `Socket::SendSome`/`SendAll`.
/// `version` stamps the header; clients that negotiated down pass the
/// agreed value.
void EncodeFrameHeader(WireOp op, bool response, uint64_t request_id,
                       std::span<const uint8_t> payload, uint8_t* out,
                       uint16_t version = kWireVersion);

/// The header of a frame whose payload is `prefix` followed by `body`,
/// held apart: the payload CRC chains through `Crc32c`'s seed, so the
/// header is byte-identical to that of the joined payload.
void EncodeFrameHeader(WireOp op, bool response, uint64_t request_id,
                       std::span<const uint8_t> prefix,
                       std::span<const uint8_t> body, uint8_t* out,
                       uint16_t version = kWireVersion);

/// Validates magic/version/CRC/length of the `kHeaderBytes` at `buf`.
/// Versions outside [kMinWireVersion, kWireVersion] yield Unimplemented;
/// everything else Corruption.
Status DecodeHeader(const uint8_t* buf, FrameHeader* out);

/// Checks the payload bytes against the header's CRC.
Status VerifyPayload(const FrameHeader& header,
                     std::span<const uint8_t> payload);

// --------------------------------------------------------------------------
// Request payloads.

struct OpenMDDRequest {
  std::string name;
};

struct RangeQueryRequest {
  std::string name;
  MInterval region;  // '*' bounds allowed, resolved server-side
};

struct AggregateRequest {
  std::string name;
  MInterval region;
  uint8_t op = 0;  // AggregateOp
};

/// One tile travelling over the wire, always as raw (uncompressed) cell
/// bytes; the server re-applies the object's selective compression when
/// storing.
struct WireTile {
  MInterval domain;
  std::vector<uint8_t> cells;
};

struct InsertTilesRequest {
  std::string name;
  /// When set and the object does not exist, it is created first with
  /// `definition_domain` / `cell_type_id`.
  bool create_if_missing = false;
  MInterval definition_domain;
  uint8_t cell_type_id = 0;
  std::vector<WireTile> tiles;
};

struct StatsRequest {
  /// 0 = metrics JSON, 1 = Prometheus text, 2 = drained trace JSON.
  uint8_t format = 0;
};

/// Admin op: synchronously evaluate (and, if the predicted gain clears the
/// server's improvement bar, migrate) one object's tiling against its
/// recorded workload. See `Retiler::RetileNow`.
struct RetileRequest {
  std::string name;
};

/// Sentinel for HelloRequest::expected_shard_id: the client does not care
/// which shard answers.
constexpr uint32_t kAnyShard = 0xFFFFFFFFu;

/// v2 negotiation, sent as the first request on a connection by clients
/// that opt in. The server answers with the highest mutually supported
/// version and its shard identity; a routing client that expected a
/// specific shard id can detect a misrouted/miswired endpoint from the
/// response instead of silently querying the wrong store.
struct HelloRequest {
  /// Highest version the client speaks.
  uint16_t max_version = kWireVersion;
  /// Shard id the client believes this endpoint serves, or kAnyShard.
  uint32_t expected_shard_id = kAnyShard;
};

/// Admin op: synchronously measure one object's fragmentation and rewrite
/// its tile blobs into SFC-contiguous page runs. See
/// `Compactor::CompactNow`.
struct CompactRequest {
  std::string name;
};

/// v2: a range query filtered by a cell-value predicate (DESIGN.md §15).
/// The predicate travels as its kind (`ValuePredicate::Kind`) plus both
/// operand doubles; `pred_b` is meaningful only for the between kind but
/// always occupies its slot so the encoding is fixed-width.
struct FilterQueryRequest {
  std::string name;
  MInterval region;  // '*' bounds allowed, resolved server-side
  uint8_t pred_kind = 0;  // ValuePredicate::Kind
  double pred_a = 0;
  double pred_b = 0;
};

std::vector<uint8_t> EncodeOpenMDDRequest(const OpenMDDRequest& req);
Status DecodeOpenMDDRequest(const std::vector<uint8_t>& payload,
                            OpenMDDRequest* out);
std::vector<uint8_t> EncodeRangeQueryRequest(const RangeQueryRequest& req);
Status DecodeRangeQueryRequest(const std::vector<uint8_t>& payload,
                               RangeQueryRequest* out);
std::vector<uint8_t> EncodeAggregateRequest(const AggregateRequest& req);
Status DecodeAggregateRequest(const std::vector<uint8_t>& payload,
                              AggregateRequest* out);
std::vector<uint8_t> EncodeInsertTilesRequest(const InsertTilesRequest& req);
Status DecodeInsertTilesRequest(const std::vector<uint8_t>& payload,
                                InsertTilesRequest* out);
std::vector<uint8_t> EncodeStatsRequest(const StatsRequest& req);
Status DecodeStatsRequest(const std::vector<uint8_t>& payload,
                          StatsRequest* out);
std::vector<uint8_t> EncodeRetileRequest(const RetileRequest& req);
Status DecodeRetileRequest(const std::vector<uint8_t>& payload,
                           RetileRequest* out);
std::vector<uint8_t> EncodeHelloRequest(const HelloRequest& req);
Status DecodeHelloRequest(const std::vector<uint8_t>& payload,
                          HelloRequest* out);
std::vector<uint8_t> EncodeCompactRequest(const CompactRequest& req);
Status DecodeCompactRequest(const std::vector<uint8_t>& payload,
                            CompactRequest* out);
std::vector<uint8_t> EncodeFilterQueryRequest(const FilterQueryRequest& req);
Status DecodeFilterQueryRequest(const std::vector<uint8_t>& payload,
                                FilterQueryRequest* out);

// --------------------------------------------------------------------------
// Response payloads. Every encoder emits the leading status byte; decoders
// return the decoded server-side Status (possibly non-OK) through
// `*server_status` and fill the body only when it is OK.

/// Error response usable for any op: status byte + message.
std::vector<uint8_t> EncodeErrorResponse(const Status& status);

struct OpenMDDResponse {
  MInterval definition_domain;
  bool has_current_domain = false;
  MInterval current_domain;
  uint8_t cell_type_id = 0;
  uint64_t tile_count = 0;
};

struct RangeQueryResponse {
  MInterval domain;
  uint8_t cell_type_id = 0;
  std::vector<uint8_t> cells;
};

struct AggregateResponse {
  double value = 0;
};

struct InsertTilesResponse {
  uint64_t tiles_inserted = 0;
};

struct StatsResponse {
  std::string text;
};

/// Answer to kHello: the version both sides will speak from now on plus
/// the server's shard identity (shard_id/shard_count are 0/1 for a
/// standalone, unsharded server).
struct HelloResponse {
  uint16_t version = kWireVersion;
  uint32_t shard_id = 0;
  uint32_t shard_count = 1;
};

/// Mirrors `RetileReport`.
struct RetileResponse {
  bool migrated = false;
  std::string kind;
  std::string rationale;
  double predicted_gain = 0;
  uint64_t steps = 0;
  uint64_t tiles_before = 0;
  uint64_t tiles_after = 0;
  uint64_t cells_moved = 0;
};

/// Result of a filter query: the resolved region with every non-matching
/// cell set to the object's default value. Identical shape to
/// `RangeQueryResponse`, kept distinct so the two ops can evolve
/// independently.
struct FilterQueryResponse {
  MInterval domain;
  uint8_t cell_type_id = 0;
  std::vector<uint8_t> cells;
};

/// A range or filter query result read in place: both ops answer with the
/// same encoding, and `cells` points into the payload it was decoded from,
/// so it is valid only while that payload lives. The router stitches
/// fanned-out replies from these views without copying the cells out
/// first.
struct QueryResultView {
  MInterval domain;
  uint8_t cell_type_id = 0;
  std::span<const uint8_t> cells;
};

/// Mirrors `layout::CompactReport`.
struct CompactResponse {
  bool compacted = false;
  std::string rationale;
  double frag_before = 0;
  double frag_after = 0;
  uint64_t steps = 0;
  uint64_t tiles_moved = 0;
  uint64_t bytes_moved = 0;
};

/// A response payload held as two buffers: the frame's payload is
/// `prefix` followed by `body`. A query reply keeps its composed cells as
/// `body`, so the server frames and sends them without copying them into
/// one encoded payload. Any other payload converts implicitly, as the
/// `body` behind an empty prefix.
struct SplitPayload {
  SplitPayload() = default;
  SplitPayload(std::vector<uint8_t> payload)  // NOLINT: implicit by design
      : body(std::move(payload)) {}
  std::vector<uint8_t> prefix;
  std::vector<uint8_t> body;
};

/// The range and filter query reply, split: `prefix` is the status byte,
/// domain, cell type and cell-byte length; `body` takes `cells` by move.
/// Joined, it is `EncodeRangeQueryResponse` of the same fields.
SplitPayload EncodeQueryResultSplit(const MInterval& domain,
                                    uint8_t cell_type_id,
                                    std::vector<uint8_t> cells);

std::vector<uint8_t> EncodePingResponse();
std::vector<uint8_t> EncodeOpenMDDResponse(const OpenMDDResponse& resp);
std::vector<uint8_t> EncodeRangeQueryResponse(const RangeQueryResponse& resp);
std::vector<uint8_t> EncodeAggregateResponse(const AggregateResponse& resp);
std::vector<uint8_t> EncodeInsertTilesResponse(
    const InsertTilesResponse& resp);
std::vector<uint8_t> EncodeStatsResponse(const StatsResponse& resp);
std::vector<uint8_t> EncodeRetileResponse(const RetileResponse& resp);
std::vector<uint8_t> EncodeHelloResponse(const HelloResponse& resp);
std::vector<uint8_t> EncodeCompactResponse(const CompactResponse& resp);

Status DecodeResponseStatus(ByteReader* r, Status* server_status);
Status DecodePingResponse(std::span<const uint8_t> payload,
                          Status* server_status);
Status DecodeOpenMDDResponse(std::span<const uint8_t> payload,
                             Status* server_status, OpenMDDResponse* out);
Status DecodeRangeQueryResponse(std::span<const uint8_t> payload,
                                Status* server_status,
                                RangeQueryResponse* out);
Status DecodeAggregateResponse(std::span<const uint8_t> payload,
                               Status* server_status, AggregateResponse* out);
Status DecodeInsertTilesResponse(std::span<const uint8_t> payload,
                                 Status* server_status,
                                 InsertTilesResponse* out);
Status DecodeStatsResponse(std::span<const uint8_t> payload,
                           Status* server_status, StatsResponse* out);
Status DecodeRetileResponse(std::span<const uint8_t> payload,
                            Status* server_status, RetileResponse* out);
Status DecodeHelloResponse(std::span<const uint8_t> payload,
                           Status* server_status, HelloResponse* out);
Status DecodeCompactResponse(std::span<const uint8_t> payload,
                             Status* server_status, CompactResponse* out);
Status DecodeFilterQueryResponse(std::span<const uint8_t> payload,
                                 Status* server_status,
                                 FilterQueryResponse* out);
/// Decodes a range or filter query response without copying its cells.
/// Beyond the layout it checks what makes the view usable as an array: a
/// known cell type, a fixed domain, and exactly the domain's cell bytes.
/// The two owning decoders above are this plus one copy of the cells.
Status DecodeQueryResultView(std::span<const uint8_t> payload,
                             Status* server_status, QueryResultView* out);

}  // namespace net
}  // namespace tilestore

#endif  // TILESTORE_NET_WIRE_H_
