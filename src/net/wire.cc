#include "net/wire.h"

#include <cstring>

#include "common/checksum.h"

namespace tilestore {
namespace net {

namespace {

// Little-endian u16/u32/u64 into a raw header buffer.
void PutU16(uint8_t* p, uint16_t v) { std::memcpy(p, &v, 2); }
void PutU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }
void PutU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, 8); }
uint16_t GetU16(const uint8_t* p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

Status CorruptPayload(const std::string& what) {
  return Status::Corruption("wire payload: " + what);
}

}  // namespace

std::string_view WireOpName(WireOp op) {
  switch (op) {
    case WireOp::kPing:
      return "ping";
    case WireOp::kOpenMDD:
      return "open_mdd";
    case WireOp::kRangeQuery:
      return "range_query";
    case WireOp::kAggregate:
      return "aggregate";
    case WireOp::kInsertTiles:
      return "insert_tiles";
    case WireOp::kStats:
      return "stats";
    case WireOp::kRetile:
      return "retile";
    case WireOp::kHello:
      return "hello";
    case WireOp::kCompact:
      return "compact";
    case WireOp::kFilterQuery:
      return "filter_query";
  }
  return "unknown";
}

bool WireOpValid(uint16_t raw) {
  return raw >= static_cast<uint16_t>(WireOp::kPing) &&
         raw <= static_cast<uint16_t>(WireOp::kFilterQuery);
}

void EncodeFrameHeader(WireOp op, bool response, uint64_t request_id,
                       std::span<const uint8_t> payload, uint8_t* out,
                       uint16_t version) {
  EncodeFrameHeader(op, response, request_id, payload, {}, out, version);
}

void EncodeFrameHeader(WireOp op, bool response, uint64_t request_id,
                       std::span<const uint8_t> prefix,
                       std::span<const uint8_t> body, uint8_t* out,
                       uint16_t version) {
  PutU32(out, kWireMagic);
  PutU16(out + 4, version);
  const uint16_t op_raw =
      static_cast<uint16_t>(op) | (response ? kResponseFlag : 0);
  PutU16(out + 6, op_raw);
  PutU64(out + 8, request_id);
  PutU32(out + 16, static_cast<uint32_t>(prefix.size() + body.size()));
  PutU32(out + 20, Crc32c(body.data(), body.size(),
                          Crc32c(prefix.data(), prefix.size())));
  PutU32(out + 24, Crc32c(out, 24));
}

Status DecodeHeader(const uint8_t* buf, FrameHeader* out) {
  if (GetU32(buf + 24) != Crc32c(buf, 24)) {
    return Status::Corruption("wire header CRC mismatch");
  }
  if (GetU32(buf) != kWireMagic) {
    return Status::Corruption("bad wire magic");
  }
  const uint16_t version = GetU16(buf + 4);
  if (version < kMinWireVersion || version > kWireVersion) {
    return Status::Unimplemented("unsupported wire version " +
                                 std::to_string(version) + " (speaking " +
                                 std::to_string(kWireVersion) + ")");
  }
  const uint16_t op_raw = GetU16(buf + 6);
  const uint16_t op_code = op_raw & static_cast<uint16_t>(~kResponseFlag);
  if (!WireOpValid(op_code)) {
    return Status::Corruption("unknown wire op " + std::to_string(op_code));
  }
  const uint32_t payload_len = GetU32(buf + 16);
  if (payload_len > kMaxPayloadBytes) {
    return Status::Corruption("wire payload length " +
                              std::to_string(payload_len) +
                              " exceeds the protocol bound");
  }
  out->version = version;
  out->op = static_cast<WireOp>(op_code);
  out->response = (op_raw & kResponseFlag) != 0;
  out->request_id = GetU64(buf + 8);
  out->payload_len = payload_len;
  out->payload_crc = GetU32(buf + 20);
  return Status::OK();
}

Status VerifyPayload(const FrameHeader& header,
                     std::span<const uint8_t> payload) {
  if (payload.size() != header.payload_len) {
    return Status::Corruption("wire payload length mismatch");
  }
  if (Crc32c(payload.data(), payload.size()) != header.payload_crc) {
    return Status::Corruption("wire payload CRC mismatch");
  }
  return Status::OK();
}

// --------------------------------------------------------------------------
// Requests.

std::vector<uint8_t> EncodeOpenMDDRequest(const OpenMDDRequest& req) {
  ByteWriter w;
  w.Str(req.name);
  return w.Take();
}

Status DecodeOpenMDDRequest(const std::vector<uint8_t>& payload,
                            OpenMDDRequest* out) {
  ByteReader r(payload);
  Status st = r.Str(&out->name);
  if (!st.ok()) return st;
  if (!r.AtEnd()) return CorruptPayload("trailing bytes in open_mdd");
  return Status::OK();
}

std::vector<uint8_t> EncodeRangeQueryRequest(const RangeQueryRequest& req) {
  ByteWriter w;
  w.Str(req.name);
  WriteInterval(&w, req.region);
  return w.Take();
}

Status DecodeRangeQueryRequest(const std::vector<uint8_t>& payload,
                               RangeQueryRequest* out) {
  ByteReader r(payload);
  Status st = r.Str(&out->name);
  if (!st.ok()) return st;
  st = ReadInterval(&r, &out->region);
  if (!st.ok()) return CorruptPayload(st.message());
  if (!r.AtEnd()) return CorruptPayload("trailing bytes in range_query");
  return Status::OK();
}

std::vector<uint8_t> EncodeAggregateRequest(const AggregateRequest& req) {
  ByteWriter w;
  w.Str(req.name);
  WriteInterval(&w, req.region);
  w.U8(req.op);
  return w.Take();
}

Status DecodeAggregateRequest(const std::vector<uint8_t>& payload,
                              AggregateRequest* out) {
  ByteReader r(payload);
  Status st = r.Str(&out->name);
  if (!st.ok()) return st;
  st = ReadInterval(&r, &out->region);
  if (!st.ok()) return CorruptPayload(st.message());
  st = r.U8(&out->op);
  if (!st.ok()) return st;
  if (!r.AtEnd()) return CorruptPayload("trailing bytes in aggregate");
  return Status::OK();
}

std::vector<uint8_t> EncodeInsertTilesRequest(const InsertTilesRequest& req) {
  ByteWriter w;
  w.Str(req.name);
  w.U8(req.create_if_missing ? 1 : 0);
  if (req.create_if_missing) {
    WriteInterval(&w, req.definition_domain);
    w.U8(req.cell_type_id);
  }
  w.U32(static_cast<uint32_t>(req.tiles.size()));
  for (const WireTile& tile : req.tiles) {
    WriteInterval(&w, tile.domain);
    w.U64(tile.cells.size());
    w.Bytes(tile.cells.data(), tile.cells.size());
  }
  return w.Take();
}

Status DecodeInsertTilesRequest(const std::vector<uint8_t>& payload,
                                InsertTilesRequest* out) {
  ByteReader r(payload);
  Status st = r.Str(&out->name);
  if (!st.ok()) return st;
  uint8_t create = 0;
  st = r.U8(&create);
  if (!st.ok()) return st;
  out->create_if_missing = create != 0;
  if (out->create_if_missing) {
    st = ReadInterval(&r, &out->definition_domain);
    if (!st.ok()) return CorruptPayload(st.message());
    st = r.U8(&out->cell_type_id);
    if (!st.ok()) return st;
  }
  uint32_t count = 0;
  st = r.U32(&count);
  if (!st.ok()) return st;
  // The count is attacker-controlled: bound it against the bytes actually
  // present before reserving, or a single CRC-valid frame could request a
  // multi-hundred-GB allocation. Each encoded tile occupies at least
  // 1 (dim) + 16 (one bound pair) + 8 (cell length) payload bytes.
  constexpr size_t kMinWireTileBytes = 1 + 16 + 8;
  if (count > r.remaining() / kMinWireTileBytes) {
    return CorruptPayload("tile count exceeds payload size");
  }
  out->tiles.clear();
  out->tiles.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    WireTile tile;
    st = ReadInterval(&r, &tile.domain);
    if (!st.ok()) return CorruptPayload(st.message());
    uint64_t n = 0;
    st = r.U64(&n);
    if (!st.ok()) return st;
    // Bounded like the count: a CRC-valid frame claiming a huge tile
    // must fail before the cell buffer is allocated, not after.
    if (n > r.remaining()) return CorruptPayload("tile exceeds payload size");
    tile.cells.resize(static_cast<size_t>(n));
    st = r.Bytes(tile.cells.data(), tile.cells.size());
    if (!st.ok()) return st;
    out->tiles.push_back(std::move(tile));
  }
  if (!r.AtEnd()) return CorruptPayload("trailing bytes in insert_tiles");
  return Status::OK();
}

std::vector<uint8_t> EncodeStatsRequest(const StatsRequest& req) {
  ByteWriter w;
  w.U8(req.format);
  return w.Take();
}

Status DecodeStatsRequest(const std::vector<uint8_t>& payload,
                          StatsRequest* out) {
  ByteReader r(payload);
  Status st = r.U8(&out->format);
  if (!st.ok()) return st;
  if (!r.AtEnd()) return CorruptPayload("trailing bytes in stats");
  return Status::OK();
}

std::vector<uint8_t> EncodeRetileRequest(const RetileRequest& req) {
  ByteWriter w;
  w.Str(req.name);
  return w.Take();
}

Status DecodeRetileRequest(const std::vector<uint8_t>& payload,
                           RetileRequest* out) {
  ByteReader r(payload);
  Status st = r.Str(&out->name);
  if (!st.ok()) return st;
  if (!r.AtEnd()) return CorruptPayload("trailing bytes in retile");
  return Status::OK();
}

std::vector<uint8_t> EncodeHelloRequest(const HelloRequest& req) {
  ByteWriter w;
  w.U16(req.max_version);
  w.U32(req.expected_shard_id);
  return w.Take();
}

Status DecodeHelloRequest(const std::vector<uint8_t>& payload,
                          HelloRequest* out) {
  ByteReader r(payload);
  Status st = r.U16(&out->max_version);
  if (!st.ok()) return st;
  st = r.U32(&out->expected_shard_id);
  if (!st.ok()) return st;
  if (!r.AtEnd()) return CorruptPayload("trailing bytes in hello");
  return Status::OK();
}

std::vector<uint8_t> EncodeCompactRequest(const CompactRequest& req) {
  ByteWriter w;
  w.Str(req.name);
  return w.Take();
}

Status DecodeCompactRequest(const std::vector<uint8_t>& payload,
                            CompactRequest* out) {
  ByteReader r(payload);
  Status st = r.Str(&out->name);
  if (!st.ok()) return st;
  if (!r.AtEnd()) return CorruptPayload("trailing bytes in compact");
  return Status::OK();
}

std::vector<uint8_t> EncodeFilterQueryRequest(const FilterQueryRequest& req) {
  ByteWriter w;
  w.Str(req.name);
  WriteInterval(&w, req.region);
  w.U8(req.pred_kind);
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(req.pred_a));
  std::memcpy(&bits, &req.pred_a, sizeof(bits));
  w.U64(bits);
  std::memcpy(&bits, &req.pred_b, sizeof(bits));
  w.U64(bits);
  return w.Take();
}

Status DecodeFilterQueryRequest(const std::vector<uint8_t>& payload,
                                FilterQueryRequest* out) {
  ByteReader r(payload);
  Status st = r.Str(&out->name);
  if (!st.ok()) return st;
  st = ReadInterval(&r, &out->region);
  if (!st.ok()) return CorruptPayload(st.message());
  st = r.U8(&out->pred_kind);
  if (!st.ok()) return st;
  uint64_t bits = 0;
  st = r.U64(&bits);
  if (!st.ok()) return st;
  std::memcpy(&out->pred_a, &bits, sizeof(out->pred_a));
  st = r.U64(&bits);
  if (!st.ok()) return st;
  std::memcpy(&out->pred_b, &bits, sizeof(out->pred_b));
  if (!r.AtEnd()) return CorruptPayload("trailing bytes in filter_query");
  return Status::OK();
}

// --------------------------------------------------------------------------
// Responses.

namespace {

ByteWriter OkWriter() {
  ByteWriter w;
  w.U8(static_cast<uint8_t>(StatusCode::kOk));
  return w;
}

// Range and filter query responses: status byte, domain, cell type, then
// the length-prefixed cells. This is everything before the cells.
std::vector<uint8_t> QueryResultPrefix(const MInterval& domain,
                                       uint8_t cell_type_id,
                                       uint64_t cell_bytes) {
  ByteWriter w = OkWriter();
  WriteInterval(&w, domain);
  w.U8(cell_type_id);
  w.U64(cell_bytes);
  return w.Take();
}

// The owning decoders: the view plus the one copy of the cells.
template <class Response>
Status DecodeQueryResultInto(std::span<const uint8_t> payload,
                             Status* server_status, Response* out) {
  QueryResultView view;
  Status st = DecodeQueryResultView(payload, server_status, &view);
  if (!st.ok() || !server_status->ok()) return st;
  out->domain = std::move(view.domain);
  out->cell_type_id = view.cell_type_id;
  out->cells.assign(view.cells.begin(), view.cells.end());
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> EncodeErrorResponse(const Status& status) {
  ByteWriter w;
  w.U8(static_cast<uint8_t>(status.code()));
  w.Str(status.message());
  return w.Take();
}

std::vector<uint8_t> EncodePingResponse() { return OkWriter().Take(); }

std::vector<uint8_t> EncodeOpenMDDResponse(const OpenMDDResponse& resp) {
  ByteWriter w = OkWriter();
  WriteInterval(&w, resp.definition_domain);
  w.U8(resp.has_current_domain ? 1 : 0);
  if (resp.has_current_domain) WriteInterval(&w, resp.current_domain);
  w.U8(resp.cell_type_id);
  w.U64(resp.tile_count);
  return w.Take();
}

SplitPayload EncodeQueryResultSplit(const MInterval& domain,
                                    uint8_t cell_type_id,
                                    std::vector<uint8_t> cells) {
  SplitPayload out;
  out.prefix = QueryResultPrefix(domain, cell_type_id, cells.size());
  out.body = std::move(cells);
  return out;
}

std::vector<uint8_t> EncodeRangeQueryResponse(const RangeQueryResponse& resp) {
  std::vector<uint8_t> out =
      QueryResultPrefix(resp.domain, resp.cell_type_id, resp.cells.size());
  out.insert(out.end(), resp.cells.begin(), resp.cells.end());
  return out;
}

std::vector<uint8_t> EncodeAggregateResponse(const AggregateResponse& resp) {
  ByteWriter w = OkWriter();
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(resp.value));
  std::memcpy(&bits, &resp.value, sizeof(bits));
  w.U64(bits);
  return w.Take();
}

std::vector<uint8_t> EncodeInsertTilesResponse(
    const InsertTilesResponse& resp) {
  ByteWriter w = OkWriter();
  w.U64(resp.tiles_inserted);
  return w.Take();
}

std::vector<uint8_t> EncodeStatsResponse(const StatsResponse& resp) {
  ByteWriter w = OkWriter();
  w.Str(resp.text);
  return w.Take();
}

std::vector<uint8_t> EncodeRetileResponse(const RetileResponse& resp) {
  ByteWriter w = OkWriter();
  w.U8(resp.migrated ? 1 : 0);
  w.Str(resp.kind);
  w.Str(resp.rationale);
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(resp.predicted_gain));
  std::memcpy(&bits, &resp.predicted_gain, sizeof(bits));
  w.U64(bits);
  w.U64(resp.steps);
  w.U64(resp.tiles_before);
  w.U64(resp.tiles_after);
  w.U64(resp.cells_moved);
  return w.Take();
}

Status DecodeResponseStatus(ByteReader* r, Status* server_status) {
  uint8_t code = 0;
  Status st = r->U8(&code);
  if (!st.ok()) return st;
  if (code > static_cast<uint8_t>(StatusCode::kPartialResult)) {
    return CorruptPayload("unknown response status code");
  }
  if (code == static_cast<uint8_t>(StatusCode::kOk)) {
    *server_status = Status::OK();
    return Status::OK();
  }
  std::string message;
  st = r->Str(&message);
  if (!st.ok()) return st;
  *server_status = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

Status DecodePingResponse(std::span<const uint8_t> payload,
                          Status* server_status) {
  ByteReader r(payload);
  return DecodeResponseStatus(&r, server_status);
}

Status DecodeOpenMDDResponse(std::span<const uint8_t> payload,
                             Status* server_status, OpenMDDResponse* out) {
  ByteReader r(payload);
  Status st = DecodeResponseStatus(&r, server_status);
  if (!st.ok() || !server_status->ok()) return st;
  st = ReadInterval(&r, &out->definition_domain);
  if (!st.ok()) return CorruptPayload(st.message());
  uint8_t has_current = 0;
  st = r.U8(&has_current);
  if (!st.ok()) return st;
  out->has_current_domain = has_current != 0;
  if (out->has_current_domain) {
    st = ReadInterval(&r, &out->current_domain);
    if (!st.ok()) return CorruptPayload(st.message());
  }
  st = r.U8(&out->cell_type_id);
  if (!st.ok()) return st;
  return r.U64(&out->tile_count);
}

Status DecodeRangeQueryResponse(std::span<const uint8_t> payload,
                                Status* server_status,
                                RangeQueryResponse* out) {
  return DecodeQueryResultInto(payload, server_status, out);
}

Status DecodeAggregateResponse(std::span<const uint8_t> payload,
                               Status* server_status, AggregateResponse* out) {
  ByteReader r(payload);
  Status st = DecodeResponseStatus(&r, server_status);
  if (!st.ok() || !server_status->ok()) return st;
  uint64_t bits = 0;
  st = r.U64(&bits);
  if (!st.ok()) return st;
  std::memcpy(&out->value, &bits, sizeof(out->value));
  return Status::OK();
}

Status DecodeInsertTilesResponse(std::span<const uint8_t> payload,
                                 Status* server_status,
                                 InsertTilesResponse* out) {
  ByteReader r(payload);
  Status st = DecodeResponseStatus(&r, server_status);
  if (!st.ok() || !server_status->ok()) return st;
  return r.U64(&out->tiles_inserted);
}

Status DecodeStatsResponse(std::span<const uint8_t> payload,
                           Status* server_status, StatsResponse* out) {
  ByteReader r(payload);
  Status st = DecodeResponseStatus(&r, server_status);
  if (!st.ok() || !server_status->ok()) return st;
  return r.Str(&out->text);
}

std::vector<uint8_t> EncodeHelloResponse(const HelloResponse& resp) {
  ByteWriter w = OkWriter();
  w.U16(resp.version);
  w.U32(resp.shard_id);
  w.U32(resp.shard_count);
  return w.Take();
}

Status DecodeHelloResponse(std::span<const uint8_t> payload,
                           Status* server_status, HelloResponse* out) {
  ByteReader r(payload);
  Status st = DecodeResponseStatus(&r, server_status);
  if (!st.ok() || !server_status->ok()) return st;
  st = r.U16(&out->version);
  if (!st.ok()) return st;
  st = r.U32(&out->shard_id);
  if (!st.ok()) return st;
  st = r.U32(&out->shard_count);
  if (!st.ok()) return st;
  if (out->version < kMinWireVersion || out->version > kWireVersion) {
    return CorruptPayload("negotiated version outside supported range");
  }
  if (out->shard_count == 0 || out->shard_id >= out->shard_count) {
    return CorruptPayload("inconsistent shard identity in hello");
  }
  return Status::OK();
}

Status DecodeRetileResponse(std::span<const uint8_t> payload,
                            Status* server_status, RetileResponse* out) {
  ByteReader r(payload);
  Status st = DecodeResponseStatus(&r, server_status);
  if (!st.ok() || !server_status->ok()) return st;
  uint8_t migrated = 0;
  st = r.U8(&migrated);
  if (!st.ok()) return st;
  out->migrated = migrated != 0;
  st = r.Str(&out->kind);
  if (!st.ok()) return st;
  st = r.Str(&out->rationale);
  if (!st.ok()) return st;
  uint64_t bits = 0;
  st = r.U64(&bits);
  if (!st.ok()) return st;
  std::memcpy(&out->predicted_gain, &bits, sizeof(out->predicted_gain));
  st = r.U64(&out->steps);
  if (!st.ok()) return st;
  st = r.U64(&out->tiles_before);
  if (!st.ok()) return st;
  st = r.U64(&out->tiles_after);
  if (!st.ok()) return st;
  return r.U64(&out->cells_moved);
}

Status DecodeFilterQueryResponse(std::span<const uint8_t> payload,
                                 Status* server_status,
                                 FilterQueryResponse* out) {
  return DecodeQueryResultInto(payload, server_status, out);
}

Status DecodeQueryResultView(std::span<const uint8_t> payload,
                             Status* server_status, QueryResultView* out) {
  ByteReader r(payload);
  Status st = DecodeResponseStatus(&r, server_status);
  if (!st.ok() || !server_status->ok()) return st;
  st = ReadInterval(&r, &out->domain);
  if (!st.ok()) return CorruptPayload(st.message());
  st = r.U8(&out->cell_type_id);
  if (!st.ok()) return st;
  if (out->cell_type_id > static_cast<uint8_t>(CellTypeId::kRGB8)) {
    return CorruptPayload("unknown cell type id in query result");
  }
  uint64_t n = 0;
  st = r.U64(&n);
  if (!st.ok()) return st;
  st = r.View(static_cast<size_t>(n), &out->cells);
  if (!st.ok()) return st;
  // The domain is attacker-controlled; CellCount (not the OrDie variant)
  // keeps a hostile extent from aborting the reader.
  const size_t cell_size =
      CellType::Of(static_cast<CellTypeId>(out->cell_type_id)).size();
  Result<uint64_t> cells = out->domain.IsFixed()
                               ? out->domain.CellCount()
                               : Status::Corruption("unbounded domain");
  if (!cells.ok() || *cells > kMaxPayloadBytes ||
      n != *cells * cell_size) {
    return CorruptPayload("query result size does not match its domain");
  }
  return Status::OK();
}

std::vector<uint8_t> EncodeCompactResponse(const CompactResponse& resp) {
  ByteWriter w = OkWriter();
  w.U8(resp.compacted ? 1 : 0);
  w.Str(resp.rationale);
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(resp.frag_before));
  std::memcpy(&bits, &resp.frag_before, sizeof(bits));
  w.U64(bits);
  std::memcpy(&bits, &resp.frag_after, sizeof(bits));
  w.U64(bits);
  w.U64(resp.steps);
  w.U64(resp.tiles_moved);
  w.U64(resp.bytes_moved);
  return w.Take();
}

Status DecodeCompactResponse(std::span<const uint8_t> payload,
                             Status* server_status, CompactResponse* out) {
  ByteReader r(payload);
  Status st = DecodeResponseStatus(&r, server_status);
  if (!st.ok() || !server_status->ok()) return st;
  uint8_t compacted = 0;
  st = r.U8(&compacted);
  if (!st.ok()) return st;
  out->compacted = compacted != 0;
  st = r.Str(&out->rationale);
  if (!st.ok()) return st;
  uint64_t bits = 0;
  st = r.U64(&bits);
  if (!st.ok()) return st;
  std::memcpy(&out->frag_before, &bits, sizeof(out->frag_before));
  st = r.U64(&bits);
  if (!st.ok()) return st;
  std::memcpy(&out->frag_after, &bits, sizeof(out->frag_after));
  st = r.U64(&out->steps);
  if (!st.ok()) return st;
  st = r.U64(&out->tiles_moved);
  if (!st.ok()) return st;
  return r.U64(&out->bytes_moved);
}

}  // namespace net
}  // namespace tilestore
