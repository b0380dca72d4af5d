#include "net/client_api.h"

namespace tilestore {
namespace net {

namespace {

template <class... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;

Status CellTypeInRange(uint8_t id) {
  if (id > static_cast<uint8_t>(CellTypeId::kRGB8)) {
    return Status::Corruption("unknown cell type id in response");
  }
  return Status::OK();
}

}  // namespace

WireOp RequestOp(const Request& request) {
  return std::visit(
      Overloaded{
          [](const PingRequest&) { return WireOp::kPing; },
          [](const OpenMDDRequest&) { return WireOp::kOpenMDD; },
          [](const RangeQueryRequest&) { return WireOp::kRangeQuery; },
          [](const AggregateRequest&) { return WireOp::kAggregate; },
          [](const InsertTilesRequest&) { return WireOp::kInsertTiles; },
          [](const StatsRequest&) { return WireOp::kStats; },
          [](const RetileRequest&) { return WireOp::kRetile; },
          [](const HelloRequest&) { return WireOp::kHello; },
          [](const CompactRequest&) { return WireOp::kCompact; },
          [](const FilterQueryRequest&) { return WireOp::kFilterQuery; },
      },
      request);
}

std::vector<uint8_t> EncodeRequest(const Request& request) {
  return std::visit(
      Overloaded{
          [](const PingRequest&) { return std::vector<uint8_t>(); },
          [](const OpenMDDRequest& r) { return EncodeOpenMDDRequest(r); },
          [](const RangeQueryRequest& r) {
            return EncodeRangeQueryRequest(r);
          },
          [](const AggregateRequest& r) { return EncodeAggregateRequest(r); },
          [](const InsertTilesRequest& r) {
            return EncodeInsertTilesRequest(r);
          },
          [](const StatsRequest& r) { return EncodeStatsRequest(r); },
          [](const RetileRequest& r) { return EncodeRetileRequest(r); },
          [](const HelloRequest& r) { return EncodeHelloRequest(r); },
          [](const CompactRequest& r) { return EncodeCompactRequest(r); },
          [](const FilterQueryRequest& r) {
            return EncodeFilterQueryRequest(r);
          },
      },
      request);
}

Status DecodeResponsePayload(WireOp op, std::span<const uint8_t> payload,
                             Status* server_status, Response* out) {
  Status st;
  switch (op) {
    case WireOp::kPing: {
      st = DecodePingResponse(payload, server_status);
      if (st.ok() && server_status->ok()) *out = PingResponse{};
      return st;
    }
    case WireOp::kOpenMDD: {
      OpenMDDResponse resp;
      st = DecodeOpenMDDResponse(payload, server_status, &resp);
      if (!st.ok() || !server_status->ok()) return st;
      st = CellTypeInRange(resp.cell_type_id);
      if (!st.ok()) return st;
      *out = std::move(resp);
      return Status::OK();
    }
    case WireOp::kRangeQuery: {
      RangeQueryResponse resp;
      st = DecodeRangeQueryResponse(payload, server_status, &resp);
      if (st.ok() && server_status->ok()) *out = std::move(resp);
      return st;
    }
    case WireOp::kAggregate: {
      AggregateResponse resp;
      st = DecodeAggregateResponse(payload, server_status, &resp);
      if (!st.ok() || !server_status->ok()) return st;
      *out = resp;
      return Status::OK();
    }
    case WireOp::kInsertTiles: {
      InsertTilesResponse resp;
      st = DecodeInsertTilesResponse(payload, server_status, &resp);
      if (!st.ok() || !server_status->ok()) return st;
      *out = resp;
      return Status::OK();
    }
    case WireOp::kStats: {
      StatsResponse resp;
      st = DecodeStatsResponse(payload, server_status, &resp);
      if (!st.ok() || !server_status->ok()) return st;
      *out = std::move(resp);
      return Status::OK();
    }
    case WireOp::kRetile: {
      RetileResponse resp;
      st = DecodeRetileResponse(payload, server_status, &resp);
      if (!st.ok() || !server_status->ok()) return st;
      *out = std::move(resp);
      return Status::OK();
    }
    case WireOp::kHello: {
      HelloResponse resp;
      st = DecodeHelloResponse(payload, server_status, &resp);
      if (!st.ok() || !server_status->ok()) return st;
      *out = resp;
      return Status::OK();
    }
    case WireOp::kCompact: {
      CompactResponse resp;
      st = DecodeCompactResponse(payload, server_status, &resp);
      if (!st.ok() || !server_status->ok()) return st;
      *out = std::move(resp);
      return Status::OK();
    }
    case WireOp::kFilterQuery: {
      FilterQueryResponse resp;
      st = DecodeFilterQueryResponse(payload, server_status, &resp);
      if (st.ok() && server_status->ok()) *out = std::move(resp);
      return st;
    }
  }
  return Status::Internal("unreachable wire op in decode");
}

Status ClientInterface::Ping() { return Call(PingRequest{}).status(); }

Result<RemoteMDDInfo> ClientInterface::OpenMDD(const std::string& name) {
  OpenMDDRequest req;
  req.name = name;
  Result<Response> result = Call(std::move(req));
  if (!result.ok()) return result.status();
  auto& resp = std::get<OpenMDDResponse>(*result);
  RemoteMDDInfo info;
  info.definition_domain = std::move(resp.definition_domain);
  if (resp.has_current_domain) {
    info.current_domain = std::move(resp.current_domain);
  }
  info.cell_type = CellType::Of(static_cast<CellTypeId>(resp.cell_type_id));
  info.tile_count = resp.tile_count;
  return info;
}

Result<Array> ClientInterface::RangeQuery(const std::string& name,
                                          const MInterval& region) {
  RangeQueryRequest req;
  req.name = name;
  req.region = region;
  Result<Response> result = Call(std::move(req));
  if (!result.ok()) return result.status();
  auto& resp = std::get<RangeQueryResponse>(*result);
  Result<Array> array = Array::FromBuffer(
      resp.domain, CellType::Of(static_cast<CellTypeId>(resp.cell_type_id)),
      std::move(resp.cells));
  if (!array.ok()) {
    return Status::Corruption("malformed query result: " +
                              array.status().message());
  }
  return array;
}

Result<double> ClientInterface::Aggregate(const std::string& name,
                                          const MInterval& region,
                                          AggregateOp op) {
  AggregateRequest req;
  req.name = name;
  req.region = region;
  req.op = static_cast<uint8_t>(op);
  Result<Response> result = Call(std::move(req));
  if (!result.ok()) return result.status();
  return std::get<AggregateResponse>(*result).value;
}

Status ClientInterface::InsertTiles(const std::string& name,
                                    std::span<const Array> tiles,
                                    bool create_if_missing,
                                    const MInterval& definition_domain,
                                    CellType cell_type) {
  InsertTilesRequest req;
  req.name = name;
  req.create_if_missing = create_if_missing;
  if (create_if_missing) {
    req.definition_domain = definition_domain;
    req.cell_type_id = static_cast<uint8_t>(cell_type.id());
  }
  req.tiles.reserve(tiles.size());
  for (const Array& tile : tiles) {
    WireTile wire_tile;
    wire_tile.domain = tile.domain();
    wire_tile.cells.assign(tile.data(), tile.data() + tile.size_bytes());
    req.tiles.push_back(std::move(wire_tile));
  }
  return Call(std::move(req)).status();
}

Result<std::string> ClientInterface::Stats(uint8_t format) {
  StatsRequest req;
  req.format = format;
  Result<Response> result = Call(req);
  if (!result.ok()) return result.status();
  return std::move(std::get<StatsResponse>(*result).text);
}

Result<RetileResponse> ClientInterface::Retile(const std::string& name) {
  RetileRequest req;
  req.name = name;
  Result<Response> result = Call(std::move(req));
  if (!result.ok()) return result.status();
  return std::move(std::get<RetileResponse>(*result));
}

Result<CompactResponse> ClientInterface::Compact(const std::string& name) {
  CompactRequest req;
  req.name = name;
  Result<Response> result = Call(std::move(req));
  if (!result.ok()) return result.status();
  return std::move(std::get<CompactResponse>(*result));
}

Result<Array> ClientInterface::FilterQuery(const std::string& name,
                                           const MInterval& region,
                                           const ValuePredicate& predicate) {
  Status st = predicate.Validate();
  if (!st.ok()) return st;
  FilterQueryRequest req;
  req.name = name;
  req.region = region;
  req.pred_kind = static_cast<uint8_t>(predicate.kind);
  req.pred_a = predicate.a;
  req.pred_b = predicate.b;
  Result<Response> result = Call(std::move(req));
  if (!result.ok()) return result.status();
  auto& resp = std::get<FilterQueryResponse>(*result);
  Result<Array> array = Array::FromBuffer(
      resp.domain, CellType::Of(static_cast<CellTypeId>(resp.cell_type_id)),
      std::move(resp.cells));
  if (!array.ok()) {
    return Status::Corruption("malformed query result: " +
                              array.status().message());
  }
  return array;
}

}  // namespace net
}  // namespace tilestore
