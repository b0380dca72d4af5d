#include "cluster/routing_client.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <sstream>
#include <type_traits>
#include <utility>

#include "core/linearizer.h"

namespace tilestore {
namespace cluster {

namespace {

template <class... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string DescribeShard(const ShardMap& map, uint32_t shard) {
  const ShardEndpoint& ep = map.endpoint(shard);
  return "shard " + std::to_string(shard) + " (" + ep.host + ":" +
         std::to_string(ep.port) + ")";
}

}  // namespace

RoutingTileClient::RoutingTileClient(ShardMap map,
                                     RoutingClientOptions options)
    : map_(std::move(map)), options_(std::move(options)) {
  // The handshake is what makes routing safe: it pins the wire version and
  // lets every connection verify it reached the shard the map claims.
  options_.shard_options.handshake = true;
  shards_.resize(map_.shard_count());
  // The calling thread runs one leg of every fan-out, so the pool holds
  // the other concurrent legs only.
  const size_t legs = std::min<size_t>(
      std::max<size_t>(options_.max_fanout, 1), map_.shard_count());
  if (legs > 1) pool_ = std::make_unique<ThreadPool>(legs - 1);
  requests_ = registry_.counter("cluster.requests");
  fanout_calls_ = registry_.counter("cluster.fanout_calls");
  partial_results_ = registry_.counter("cluster.partial_results");
  shard_errors_ = registry_.counter("cluster.shard_errors");
  reconnects_ = registry_.counter("cluster.reconnects");
  fanout_width_ = registry_.size_histogram("cluster.fanout_width");
  shard_latency_ms_.resize(map_.shard_count());
  for (uint32_t i = 0; i < map_.shard_count(); ++i) {
    shard_latency_ms_[i] = registry_.latency_histogram(
        "cluster.shard." + std::to_string(i) + ".latency_ms");
  }
}

Result<std::unique_ptr<RoutingTileClient>> RoutingTileClient::Connect(
    ShardMap map, RoutingClientOptions options) {
  if (map.shard_count() == 0) {
    return Status::InvalidArgument("shard map is empty");
  }
  std::unique_ptr<RoutingTileClient> client(
      new RoutingTileClient(std::move(map), std::move(options)));
  size_t healthy = 0;
  Status last = Status::Unavailable("no shards in map");
  for (uint32_t shard = 0; shard < client->map_.shard_count(); ++shard) {
    Status st = client->ConnectShard(
        shard, client->options_.shard_options.connect_attempts);
    if (st.ok()) {
      ++healthy;
      continue;
    }
    // A clean identity rejection means the map is miswired — surfacing it
    // beats serving wrong answers from whatever store did answer.
    if (st.IsInvalidArgument()) {
      return Status::InvalidArgument(
          DescribeShard(client->map_, shard) + ": " + st.message());
    }
    last = st;
  }
  if (healthy == 0) {
    return Status::Unavailable("no shard of the cluster is reachable: " +
                               last.message());
  }
  return client;
}

Status RoutingTileClient::ConnectShard(uint32_t shard, int attempts) {
  net::TileClientOptions opts = options_.shard_options;
  opts.handshake = true;
  opts.connect_attempts = std::max(attempts, 1);
  opts.expected_shard_id =
      options_.verify_shard_ids ? shard : net::kAnyShard;
  const ShardEndpoint& ep = map_.endpoint(shard);
  Result<std::unique_ptr<net::TileClient>> conn =
      net::TileClient::Connect(ep.host, ep.port, opts);
  if (!conn.ok()) {
    shards_[shard].reset();
    return conn.status();
  }
  if (options_.verify_shard_ids &&
      (*conn)->shard_count() != map_.shard_count()) {
    shards_[shard].reset();
    return Status::InvalidArgument(
        "endpoint reports a " + std::to_string((*conn)->shard_count()) +
        "-shard cluster, map has " + std::to_string(map_.shard_count()));
  }
  shards_[shard] = std::move(conn).MoveValue();
  return Status::OK();
}

size_t RoutingTileClient::healthy_shards() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    if (shard != nullptr && shard->healthy()) ++n;
  }
  return n;
}

template <class Reply>
void RoutingTileClient::Scatter(std::vector<ShardCall<Reply>>* calls) {
  // One task per shard, not per sub-call: a TileClient connection is a
  // synchronous stream, so the sub-calls bound for one shard must run
  // sequentially on it — only cross-shard calls overlap.
  std::map<uint32_t, std::vector<size_t>> by_shard;
  for (size_t i = 0; i < calls->size(); ++i) {
    by_shard[(*calls)[i].shard].push_back(i);
  }
  fanout_calls_->Add(calls->size());
  fanout_width_->Observe(static_cast<double>(by_shard.size()));
  if (by_shard.empty()) return;
  auto run_shard = [this, calls](uint32_t shard,
                                 const std::vector<size_t>& indices) {
    for (size_t k = 0; k < indices.size(); ++k) {
      ShardCall<Reply>& call = (*calls)[indices[k]];
      call.result = CallShard<Reply>(shard, call.request);
      if constexpr (std::is_same_v<Reply, std::span<const uint8_t>>) {
        // A payload view lives until the connection's next call.
        if (k + 1 < indices.size() && call.result.ok()) {
          call.kept.assign(call.result->begin(), call.result->end());
          call.result = std::span<const uint8_t>(call.kept);
        }
      }
    }
  };
  // The calling thread runs the last shard's calls itself: a single-shard
  // request never touches the pool, and a fan-out hands it only the others.
  TaskGroup group(pool_.get());
  const auto last = std::prev(by_shard.end());
  for (auto it = by_shard.begin(); it != last; ++it) {
    group.Run([&run_shard, it] { run_shard(it->first, it->second); });
  }
  run_shard(last->first, last->second);
  group.Wait();
}

template <class Reply>
Result<Reply> RoutingTileClient::CallShard(uint32_t shard,
                                           const net::Request& request) {
  if (shards_[shard] == nullptr || !shards_[shard]->healthy()) {
    // Lazy reconnect, one attempt: a shard that is really down fails fast
    // instead of stretching every request by the full retry ladder.
    reconnects_->Add();
    Status st = ConnectShard(shard, /*attempts=*/1);
    if (!st.ok()) {
      shard_errors_->Add();
      return st;
    }
  }
  const double start = NowMs();
  Result<Reply> result = [&] {
    if constexpr (std::is_same_v<Reply, net::Response>) {
      return shards_[shard]->Call(request);
    } else {
      return shards_[shard]->CallForPayload(request);
    }
  }();
  shard_latency_ms_[shard]->Observe(NowMs() - start);
  if (!result.ok()) shard_errors_->Add();
  return result;
}

template <class Reply>
Status RoutingTileClient::CombineStatuses(
    const std::vector<ShardCall<Reply>>& calls, bool treat_notfound_as_ok) {
  size_t failed = 0;
  bool same_code = true;
  StatusCode code = StatusCode::kOk;
  std::ostringstream msg;
  for (const ShardCall<Reply>& call : calls) {
    if (call.result.ok()) continue;
    const Status& st = call.result.status();
    if (treat_notfound_as_ok && st.IsNotFound()) continue;
    if (failed == 0) {
      code = st.code();
    } else {
      msg << "; ";
      if (st.code() != code) same_code = false;
    }
    ++failed;
    msg << DescribeShard(map_, call.shard) << ": " << st.ToString();
  }
  if (failed == 0) return Status::OK();
  if (failed < calls.size()) {
    partial_results_->Add();
    return Status::PartialResult(msg.str());
  }
  // Every shard failed: a shared code (NotFound everywhere, timeouts
  // everywhere) is more actionable than the generic Unavailable.
  if (same_code) return Status(code, msg.str());
  return Status::Unavailable(msg.str());
}

Result<net::Response> RoutingTileClient::Call(const net::Request& request) {
  requests_->Add();
  return std::visit(
      Overloaded{
          [&](const net::PingRequest&) { return RoutePing(request); },
          [&](const net::OpenMDDRequest& r) { return RouteOpenMDD(r); },
          [&](const net::RangeQueryRequest& r) { return RouteRangeQuery(r); },
          [&](const net::AggregateRequest& r) { return RouteAggregate(r); },
          [&](const net::InsertTilesRequest& r) {
            return RouteInsertTiles(r);
          },
          [&](const net::StatsRequest& r) { return RouteStats(r); },
          [&](const net::RetileRequest& r) { return RouteRetile(r); },
          [&](const net::CompactRequest& r) { return RouteCompact(r); },
          [&](const net::FilterQueryRequest& r) {
            return RouteFilterQuery(r);
          },
          [&](const net::HelloRequest&) -> Result<net::Response> {
            return Status::Unimplemented(
                "hello is connection-scoped; the routing client negotiates "
                "it per shard at connect time");
          },
      },
      request);
}

Result<net::Response> RoutingTileClient::RoutePing(
    const net::Request& request) {
  std::vector<SubCall> calls(map_.shard_count());
  for (uint32_t shard = 0; shard < map_.shard_count(); ++shard) {
    calls[shard].shard = shard;
    calls[shard].request = request;
  }
  Scatter(&calls);
  Status st = CombineStatuses(calls);
  if (!st.ok()) return st;
  return net::Response{net::PingResponse{}};
}

Result<net::Response> RoutingTileClient::RouteOpenMDD(
    const net::OpenMDDRequest& request) {
  const std::vector<uint32_t> owners = map_.AllOwners(request.name);
  std::vector<SubCall> calls(owners.size());
  for (size_t i = 0; i < owners.size(); ++i) {
    calls[i].shard = owners[i];
    calls[i].request = request;
  }
  Scatter(&calls);
  // A slab owner without tiles yet legitimately answers NotFound; the
  // object exists cluster-wide as long as any owner knows it.
  Status st = CombineStatuses(calls, /*treat_notfound_as_ok=*/true);
  if (!st.ok()) return st;
  net::OpenMDDResponse combined;
  bool first = true;
  for (SubCall& call : calls) {
    if (!call.result.ok()) continue;  // tolerated NotFound
    const auto& resp = std::get<net::OpenMDDResponse>(*call.result);
    if (first) {
      combined = resp;
      first = false;
      continue;
    }
    if (resp.definition_domain.dim() != combined.definition_domain.dim() ||
        resp.cell_type_id != combined.cell_type_id) {
      return Status::Corruption("shards disagree on the shape of '" +
                                request.name + "'");
    }
    combined.tile_count += resp.tile_count;
    combined.definition_domain =
        combined.definition_domain.Hull(resp.definition_domain);
    if (resp.has_current_domain) {
      combined.current_domain =
          combined.has_current_domain
              ? combined.current_domain.Hull(resp.current_domain)
              : resp.current_domain;
      combined.has_current_domain = true;
    }
  }
  if (first) {
    return Status::NotFound("mdd '" + request.name +
                            "' not found on any owning shard");
  }
  return net::Response{std::move(combined)};
}

template <class QueryResponse, class MakeSubRequest>
Result<net::Response> RoutingTileClient::RouteQuery(
    const std::string& name, const MInterval& region,
    const MakeSubRequest& sub_request) {
  if (map_.FindSplit(name) != nullptr && !region.IsFixed()) {
    return Status::InvalidArgument(
        "queries on a range-split object need a fixed region ('*' bounds "
        "cannot be resolved across shards)");
  }
  Result<std::vector<ShardMap::Target>> targets =
      map_.QueryTargets(name, region);
  if (!targets.ok()) return targets.status();
  if (targets->size() == 1) {
    std::vector<SubCall> calls(1);
    calls[0].shard = (*targets)[0].shard;
    calls[0].request = sub_request(std::move((*targets)[0].region));
    Scatter(&calls);
    return std::move(calls[0].result);
  }
  // Fanned out: keep each shard's verified reply payload and stitch its
  // cells straight from it, so they are copied once, into the result.
  std::vector<PayloadCall> calls(targets->size());
  for (size_t i = 0; i < targets->size(); ++i) {
    calls[i].shard = (*targets)[i].shard;
    calls[i].request = sub_request(std::move((*targets)[i].region));
  }
  Scatter(&calls);
  Status st = CombineStatuses(calls);
  if (!st.ok()) return st;
  std::vector<net::QueryResultView> pieces(calls.size());
  for (size_t i = 0; i < calls.size(); ++i) {
    Status server;
    st = net::DecodeQueryResultView(*calls[i].result, &server, &pieces[i]);
    if (!st.ok()) {
      return Status::Corruption(DescribeShard(map_, calls[i].shard) + ": " +
                                st.message());
    }
    if (pieces[i].cell_type_id != pieces[0].cell_type_id) {
      return Status::Corruption("shards disagree on the cell type of '" +
                                name + "'");
    }
  }
  // Sub-regions partition the query region, and each shard fills its own
  // sub-region completely (a filter query with the object's default value
  // where cells do not match), so copying every piece into a
  // zero-initialised frame writes each cell exactly once and the stitched
  // result is byte-identical to a single-store query.
  const CellType cell_type =
      CellType::Of(static_cast<CellTypeId>(pieces[0].cell_type_id));
  Result<Array> stitched = Array::Create(region, cell_type);
  if (!stitched.ok()) return stitched.status();
  for (size_t i = 0; i < pieces.size(); ++i) {
    st = CopyRegion(pieces[i].domain, pieces[i].cells.data(), region,
                    stitched->mutable_data(), pieces[i].domain,
                    cell_type.size());
    if (!st.ok()) {
      return Status::Corruption(DescribeShard(map_, calls[i].shard) +
                                " answered outside its sub-region: " +
                                st.message());
    }
  }
  QueryResponse out;
  out.domain = region;
  out.cell_type_id = pieces[0].cell_type_id;
  out.cells = std::move(*stitched).TakeBuffer();
  return net::Response{std::move(out)};
}

Result<net::Response> RoutingTileClient::RouteRangeQuery(
    const net::RangeQueryRequest& request) {
  return RouteQuery<net::RangeQueryResponse>(
      request.name, request.region, [&](MInterval region) -> net::Request {
        return net::RangeQueryRequest{request.name, std::move(region)};
      });
}

Result<net::Response> RoutingTileClient::RouteFilterQuery(
    const net::FilterQueryRequest& request) {
  return RouteQuery<net::FilterQueryResponse>(
      request.name, request.region, [&](MInterval region) -> net::Request {
        net::FilterQueryRequest sub = request;
        sub.region = std::move(region);
        return sub;
      });
}

Result<net::Response> RoutingTileClient::RouteAggregate(
    const net::AggregateRequest& request) {
  if (map_.FindSplit(request.name) != nullptr && !request.region.IsFixed()) {
    return Status::InvalidArgument(
        "aggregates on a range-split object need a fixed region");
  }
  Result<std::vector<ShardMap::Target>> targets =
      map_.QueryTargets(request.name, request.region);
  if (!targets.ok()) return targets.status();
  const auto op = static_cast<AggregateOp>(request.op);
  // kAvg does not distribute over sub-regions; fan it out as per-shard
  // kSum and divide by the full region's cell count — the same operands
  // the single-store average uses.
  const bool rewrite_avg = targets->size() > 1 && op == AggregateOp::kAvg;
  std::vector<SubCall> calls(targets->size());
  for (size_t i = 0; i < targets->size(); ++i) {
    net::AggregateRequest sub = request;
    sub.region = std::move((*targets)[i].region);
    if (rewrite_avg) sub.op = static_cast<uint8_t>(AggregateOp::kSum);
    calls[i].shard = (*targets)[i].shard;
    calls[i].request = std::move(sub);
  }
  Scatter(&calls);
  if (calls.size() == 1) return std::move(calls[0].result);
  Status st = CombineStatuses(calls);
  if (!st.ok()) return st;
  double value = 0;
  bool first = true;
  for (const SubCall& call : calls) {
    const double v = std::get<net::AggregateResponse>(*call.result).value;
    switch (op) {
      case AggregateOp::kSum:
      case AggregateOp::kAvg:
      case AggregateOp::kCount:
        value += v;
        break;
      case AggregateOp::kMin:
        value = first ? v : std::min(value, v);
        break;
      case AggregateOp::kMax:
        value = first ? v : std::max(value, v);
        break;
    }
    first = false;
  }
  if (rewrite_avg) {
    Result<uint64_t> cells = request.region.CellCount();
    if (!cells.ok()) return cells.status();
    value /= static_cast<double>(*cells);
  }
  return net::Response{net::AggregateResponse{value}};
}

Result<net::Response> RoutingTileClient::RouteInsertTiles(
    const net::InsertTilesRequest& request) {
  const RegionSplit* split = map_.FindSplit(request.name);
  if (split == nullptr) {
    std::vector<SubCall> calls(1);
    calls[0].shard = map_.OwnerOf(request.name);
    calls[0].request = request;
    Scatter(&calls);
    return std::move(calls[0].result);
  }
  // Group tiles by owning slab before sending anything: a tile straddling
  // a cut rejects the whole batch with no shard mutated.
  std::map<uint32_t, net::InsertTilesRequest> per_shard;
  auto shard_request = [&](uint32_t shard) -> net::InsertTilesRequest& {
    auto [it, inserted] = per_shard.try_emplace(shard);
    if (inserted) {
      it->second.name = request.name;
      it->second.create_if_missing = request.create_if_missing;
      it->second.definition_domain = request.definition_domain;
      it->second.cell_type_id = request.cell_type_id;
    }
    return it->second;
  };
  if (request.create_if_missing) {
    // Broadcast the creation (possibly with no tiles) to every slab owner
    // so a later query on any slab finds the object, not NotFound.
    for (const uint32_t owner : map_.AllOwners(request.name)) {
      shard_request(owner);
    }
  }
  for (const net::WireTile& tile : request.tiles) {
    Result<uint32_t> owner = map_.TileOwner(request.name, tile.domain);
    if (!owner.ok()) return owner.status();
    shard_request(*owner).tiles.push_back(tile);
  }
  std::vector<SubCall> calls;
  calls.reserve(per_shard.size());
  for (auto& [shard, sub] : per_shard) {
    SubCall call;
    call.shard = shard;
    call.request = std::move(sub);
    calls.push_back(std::move(call));
  }
  Scatter(&calls);
  Status st = CombineStatuses(calls);
  if (!st.ok()) return st;
  net::InsertTilesResponse combined;
  for (const SubCall& call : calls) {
    combined.tiles_inserted +=
        std::get<net::InsertTilesResponse>(*call.result).tiles_inserted;
  }
  return net::Response{combined};
}

Result<net::Response> RoutingTileClient::RouteStats(
    const net::StatsRequest& request) {
  std::vector<SubCall> calls(map_.shard_count());
  for (uint32_t shard = 0; shard < map_.shard_count(); ++shard) {
    calls[shard].shard = shard;
    calls[shard].request = request;
  }
  Scatter(&calls);
  // Lenient by design: observability of the live shards should not go
  // dark because one shard is down — failed shards show up as null.
  size_t ok_count = 0;
  for (const SubCall& call : calls) ok_count += call.result.ok() ? 1 : 0;
  if (ok_count == 0) return CombineStatuses(calls);
  std::ostringstream out;
  if (request.format == 1) {
    out << "# cluster routing client\n"
        << registry_.Snapshot().ToPrometheusText();
    for (const SubCall& call : calls) {
      out << "# " << DescribeShard(map_, call.shard) << "\n";
      if (call.result.ok()) {
        out << std::get<net::StatsResponse>(*call.result).text;
      } else {
        out << "# unavailable: " << call.result.status().ToString() << "\n";
      }
    }
  } else {
    // Formats 0 and 2 are JSON; shard texts embed verbatim.
    out << "{";
    if (request.format == 0) {
      out << "\"cluster\":" << registry_.Snapshot().ToJson() << ",";
    }
    out << "\"shards\":[";
    for (size_t i = 0; i < calls.size(); ++i) {
      if (i) out << ",";
      if (calls[i].result.ok()) {
        out << std::get<net::StatsResponse>(*calls[i].result).text;
      } else {
        out << "null";
      }
    }
    out << "]}";
  }
  return net::Response{net::StatsResponse{out.str()}};
}

Result<net::Response> RoutingTileClient::RouteRetile(
    const net::RetileRequest& request) {
  const std::vector<uint32_t> owners = map_.AllOwners(request.name);
  std::vector<SubCall> calls(owners.size());
  for (size_t i = 0; i < owners.size(); ++i) {
    calls[i].shard = owners[i];
    calls[i].request = request;
  }
  Scatter(&calls);
  if (calls.size() == 1) return std::move(calls[0].result);
  Status st = CombineStatuses(calls);
  if (!st.ok()) return st;
  net::RetileResponse combined;
  for (const SubCall& call : calls) {
    const auto& resp = std::get<net::RetileResponse>(*call.result);
    if (resp.migrated && !combined.migrated) {
      combined.migrated = true;
      combined.kind = resp.kind;
      combined.rationale = resp.rationale;
    }
    combined.predicted_gain =
        std::max(combined.predicted_gain, resp.predicted_gain);
    combined.steps += resp.steps;
    combined.tiles_before += resp.tiles_before;
    combined.tiles_after += resp.tiles_after;
    combined.cells_moved += resp.cells_moved;
  }
  if (!combined.migrated && !calls.empty()) {
    const auto& firstr = std::get<net::RetileResponse>(*calls[0].result);
    combined.kind = firstr.kind;
    combined.rationale = firstr.rationale;
  }
  return net::Response{std::move(combined)};
}

Result<net::Response> RoutingTileClient::RouteCompact(
    const net::CompactRequest& request) {
  const std::vector<uint32_t> owners = map_.AllOwners(request.name);
  std::vector<SubCall> calls(owners.size());
  for (size_t i = 0; i < owners.size(); ++i) {
    calls[i].shard = owners[i];
    calls[i].request = request;
  }
  Scatter(&calls);
  if (calls.size() == 1) return std::move(calls[0].result);
  Status st = CombineStatuses(calls);
  if (!st.ok()) return st;
  // Each shard compacts its own slab; the combined report sums the work
  // and averages the fragmentation across owners.
  net::CompactResponse combined;
  double frag_before_sum = 0, frag_after_sum = 0;
  for (const SubCall& call : calls) {
    const auto& resp = std::get<net::CompactResponse>(*call.result);
    if (resp.compacted && !combined.compacted) {
      combined.compacted = true;
      combined.rationale = resp.rationale;
    }
    frag_before_sum += resp.frag_before;
    frag_after_sum += resp.frag_after;
    combined.steps += resp.steps;
    combined.tiles_moved += resp.tiles_moved;
    combined.bytes_moved += resp.bytes_moved;
  }
  if (!calls.empty()) {
    combined.frag_before = frag_before_sum / calls.size();
    combined.frag_after = frag_after_sum / calls.size();
    if (!combined.compacted) {
      combined.rationale =
          std::get<net::CompactResponse>(*calls[0].result).rationale;
    }
  }
  return net::Response{std::move(combined)};
}

}  // namespace cluster
}  // namespace tilestore
