#ifndef TILESTORE_NET_CLIENT_API_H_
#define TILESTORE_NET_CLIENT_API_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "core/aggregate.h"
#include "core/array.h"
#include "core/cell_type.h"
#include "core/minterval.h"
#include "core/predicate.h"
#include "net/wire.h"

namespace tilestore {
namespace net {

/// \brief The unified client surface (DESIGN.md §13).
///
/// Every wire op is one `Request` alternative in, one `Response`
/// alternative out, flowing through a single `Call` seam. `TileClient`
/// implements `Call` as one round trip on one connection;
/// `RoutingTileClient` implements it as a scatter-gather across shards.
/// The familiar per-op methods (`Ping`, `RangeQuery`, ...) survive as thin
/// typed wrappers implemented once on `ClientInterface`, so they behave
/// identically against a single server and against a cluster.

/// kPing carries no body; this empty struct is its `Request` alternative.
struct PingRequest {};
/// kPing's OK response carries no body either.
struct PingResponse {};

/// One alternative per wire op, in `WireOp` order.
using Request =
    std::variant<PingRequest, OpenMDDRequest, RangeQueryRequest,
                 AggregateRequest, InsertTilesRequest, StatsRequest,
                 RetileRequest, HelloRequest, CompactRequest,
                 FilterQueryRequest>;

using Response =
    std::variant<PingResponse, OpenMDDResponse, RangeQueryResponse,
                 AggregateResponse, InsertTilesResponse, StatsResponse,
                 RetileResponse, HelloResponse, CompactResponse,
                 FilterQueryResponse>;

/// The wire op a request alternative travels as.
WireOp RequestOp(const Request& request);

/// Serializes the request payload for its op.
std::vector<uint8_t> EncodeRequest(const Request& request);

/// Decodes a response payload for `op`. A non-OK return means the bytes
/// are malformed (protocol corruption — connection-poisoning territory);
/// `*server_status` receives the server's verdict from the leading status
/// byte, and `*out` holds the matching alternative only when both are OK.
/// Structural validation (cell-type range, cells-vs-domain size) happens
/// here or in the wire decoders it calls, so the typed wrappers are
/// infallible conversions.
Status DecodeResponsePayload(WireOp op, std::span<const uint8_t> payload,
                             Status* server_status, Response* out);

/// Remote object metadata, the response of `OpenMDD`.
struct RemoteMDDInfo {
  MInterval definition_domain;
  std::optional<MInterval> current_domain;
  CellType cell_type;
  uint64_t tile_count = 0;
};

/// \brief Abstract client: one `Call` core plus typed wrappers.
///
/// Implementations are not thread-safe; use one instance per thread.
class ClientInterface {
 public:
  virtual ~ClientInterface() = default;

  /// The single seam every op flows through. Transport, protocol and
  /// server-side failures all surface as the error status; the response
  /// alternative always matches the request's op.
  virtual Result<Response> Call(const Request& request) = 0;

  /// Liveness: false once the implementation's transport cannot serve any
  /// further call (a poisoned connection, every shard unreachable).
  virtual bool healthy() const { return true; }

  // Typed wrappers over `Call`, kept signature-compatible with the
  // pre-cluster per-op `TileClient` methods so existing callers keep
  // compiling. New ops should prefer `Call` directly.
  Status Ping();
  Result<RemoteMDDInfo> OpenMDD(const std::string& name);
  /// Executes a range query remotely; the returned array is byte-identical
  /// to in-process `RangeQueryExecutor::Execute` on the same data.
  Result<Array> RangeQuery(const std::string& name, const MInterval& region);
  Result<double> Aggregate(const std::string& name, const MInterval& region,
                           AggregateOp op);
  /// Inserts tiles (uncompressed cell buffers); with `create_if_missing`
  /// the object is created first with `definition_domain`/`cell_type`.
  Status InsertTiles(const std::string& name, std::span<const Array> tiles,
                     bool create_if_missing = false,
                     const MInterval& definition_domain = MInterval(),
                     CellType cell_type = CellType());
  /// Server-side obs snapshot. format 0 = metrics JSON, 1 = Prometheus
  /// text, 2 = drained trace JSON.
  Result<std::string> Stats(uint8_t format = 0);
  /// Admin: synchronously evaluate (and, when the predicted gain clears the
  /// server's bar, migrate) `name`'s tiling against its recorded workload.
  Result<RetileResponse> Retile(const std::string& name);
  /// Admin: measure `name`'s physical fragmentation and rewrite its tile
  /// blobs into SFC-contiguous page runs (`Compactor::CompactNow`).
  Result<CompactResponse> Compact(const std::string& name);
  /// Range query with a cell-value predicate pushed to the server
  /// (DESIGN.md §15): non-matching cells come back as the object's
  /// default value, byte-identical to in-process
  /// `RangeQueryExecutor::Execute` with the same predicate. Requires a
  /// v2-negotiated connection; `TileClient` refuses against a v1 server.
  Result<Array> FilterQuery(const std::string& name, const MInterval& region,
                            const ValuePredicate& predicate);
};

}  // namespace net
}  // namespace tilestore

#endif  // TILESTORE_NET_CLIENT_API_H_
