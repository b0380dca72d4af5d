#ifndef TILESTORE_CLUSTER_ROUTING_CLIENT_H_
#define TILESTORE_CLUSTER_ROUTING_CLIENT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/shard_map.h"
#include "common/thread_pool.h"
#include "net/client.h"
#include "net/client_api.h"
#include "obs/metrics.h"

namespace tilestore {
namespace cluster {

struct RoutingClientOptions {
  /// Per-shard connection options. `handshake` is forced on (the routing
  /// client always negotiates v2 and verifies shard identity);
  /// `request_timeout_ms` is the per-shard deadline of every fan-out leg.
  net::TileClientOptions shard_options;
  /// Upper bound on concurrently in-flight shard requests: the calling
  /// thread runs one shard's leg and a pool of `max_fanout - 1` threads
  /// the others. Shards beyond it queue.
  size_t max_fanout = 8;
  /// Verify at connect time that each endpoint reports the shard id the
  /// map assigns it, turning a miswired map into a connect error instead
  /// of silent wrong answers.
  bool verify_shard_ids = true;
};

/// \brief Cluster-side implementation of the unified client API
/// (DESIGN.md §13): fans each request out to the shards owning the data
/// and stitches the results.
///
/// Routing rules per op:
///  - `RangeQuery`/`FilterQuery`/`Aggregate`: `ShardMap::QueryTargets`
///    clips the region per owning slab; sub-results are stitched
///    (queries — every shard default-fills its own sub-region, so a
///    filtered stitch stays byte-identical) or combined
///    (aggregates; `kAvg` fans out as per-shard `kSum` over the exact
///    same operands the single-store divide uses). Split objects require
///    fixed regions; unsplit objects pass through untouched.
///  - `InsertTiles`: tiles grouped by `TileOwner` (a tile straddling a
///    cut is rejected before anything is sent); `create_if_missing`
///    broadcasts the creation to every owning shard so later slab
///    queries never see NotFound.
///  - `Ping`/`Stats`/`Retile`/`Compact`: fan out to all/owning shards.
///
/// Partial-failure contract: when some shards succeed and others fail,
/// `Call` returns `kPartialResult` whose message lists each failing shard
/// and its error; no partial payload is returned. When every shard fails
/// with the same code that code propagates (e.g. NotFound); mixed
/// all-failures collapse to `kUnavailable`. A shard that dies mid-run
/// costs its in-flight call a transport error and later calls a fast
/// reconnect attempt — never a hang beyond the per-shard deadline.
///
/// Observability: the client owns a private registry with `cluster.*`
/// series (requests, fanout width, per-shard latency, partial results,
/// reconnects); `Stats` returns `{"cluster": ..., "shards": [...]}`
/// merging it with every shard's snapshot.
///
/// Not thread-safe — one instance per thread, like `TileClient`.
class RoutingTileClient : public net::ClientInterface {
 public:
  /// Connects to every shard in `map`. Unreachable shards are tolerated
  /// (they reconnect lazily on first use); fails with Unavailable only
  /// when no shard is reachable, or with the handshake's error when an
  /// endpoint reports the wrong shard identity.
  static Result<std::unique_ptr<RoutingTileClient>> Connect(
      ShardMap map, RoutingClientOptions options = RoutingClientOptions());

  Result<net::Response> Call(const net::Request& request) override;

  const ShardMap& shard_map() const { return map_; }
  /// Shards with a currently healthy connection.
  size_t healthy_shards() const;
  /// The cluster can serve (possibly partially) while any shard is up;
  /// down shards get a fresh reconnect attempt per call anyway.
  bool healthy() const override { return true; }
  /// The routing layer's own metrics (`cluster.*`).
  obs::MetricsRegistry* metrics() { return &registry_; }

 private:
  /// One shard's share of a request. `Reply` is the decoded
  /// `net::Response`, or a view of the verified reply payload when the
  /// router reads the body in place (fanned-out query results are stitched
  /// from it).
  template <class Reply>
  struct ShardCall {
    uint32_t shard = 0;
    net::Request request;
    Result<Reply> result = Status::Internal("not dispatched");
    /// A payload view's own copy, taken when the shard's connection is
    /// reused for another sub-call before the router stitches.
    std::vector<uint8_t> kept;
  };
  using SubCall = ShardCall<net::Response>;
  using PayloadCall = ShardCall<std::span<const uint8_t>>;

  RoutingTileClient(ShardMap map, RoutingClientOptions options);

  /// Connects (or reconnects) one shard. `attempts` caps retry cost —
  /// lazy mid-run reconnects use 1 so a dead shard fails fast.
  Status ConnectShard(uint32_t shard, int attempts);

  /// Runs every sub-call, grouped by shard (one task per shard keeps each
  /// connection single-threaded). The calling thread runs the last group
  /// itself; the pool runs the others.
  template <class Reply>
  void Scatter(std::vector<ShardCall<Reply>>* calls);

  /// One sub-call on one shard's connection (reconnects lazily).
  template <class Reply>
  Result<Reply> CallShard(uint32_t shard, const net::Request& request);

  /// Folds sub-call outcomes into the cluster-level status: OK,
  /// kPartialResult (some failed), the common code (all failed alike), or
  /// kUnavailable (all failed, mixed). With `treat_notfound_as_ok`, a
  /// per-shard NotFound counts as success (an empty slab is not a fault).
  template <class Reply>
  Status CombineStatuses(const std::vector<ShardCall<Reply>>& calls,
                         bool treat_notfound_as_ok = false);

  /// Range and filter queries: fans `sub_request(clipped region)` out to
  /// the owning shards and stitches the replies into one `QueryResponse`.
  template <class QueryResponse, class MakeSubRequest>
  Result<net::Response> RouteQuery(const std::string& name,
                                   const MInterval& region,
                                   const MakeSubRequest& sub_request);

  Result<net::Response> RoutePing(const net::Request& request);
  Result<net::Response> RouteOpenMDD(const net::OpenMDDRequest& request);
  Result<net::Response> RouteRangeQuery(const net::RangeQueryRequest& req);
  Result<net::Response> RouteAggregate(const net::AggregateRequest& request);
  Result<net::Response> RouteInsertTiles(const net::InsertTilesRequest& req);
  Result<net::Response> RouteStats(const net::StatsRequest& request);
  Result<net::Response> RouteRetile(const net::RetileRequest& request);
  Result<net::Response> RouteCompact(const net::CompactRequest& request);
  Result<net::Response> RouteFilterQuery(const net::FilterQueryRequest& req);

  ShardMap map_;
  RoutingClientOptions options_;
  std::vector<std::unique_ptr<net::TileClient>> shards_;
  std::unique_ptr<ThreadPool> pool_;

  obs::MetricsRegistry registry_;
  obs::Counter* requests_;
  obs::Counter* fanout_calls_;
  obs::Counter* partial_results_;
  obs::Counter* shard_errors_;
  obs::Counter* reconnects_;
  obs::Histogram* fanout_width_;
  std::vector<obs::Histogram*> shard_latency_ms_;
};

}  // namespace cluster
}  // namespace tilestore

#endif  // TILESTORE_CLUSTER_ROUTING_CLIENT_H_
