// Client/server: serve a store over TCP in-process and talk to it through
// `TileClient` — the same wire protocol `tilestore_cli serve` speaks
// (DESIGN.md §9).
//
//   ./client_server [store-path]
//
// The server binds an ephemeral loopback port; a client then creates an
// object over the wire (InsertTiles with create_if_missing), queries it
// back, runs an aggregate, and fetches the server's metrics snapshot.

#include <cstdio>
#include <cstring>

#include "tilestore.h"

using namespace tilestore;

namespace {

void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).MoveValue();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : "/tmp/tilestore_client_server.db";
  (void)MDDStore::Remove(path);

  // 1. A store and a server on an ephemeral loopback port. In a real
  //    deployment the server runs in its own process: tilestore_cli serve.
  auto store = Unwrap(MDDStore::Create(path), "create store");
  net::TileServer server(store.get());
  Check(server.Start(), "start server");
  std::printf("serving on 127.0.0.1:%u\n", server.port());

  // 2. Connect a client and create an 8x8 object over the wire, loading
  //    one 8x8 tile of raw cells. The handshake option negotiates wire v2
  //    and reports the server's shard identity (0 of 1 for a standalone
  //    server; a cluster shard reports its slot, DESIGN.md §13).
  net::TileClientOptions client_options;
  client_options.handshake = true;
  auto client = Unwrap(net::TileClient::Connect("127.0.0.1", server.port(),
                                                client_options),
                       "connect");
  std::printf("negotiated wire v%u, shard %u of %u\n",
              client->wire_version(), client->shard_id(),
              client->shard_count());
  const MInterval domain({{0, 7}, {0, 7}});
  Array tile = Unwrap(
      Array::Create(domain, CellType::Of(CellTypeId::kUInt8)), "array");
  for (size_t i = 0; i < tile.size_bytes(); ++i) {
    tile.mutable_data()[i] = static_cast<uint8_t>(i);
  }
  std::vector<Array> tiles;
  tiles.push_back(std::move(tile));
  Check(client->InsertTiles("remote", tiles, /*create_if_missing=*/true,
                            domain, CellType::Of(CellTypeId::kUInt8)),
        "insert tiles");

  // 3. Query a subregion back; the bytes are exactly what the in-process
  //    executor would return.
  const MInterval region({{2, 5}, {2, 5}});
  Array result = Unwrap(client->RangeQuery("remote", region), "range query");
  std::printf("queried %s -> %zu cells, first cell %u\n",
              region.ToString().c_str(), result.size_bytes(),
              result.data()[0]);
  RangeQueryExecutor executor(store.get());
  Array local = Unwrap(
      executor.Execute(Unwrap(store->GetMDD("remote"), "get"), region),
      "local query");
  if (result.size_bytes() != local.size_bytes() ||
      std::memcmp(result.data(), local.data(), local.size_bytes()) != 0) {
    std::fprintf(stderr, "remote and local results differ!\n");
    return 1;
  }
  std::printf("remote result is byte-identical to the local executor\n");

  // 4. Aggregate push-down over the wire. `Aggregate` is a thin typed
  //    wrapper over the unified `Call` seam every op flows through —
  //    the same request can be issued through `Call` directly, which is
  //    how generic middleware (the cluster routing client, proxies,
  //    request recorders) handles all ops uniformly.
  const double sum = Unwrap(
      client->Aggregate("remote", domain, AggregateOp::kSum), "aggregate");
  std::printf("sum over %s = %.0f\n", domain.ToString().c_str(), sum);
  net::AggregateRequest raw;
  raw.name = "remote";
  raw.region = domain;
  raw.op = static_cast<uint8_t>(AggregateOp::kCount);
  net::Response raw_response =
      Unwrap(client->Call(net::Request{raw}), "call");
  std::printf("count via Call() = %.0f non-zero cells\n",
              std::get<net::AggregateResponse>(raw_response).value);

  // 5. Server-side observability: every request above is already counted.
  const std::string stats = Unwrap(client->Stats(0), "stats");
  std::printf("server metrics snapshot: %zu bytes of JSON\n", stats.size());

  // 6. Graceful shutdown: in-flight requests drain, connections close.
  client->Close();
  server.Stop();
  Check(store->Save(), "save");
  std::printf("server drained, store saved\n");
  store.reset();
  (void)MDDStore::Remove(path);
  return 0;
}
