#ifndef TILESTORE_NET_CLIENT_H_
#define TILESTORE_NET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/client_api.h"
#include "net/socket.h"
#include "net/wire.h"

namespace tilestore {
namespace net {

struct TileClientOptions {
  /// Per-attempt connect timeout.
  int connect_timeout_ms = 5000;
  /// Total connect attempts (>= 1); refused/odd connections are retried
  /// with linear backoff — covers the races of a server still binding.
  int connect_attempts = 5;
  int retry_backoff_ms = 100;
  /// Per-request deadline covering send + server execution + response
  /// read. Expiry poisons the connection (the stream may hold a stale
  /// response), so the next call fails until `Connect` is used again.
  int request_timeout_ms = 10000;
  /// Send a kHello as the first request after connecting, negotiating the
  /// wire version and learning the server's shard identity. Against a v1
  /// server (which drops the connection on the unknown op) the client
  /// reconnects and speaks v1. Off by default so plain clients cost one
  /// round trip, not two; the routing client always turns it on.
  bool handshake = false;
  /// With `handshake`, fail `Connect` unless the server reports exactly
  /// this shard id. `kAnyShard` accepts any server.
  uint32_t expected_shard_id = kAnyShard;
};

/// \brief Client side of the tilestore wire protocol: one TCP connection,
/// synchronous request/response, every op flowing through the unified
/// `Call` seam. Not thread-safe — use one `TileClient` per thread (the
/// loadgen does exactly that).
class TileClient : public ClientInterface {
 public:
  static Result<std::unique_ptr<TileClient>> Connect(
      const std::string& host, uint16_t port,
      TileClientOptions options = TileClientOptions());

  /// One round trip: encode, send, receive, decode. Transport and
  /// protocol failures poison the connection; clean server-side errors do
  /// not.
  Result<Response> Call(const Request& request) override;

  /// `Call` without the final decode: the verified response payload of
  /// one round trip, status byte included, for callers that read the body
  /// in place (the router stitches query cells straight from it). The view
  /// points into this client's receive buffer and stays valid until its
  /// next call. A server-side error comes back as the error status, as
  /// from `Call`.
  Result<std::span<const uint8_t>> CallForPayload(const Request& request);

  /// True until an I/O or protocol error poisoned the connection.
  bool healthy() const override { return healthy_; }
  void Close() { socket_.Close(); healthy_ = false; }

  /// Negotiated protocol version (kWireVersion without a handshake).
  uint16_t wire_version() const { return wire_version_; }
  /// Shard identity learned from the handshake (0 of 1 without one).
  uint32_t shard_id() const { return shard_id_; }
  uint32_t shard_count() const { return shard_count_; }

 private:
  TileClient(Socket socket, TileClientOptions options)
      : socket_(std::move(socket)), options_(options) {}

  /// Sends one request frame and receives the matching response payload
  /// into `recv_buf_`; the view is valid until the next round trip.
  Result<std::span<const uint8_t>> RoundTrip(
      WireOp op, const std::vector<uint8_t>& request);

  /// Runs the kHello exchange; on success records the negotiated version
  /// and shard identity. Returns NotFound-as-downgrade via `*downgrade`
  /// when the server does not speak v2.
  Status Handshake(bool* downgrade);

  Socket socket_;
  TileClientOptions options_;
  uint64_t next_request_id_ = 1;
  bool healthy_ = true;
  uint16_t wire_version_ = kWireVersion;
  uint32_t shard_id_ = 0;
  uint32_t shard_count_ = 1;
  // Receives every response payload. It only grows, so a steady stream of
  // replies is received with no allocation and no zero-fill.
  std::vector<uint8_t> recv_buf_;
};

}  // namespace net
}  // namespace tilestore

#endif  // TILESTORE_NET_CLIENT_H_
