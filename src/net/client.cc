#include "net/client.h"

#include <thread>

namespace tilestore {
namespace net {

Result<std::unique_ptr<TileClient>> TileClient::Connect(
    const std::string& host, uint16_t port, TileClientOptions options) {
  const int attempts = std::max(options.connect_attempts, 1);
  Status last = Status::IOError("connect never attempted");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options.retry_backoff_ms * attempt));
    }
    Result<Socket> sock =
        Socket::ConnectTcp(host, port, options.connect_timeout_ms);
    if (!sock.ok()) {
      last = sock.status();
      continue;
    }
    std::unique_ptr<TileClient> client(
        new TileClient(std::move(sock).MoveValue(), options));
    if (!options.handshake) return client;
    bool downgrade = false;
    Status st = client->Handshake(&downgrade);
    if (st.ok() && !downgrade) return client;
    if (st.ok() && downgrade) {
      // The server dropped the connection on the unknown kHello op — the
      // v1 behaviour. Reconnect fresh and speak v1; shard identity stays
      // at the standalone default.
      Result<Socket> again =
          Socket::ConnectTcp(host, port, options.connect_timeout_ms);
      if (!again.ok()) {
        last = again.status();
        continue;
      }
      client.reset(new TileClient(std::move(again).MoveValue(), options));
      client->wire_version_ = kMinWireVersion;
      return client;
    }
    // A timed-out handshake is transient — a busy server may answer the
    // next attempt.
    if (st.IsDeadlineExceeded()) {
      last = st;
      continue;
    }
    // A clean server-side rejection (e.g. the wrong shard answered) is
    // definitive — retrying the same endpoint cannot fix a miswired map.
    return st;
  }
  return last;
}

Status TileClient::Handshake(bool* downgrade) {
  *downgrade = false;
  HelloRequest hello;
  hello.max_version = kWireVersion;
  hello.expected_shard_id = options_.expected_shard_id;
  Result<std::span<const uint8_t>> payload =
      RoundTrip(WireOp::kHello, EncodeHelloRequest(hello));
  if (!payload.ok()) {
    const Status& st = payload.status();
    // A deadline expiry is a slow server, not a v1 one — downgrading here
    // would hide its shard identity behind the standalone defaults.
    if (st.IsDeadlineExceeded()) return st;
    // Any other transport failure right after a successful connect: almost
    // certainly a v1 server closing on the unknown op. Signal downgrade;
    // a genuinely dead server fails the v1 reconnect immediately after.
    *downgrade = true;
    return Status::OK();
  }
  Status server;
  HelloResponse resp;
  Status st = DecodeHelloResponse(*payload, &server, &resp);
  if (!st.ok()) {
    healthy_ = false;
    return st;
  }
  if (!server.ok()) {
    if (server.IsUnimplemented()) {
      // The server answered cleanly but is pinned to v1
      // (max_wire_version=1); the connection is still good.
      wire_version_ = kMinWireVersion;
      return Status::OK();
    }
    return server;
  }
  wire_version_ = resp.version;
  shard_id_ = resp.shard_id;
  shard_count_ = resp.shard_count;
  if (options_.expected_shard_id != kAnyShard &&
      resp.shard_id != options_.expected_shard_id) {
    return Status::InvalidArgument(
        "endpoint serves shard " + std::to_string(resp.shard_id) + "/" +
        std::to_string(resp.shard_count) + ", expected shard " +
        std::to_string(options_.expected_shard_id));
  }
  return Status::OK();
}

Result<std::span<const uint8_t>> TileClient::RoundTrip(
    WireOp op, const std::vector<uint8_t>& request) {
  if (!healthy_ || !socket_.valid()) {
    return Status::Unavailable("connection is closed or poisoned");
  }
  if (request.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument("request exceeds the wire message bound");
  }
  const uint64_t id = next_request_id_++;
  const Deadline deadline = DeadlineAfterMs(options_.request_timeout_ms);
  // kHello frames are stamped with the client's maximum version (that is
  // the offer); everything later uses the negotiated one.
  const uint16_t version =
      op == WireOp::kHello ? kWireVersion : wire_version_;
  // One header buffer serves both directions: the request's header goes
  // out beside the payload, then the response's header lands in it.
  uint8_t header_buf[kHeaderBytes];
  EncodeFrameHeader(op, /*response=*/false, id, request, header_buf, version);
  Status st = socket_.SendAll(header_buf, request, deadline);
  if (!st.ok()) {
    healthy_ = false;
    return st;
  }
  st = socket_.RecvAll(header_buf, kHeaderBytes, deadline);
  if (!st.ok()) {
    healthy_ = false;
    if (st.IsNotFound()) {
      return Status::Unavailable("server closed the connection");
    }
    return st;
  }
  FrameHeader header;
  st = DecodeHeader(header_buf, &header);
  if (st.ok() && (!header.response || header.op != op ||
                  header.request_id != id)) {
    st = Status::Corruption("response does not match the request");
  }
  if (!st.ok()) {
    healthy_ = false;
    return st;
  }
  if (recv_buf_.size() < header.payload_len) {
    recv_buf_.resize(header.payload_len);
  }
  const std::span<const uint8_t> payload(recv_buf_.data(),
                                         header.payload_len);
  st = socket_.RecvAll(recv_buf_.data(), payload.size(), deadline);
  if (st.ok()) st = VerifyPayload(header, payload);
  if (!st.ok()) {
    healthy_ = false;
    return st;
  }
  return payload;
}

Result<std::span<const uint8_t>> TileClient::CallForPayload(
    const Request& request) {
  const WireOp op = RequestOp(request);
  // v2-only ops never go out on a v1 conversation: a genuine v1 server
  // would drop the connection on the unknown op, poisoning it for every
  // later request. Refuse locally instead.
  if (op == WireOp::kFilterQuery && wire_version_ < 2) {
    return Status::Unimplemented(
        "filter_query requires wire version 2; this connection negotiated "
        "version " +
        std::to_string(wire_version_));
  }
  Result<std::span<const uint8_t>> payload =
      RoundTrip(op, EncodeRequest(request));
  if (!payload.ok()) return payload.status();
  ByteReader r(*payload);
  Status server;
  Status st = DecodeResponseStatus(&r, &server);
  if (!st.ok()) {
    healthy_ = false;
    return st;
  }
  if (!server.ok()) return server;
  return payload;
}

Result<Response> TileClient::Call(const Request& request) {
  Result<std::span<const uint8_t>> payload = CallForPayload(request);
  if (!payload.ok()) return payload.status();
  // The server's status byte read OK in `CallForPayload`; only the body
  // can still be malformed.
  Status server;
  Response response;
  Status st =
      DecodeResponsePayload(RequestOp(request), *payload, &server, &response);
  if (!st.ok()) {
    healthy_ = false;
    return st;
  }
  return response;
}

}  // namespace net
}  // namespace tilestore
