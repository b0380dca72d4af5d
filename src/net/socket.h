#ifndef TILESTORE_NET_SOCKET_H_
#define TILESTORE_NET_SOCKET_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace tilestore {
namespace net {

/// Deadline type used throughout the net layer. `Deadline::max()` means
/// "no deadline".
using Deadline = std::chrono::steady_clock::time_point;

/// A deadline `ms` milliseconds from now (or none when `ms <= 0`).
Deadline DeadlineAfterMs(int ms);

/// \brief RAII TCP socket: deadline-bounded blocking I/O for clients,
/// non-blocking single reads and writes for the server's event loop.
///
/// Blocking operations wait for readiness with `poll` and give up with
/// `DeadlineExceeded` once their deadline passes.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Connects to `host:port` (numeric or resolvable host), bounded by
  /// `timeout_ms`.
  static Result<Socket> ConnectTcp(const std::string& host, uint16_t port,
                                   int timeout_ms);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Writes exactly `n` bytes or fails.
  Status SendAll(const uint8_t* data, size_t n, Deadline deadline);

  /// Reads exactly `n` bytes or fails. A peer close before the first byte
  /// yields `NotFound("eof")` (a clean end-of-stream the caller can treat
  /// as a normal hangup); a close mid-message is an `IOError`.
  Status RecvAll(uint8_t* out, size_t n, Deadline deadline);

  /// Non-blocking single read for event-loop use: returns the bytes read
  /// (> 0), 0 when the call would block, `NotFound("eof")` on a clean peer
  /// close, or `IOError`. The fd must be in non-blocking mode (accepted
  /// and connected sockets are).
  Result<size_t> RecvSome(uint8_t* out, size_t n);

  /// Non-blocking single write: bytes written (> 0) or 0 when the call
  /// would block.
  Result<size_t> SendSome(const uint8_t* data, size_t n);

  void Close();

 private:
  int fd_ = -1;
};

/// \brief Listening TCP socket bound to the loopback (or any) interface.
class Listener {
 public:
  /// Binds and listens. `port` 0 picks an ephemeral port (see `port()`).
  /// `loopback_only` binds 127.0.0.1, otherwise INADDR_ANY.
  static Result<Listener> Bind(uint16_t port, int backlog,
                               bool loopback_only = true);

  Listener() = default;
  ~Listener() { Close(); }
  Listener(Listener&& other) noexcept
      : fd_(other.fd_), port_(other.port_) {
    other.fd_ = -1;
  }
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Accepts one pending connection without waiting; `DeadlineExceeded`
  /// when none is queued. Event-loop companion to registering `fd()` for
  /// readability.
  Result<Socket> AcceptNonBlocking();

  /// The listening fd, for event-loop registration.
  int fd() const { return fd_; }

  /// The actually bound port (resolves port 0 requests).
  uint16_t port() const { return port_; }
  bool valid() const { return fd_ >= 0; }

  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace net
}  // namespace tilestore

#endif  // TILESTORE_NET_SOCKET_H_
