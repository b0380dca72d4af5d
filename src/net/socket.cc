#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace tilestore {
namespace net {

namespace {

std::string ErrnoMessage(const std::string& context) {
  return context + ": " + std::strerror(errno);
}

// Waits for `events` on `fd` until `deadline`. Returns 1 when ready, 0 on
// deadline, -1 on poll error (errno set).
int WaitReady(int fd, short events, Deadline deadline) {
  for (;;) {
    int timeout_ms = -1;
    if (deadline != Deadline::max()) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return 0;
      // Rounded up, so a wake-up is never early and then spins.
      timeout_ms = static_cast<int>(
          std::chrono::ceil<std::chrono::milliseconds>(deadline - now)
              .count());
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (rc > 0) return 1;
    // rc == 0: timed out; the loop re-checks the deadline.
  }
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

Deadline DeadlineAfterMs(int ms) {
  if (ms <= 0) return Deadline::max();
  return std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Result<Socket> Socket::ConnectTcp(const std::string& host, uint16_t port,
                                  int timeout_ms) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* res = nullptr;
  const std::string port_text = std::to_string(port);
  const int gai = ::getaddrinfo(host.c_str(), port_text.c_str(), &hints, &res);
  if (gai != 0) {
    return Status::IOError("resolve " + host + ": " + ::gai_strerror(gai));
  }

  const Deadline deadline = DeadlineAfterMs(timeout_ms);
  Status last = Status::IOError("no addresses for " + host);
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Status::IOError(ErrnoMessage("socket"));
      continue;
    }
    SetNonBlocking(fd);
    int rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
    if (rc != 0 && errno == EINPROGRESS) {
      const int ready = WaitReady(fd, POLLOUT, deadline);
      if (ready == 0) {
        ::close(fd);
        last = Status::DeadlineExceeded("connect to " + host + ":" +
                                        port_text + " timed out");
        continue;
      }
      if (ready < 0) {
        ::close(fd);
        last = Status::IOError(ErrnoMessage("poll connect " + host));
        continue;
      }
      int err = 0;
      socklen_t len = sizeof(err);
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
          err != 0) {
        ::close(fd);
        last = Status::IOError("connect to " + host + ":" + port_text + ": " +
                               std::strerror(err != 0 ? err : errno));
        continue;
      }
      rc = 0;
    }
    if (rc != 0) {
      const Status st = Status::IOError(ErrnoMessage("connect " + host));
      ::close(fd);
      last = st;
      continue;
    }
    int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::freeaddrinfo(res);
    return Socket(fd);
  }
  ::freeaddrinfo(res);
  return last;
}

Status Socket::SendAll(std::span<const uint8_t> head,
                       std::span<const uint8_t> body, Deadline deadline) {
  const size_t total = head.size() + body.size();
  size_t done = 0;
  while (done < total) {
    Result<size_t> put = SendSome(head, body, done);
    if (!put.ok()) return put.status();
    if (*put > 0) {
      done += *put;
      continue;
    }
    // The socket buffer is full: only now wait for room.
    const int ready = WaitReady(fd_, POLLOUT, deadline);
    if (ready == 0) return Status::DeadlineExceeded("send timed out");
    if (ready < 0) return Status::IOError(ErrnoMessage("poll send"));
  }
  return Status::OK();
}

Status Socket::RecvAll(uint8_t* out, size_t n, Deadline deadline) {
  size_t done = 0;
  while (done < n) {
    const ssize_t got = ::recv(fd_, out + done, n - done, 0);
    if (got > 0) {
      done += static_cast<size_t>(got);
      continue;
    }
    if (got == 0) {
      if (done == 0) return Status::NotFound("eof");
      return Status::IOError("connection closed mid-message");
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      return Status::IOError(ErrnoMessage("recv"));
    }
    // Nothing buffered: only now wait for the peer.
    const int ready = WaitReady(fd_, POLLIN, deadline);
    if (ready == 0) return Status::DeadlineExceeded("recv timed out");
    if (ready < 0) return Status::IOError(ErrnoMessage("poll recv"));
  }
  return Status::OK();
}

Result<size_t> Socket::RecvSome(uint8_t* out, size_t n) {
  for (;;) {
    const ssize_t got = ::recv(fd_, out, n, 0);
    if (got > 0) return static_cast<size_t>(got);
    if (got == 0) return Status::NotFound("eof");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
    return Status::IOError(ErrnoMessage("recv"));
  }
}

Result<size_t> Socket::SendSome(std::span<const uint8_t> head,
                                std::span<const uint8_t> body,
                                size_t offset) {
  struct iovec iov[2];
  int count = 0;
  if (offset < head.size()) {
    iov[count].iov_base = const_cast<uint8_t*>(head.data() + offset);
    iov[count].iov_len = head.size() - offset;
    ++count;
    offset = 0;
  } else {
    offset -= head.size();
  }
  if (offset < body.size()) {
    iov[count].iov_base = const_cast<uint8_t*>(body.data() + offset);
    iov[count].iov_len = body.size() - offset;
    ++count;
  }
  if (count == 0) return size_t{0};
  struct msghdr msg;
  std::memset(&msg, 0, sizeof(msg));
  msg.msg_iov = iov;
  msg.msg_iovlen = static_cast<size_t>(count);
  for (;;) {
    const ssize_t put = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (put >= 0) return static_cast<size_t>(put);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
    return Status::IOError(ErrnoMessage("send"));
  }
}

void Socket::Shutdown() {
  if (fd_ >= 0) (void)::shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
  }
  return *this;
}

Result<Listener> Listener::Bind(uint16_t port, int backlog,
                                bool loopback_only) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError(ErrnoMessage("socket"));
  int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr =
      loopback_only ? htonl(INADDR_LOOPBACK) : htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status st =
        Status::IOError(ErrnoMessage("bind port " + std::to_string(port)));
    ::close(fd);
    return st;
  }
  if (::listen(fd, backlog) != 0) {
    const Status st = Status::IOError(ErrnoMessage("listen"));
    ::close(fd);
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) !=
      0) {
    const Status st = Status::IOError(ErrnoMessage("getsockname"));
    ::close(fd);
    return st;
  }
  SetNonBlocking(fd);
  Listener listener;
  listener.fd_ = fd;
  listener.port_ = ntohs(addr.sin_port);
  return listener;
}

Result<Socket> Listener::AcceptNonBlocking() {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("no pending connection");
      }
      return Status::IOError(ErrnoMessage("accept"));
    }
    SetNonBlocking(fd);
    int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return Socket(fd);
  }
}

void Listener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace net
}  // namespace tilestore
