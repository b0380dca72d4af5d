#include "net/event_loop.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#ifdef __linux__
#include <sys/epoll.h>
#endif

namespace tilestore {
namespace net {

namespace {

std::string ErrnoText(const char* context) {
  return std::string(context) + ": " + std::strerror(errno);
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(ErrnoText("fcntl O_NONBLOCK"));
  }
  return Status::OK();
}

bool ForcePoll() {
  const char* env = std::getenv("TILESTORE_EVENT_LOOP");
  return env != nullptr && std::strcmp(env, "poll") == 0;
}

}  // namespace

Result<std::unique_ptr<EventLoop>> EventLoop::Create() {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return Status::IOError(ErrnoText("pipe"));
  }
  for (int fd : pipe_fds) {
    if (Status st = SetNonBlocking(fd); !st.ok()) {
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
      return st;
    }
  }

  int epoll_fd = -1;
#ifdef __linux__
  if (!ForcePoll()) {
    epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    // epoll failing (container seccomp, exotic kernels) just means the
    // portable poll backend — not an error.
  }
#endif
  std::unique_ptr<EventLoop> loop(
      new EventLoop(epoll_fd, pipe_fds[0], pipe_fds[1]));
  // The wake pipe is an ordinary registered fd tagged with the loop
  // itself; Wait recognizes it and drains it instead of reporting an
  // event.
  if (Status st = loop->Add(pipe_fds[0], /*want_read=*/true,
                            /*want_write=*/false, loop.get());
      !st.ok()) {
    return st;
  }
  return loop;
}

EventLoop::EventLoop(int epoll_fd, int wake_read_fd, int wake_write_fd)
    : epoll_fd_(epoll_fd),
      wake_read_fd_(wake_read_fd),
      wake_write_fd_(wake_write_fd) {}

EventLoop::~EventLoop() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  ::close(wake_read_fd_);
  ::close(wake_write_fd_);
}

const char* EventLoop::backend() const {
  return epoll_fd_ >= 0 ? "epoll" : "poll";
}

size_t EventLoop::watched_fds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return interest_.size();
}

Status EventLoop::Control(int op, int fd, const Interest& interest) {
#ifdef __linux__
  if (epoll_fd_ >= 0) {
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    if (interest.want_read) ev.events |= EPOLLIN;
    if (interest.want_write) ev.events |= EPOLLOUT;
    if (interest.one_shot) ev.events |= EPOLLONESHOT;
    ev.data.ptr = interest.tag;
    if (::epoll_ctl(epoll_fd_, op, fd, &ev) != 0) {
      return Status::IOError(ErrnoText(op == EPOLL_CTL_ADD ? "epoll_ctl ADD"
                                                           : "epoll_ctl MOD"));
    }
  }
#else
  (void)op;
  (void)fd;
  (void)interest;
#endif
  return Status::OK();
}

Status EventLoop::Add(int fd, bool want_read, bool want_write, void* tag,
                      bool one_shot) {
  if (tag == nullptr) {
    return Status::InvalidArgument("event loop tags must be non-null");
  }
  const Interest interest{tag, want_read, want_write, one_shot,
                          /*disarmed=*/false};
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!interest_.emplace(fd, interest).second) {
      return Status::InvalidArgument("fd already registered with event loop");
    }
#ifdef __linux__
    if (Status st = Control(EPOLL_CTL_ADD, fd, interest); !st.ok()) {
      interest_.erase(fd);
      return st;
    }
#endif
    wake = polling_;
  }
  if (wake) Wake();
  return Status::OK();
}

Status EventLoop::Update(int fd, bool want_read, bool want_write) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = interest_.find(fd);
    if (it == interest_.end()) {
      return Status::InvalidArgument("fd not registered with event loop");
    }
    it->second.want_read = want_read;
    it->second.want_write = want_write;
    it->second.disarmed = false;
#ifdef __linux__
    if (Status st = Control(EPOLL_CTL_MOD, fd, it->second); !st.ok()) {
      return st;
    }
#endif
    wake = polling_;
  }
  if (wake) Wake();
  return Status::OK();
}

Status EventLoop::Remove(int fd) {
  std::lock_guard<std::mutex> lock(mu_);
  if (interest_.erase(fd) == 0) {
    return Status::InvalidArgument("fd not registered with event loop");
  }
#ifdef __linux__
  if (epoll_fd_ >= 0) {
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr) != 0) {
      return Status::IOError(ErrnoText("epoll_ctl DEL"));
    }
  }
#endif
  return Status::OK();
}

void EventLoop::DrainWake() {
  uint8_t buf[64];
  while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
  }
}

Result<size_t> EventLoop::Wait(int timeout_ms, std::vector<Event>* out,
                               size_t max_events) {
  out->clear();
  max_events = std::clamp<size_t>(max_events, 1, 128);
#ifdef __linux__
  if (epoll_fd_ >= 0) {
    epoll_event events[128];
    const int n = ::epoll_wait(epoll_fd_, events,
                               static_cast<int>(max_events), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) return size_t{0};
      return Status::IOError(ErrnoText("epoll_wait"));
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.ptr == this) {
        DrainWake();
        continue;
      }
      Event ev;
      ev.tag = events[i].data.ptr;
      ev.readable = (events[i].events & EPOLLIN) != 0;
      ev.writable = (events[i].events & EPOLLOUT) != 0;
      ev.hangup = (events[i].events & (EPOLLHUP | EPOLLERR)) != 0;
      out->push_back(ev);
    }
    return out->size();
  }
#endif
  return PollWait(timeout_ms, out, max_events);
}

Result<size_t> EventLoop::PollWait(int timeout_ms, std::vector<Event>* out,
                                   size_t max_events) {
  std::unique_lock<std::mutex> lock(mu_);
  // One leader polls at a time; `polling_` marks it.
  const auto no_leader = [this] { return !polling_; };
  if (timeout_ms < 0) {
    poll_turn_.wait(lock, no_leader);
  } else if (!poll_turn_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                                  no_leader)) {
    return size_t{0};  // another thread polled for the whole timeout
  }
  polling_ = true;
  std::vector<pollfd> fds;
  std::vector<void*> tags;
  fds.reserve(interest_.size());
  tags.reserve(interest_.size());
  for (const auto& [fd, interest] : interest_) {
    if (interest.disarmed) continue;
    short events = 0;
    if (interest.want_read) events |= POLLIN;
    if (interest.want_write) events |= POLLOUT;
    fds.push_back(pollfd{fd, events, 0});
    tags.push_back(interest.tag);
  }
  lock.unlock();
  const int n = ::poll(fds.data(), fds.size(), timeout_ms);
  const int poll_errno = errno;
  lock.lock();
  polling_ = false;
  poll_turn_.notify_one();
  if (n < 0) {
    if (poll_errno == EINTR) return size_t{0};
    errno = poll_errno;
    return Status::IOError(ErrnoText("poll"));
  }
  for (size_t i = 0; i < fds.size() && out->size() < max_events; ++i) {
    if (fds[i].revents == 0) continue;
    if (fds[i].fd == wake_read_fd_) {
      DrainWake();
      continue;
    }
    // The fd may have been removed, re-registered or disarmed while this
    // round polled; only its current, armed registration reports.
    auto it = interest_.find(fds[i].fd);
    if (it == interest_.end() || it->second.tag != tags[i] ||
        it->second.disarmed) {
      continue;
    }
    if (it->second.one_shot) it->second.disarmed = true;
    Event ev;
    ev.tag = tags[i];
    ev.readable = (fds[i].revents & POLLIN) != 0;
    ev.writable = (fds[i].revents & POLLOUT) != 0;
    ev.hangup = (fds[i].revents & (POLLHUP | POLLERR | POLLNVAL)) != 0;
    out->push_back(ev);
  }
  return out->size();
}

void EventLoop::Wake() {
  const uint8_t byte = 1;
  // A full pipe already guarantees a pending wake-up.
  (void)!::write(wake_write_fd_, &byte, 1);
}

}  // namespace net
}  // namespace tilestore
