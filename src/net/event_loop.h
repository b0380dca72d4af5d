#ifndef TILESTORE_NET_EVENT_LOOP_H_
#define TILESTORE_NET_EVENT_LOOP_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace tilestore {
namespace net {

/// \brief Small readiness-notification wrapper: epoll on Linux, poll(2)
/// everywhere (and when `TILESTORE_EVENT_LOOP=poll` forces the portable
/// path, which is how tests cover both).
///
/// Fds are level-triggered by default: a ready fd is reported on every
/// `Wait` until its condition is consumed or its interest set is changed
/// with `Update`. A *one-shot* fd is reported once and then disarmed until
/// `Update` re-arms it, so when several threads `Wait` on the same loop
/// each event has exactly one taker — the thread that owns the fd until it
/// re-arms it. One opaque tag per fd is handed back in events.
///
/// Every method is thread-safe. Several threads may `Wait` at once: epoll
/// does this natively; the poll backend lets one leader poll at a time and
/// wakes it when another thread changes the interest set. `Wake` makes a
/// concurrent `Wait` return early via a self-pipe.
class EventLoop {
 public:
  struct Event {
    void* tag = nullptr;
    bool readable = false;
    bool writable = false;
    /// Peer hung up or the fd errored; the owner should close it.
    bool hangup = false;
  };

  static Result<std::unique_ptr<EventLoop>> Create();

  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` with the given interest set; `tag` is returned in
  /// events for it (must be non-null and unique per fd). A `one_shot` fd
  /// disarms after each reported event.
  Status Add(int fd, bool want_read, bool want_write, void* tag,
             bool one_shot = false);

  /// Changes the interest set of a registered fd, and re-arms a one-shot
  /// fd. Both false parks a level-triggered fd (stays registered, reports
  /// nothing but hangups).
  Status Update(int fd, bool want_read, bool want_write);

  /// Deregisters `fd` (does not close it).
  Status Remove(int fd);

  /// Blocks up to `timeout_ms` (-1 = forever) and appends at most
  /// `max_events` ready events to `out` (cleared first). Returns the
  /// number of events. Wake-ups drain the self-pipe internally and report
  /// zero events.
  Result<size_t> Wait(int timeout_ms, std::vector<Event>* out,
                      size_t max_events = 128);

  /// Interrupts a concurrent `Wait`. Async-signal unsafe.
  void Wake();

  /// "epoll" or "poll".
  const char* backend() const;

  size_t watched_fds() const;

 private:
  struct Interest {
    void* tag;
    bool want_read;
    bool want_write;
    bool one_shot;
    /// A one-shot fd between its reported event and its re-arm.
    bool disarmed;
  };

  EventLoop(int epoll_fd, int wake_read_fd, int wake_write_fd);

  Status Control(int op, int fd, const Interest& interest);
  Result<size_t> PollWait(int timeout_ms, std::vector<Event>* out,
                          size_t max_events);
  void DrainWake();

  int epoll_fd_;  // -1 = poll backend
  int wake_read_fd_;
  int wake_write_fd_;
  mutable std::mutex mu_;  // guards interest_ and polling_
  std::unordered_map<int, Interest> interest_;
  // Poll backend: one leader polls at a time (`polling_`), the others wait
  // their turn; interest changes made while it polls wake it so its next
  // round sees them.
  bool polling_ = false;
  std::condition_variable poll_turn_;
};

}  // namespace net
}  // namespace tilestore

#endif  // TILESTORE_NET_EVENT_LOOP_H_
