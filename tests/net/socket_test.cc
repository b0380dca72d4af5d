// The vectored send that carries every frame: a header and a payload go
// out of one `sendmsg` without being joined, and a partial write resumes
// at any byte offset of the pair, inside the 28-byte header included.

#include "net/socket.h"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <chrono>
#include <thread>
#include <vector>

#include "common/random.h"
#include "net/wire.h"

namespace tilestore {
namespace net {
namespace {

// A connected non-blocking stream pair with the smallest send and receive
// buffers the kernel allows.
void MakeSmallPair(Socket* writer, Socket* reader) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
  int one = 1;
  ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &one, sizeof(one)),
            0);
  ASSERT_EQ(::setsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &one, sizeof(one)),
            0);
  *writer = Socket(fds[0]);
  *reader = Socket(fds[1]);
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Random rng(seed);
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng.Next());
  return out;
}

// Reads until `n` bytes arrived, sleeping `pause` between reads of at most
// `chunk` bytes.
std::vector<uint8_t> Drain(Socket* reader, size_t n, size_t chunk,
                           std::chrono::microseconds pause) {
  std::vector<uint8_t> got;
  std::vector<uint8_t> buf(chunk);
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(20);
  while (got.size() < n && std::chrono::steady_clock::now() < give_up) {
    Result<size_t> r = reader->RecvSome(buf.data(), buf.size());
    if (!r.ok()) break;
    got.insert(got.end(), buf.begin(), buf.begin() + *r);
    if (*r == 0 || pause.count() > 0) std::this_thread::sleep_for(pause);
  }
  return got;
}

// Sends head + body from `offset` to the end, waiting for writability;
// returns the offsets at which each write ended.
std::vector<size_t> SendFrom(Socket* writer, std::span<const uint8_t> head,
                             std::span<const uint8_t> body, size_t offset) {
  std::vector<size_t> ends;
  const size_t total = head.size() + body.size();
  while (offset < total) {
    struct pollfd pfd = {writer->fd(), POLLOUT, 0};
    if (::poll(&pfd, 1, 5000) <= 0) break;
    Result<size_t> put = writer->SendSome(head, body, offset);
    if (!put.ok()) break;
    offset += *put;
    if (*put > 0) ends.push_back(offset);
  }
  return ends;
}

TEST(SocketVectoredSend, ResumesAtEveryOffset) {
  const std::vector<uint8_t> payload = RandomBytes(100, 1);
  uint8_t header[kHeaderBytes];
  EncodeFrameHeader(WireOp::kRangeQuery, /*response=*/true, 9, payload,
                    header);
  std::vector<uint8_t> frame(header, header + kHeaderBytes);
  frame.insert(frame.end(), payload.begin(), payload.end());

  for (size_t cut = 0; cut <= frame.size(); ++cut) {
    Socket writer, reader;
    MakeSmallPair(&writer, &reader);
    // A first write that stopped `cut` bytes in, then the resume.
    std::span<const uint8_t> head(header, kHeaderBytes);
    if (cut <= kHeaderBytes) {
      SendFrom(&writer, head.first(cut), {}, 0);
    } else {
      SendFrom(&writer, head, std::span(payload).first(cut - kHeaderBytes),
               0);
    }
    SendFrom(&writer, head, payload, cut);
    EXPECT_EQ(writer.SendSome(head, payload, frame.size()).value(), 0u);
    writer.Close();
    EXPECT_EQ(Drain(&reader, frame.size() + 1, 4096,
                    std::chrono::microseconds(0)),
              frame)
        << "first write ended at byte " << cut;
  }
}

TEST(SocketVectoredSend, SlowReaderGetsTheFrameByteIdentical) {
  const std::vector<uint8_t> payload = RandomBytes(256 << 10, 2);
  uint8_t header[kHeaderBytes];
  EncodeFrameHeader(WireOp::kRangeQuery, /*response=*/true, 11, payload,
                    header);
  std::vector<uint8_t> frame(header, header + kHeaderBytes);
  frame.insert(frame.end(), payload.begin(), payload.end());

  Socket writer, reader;
  MakeSmallPair(&writer, &reader);
  std::vector<size_t> ends;
  std::thread send([&] {
    ends = SendFrom(&writer, std::span<const uint8_t>(header, kHeaderBytes),
                    payload, 0);
  });
  const std::vector<uint8_t> got =
      Drain(&reader, frame.size(), 997, std::chrono::microseconds(50));
  send.join();
  EXPECT_EQ(got, frame);
  ASSERT_FALSE(ends.empty());
  EXPECT_EQ(ends.back(), frame.size());
  // The payload is larger than the buffers, so the frame left in several
  // partial writes, each resumed where the last one stopped.
  EXPECT_GT(ends.size(), 1u);

  // The blocking form writes the same bytes.
  Socket writer2, reader2;
  MakeSmallPair(&writer2, &reader2);
  Status sent;
  std::thread send2([&] {
    sent = writer2.SendAll(std::span<const uint8_t>(header, kHeaderBytes),
                           payload, DeadlineAfterMs(20000));
  });
  const std::vector<uint8_t> got2 =
      Drain(&reader2, frame.size(), 997, std::chrono::microseconds(50));
  send2.join();
  EXPECT_TRUE(sent.ok()) << sent.ToString();
  EXPECT_EQ(got2, frame);
}

}  // namespace
}  // namespace net
}  // namespace tilestore
