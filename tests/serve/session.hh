/**
 * @file
 * Client-side helpers for driving a SessionMux in tests: blocking
 * framed writes and reads on a test's own fds, and one whole
 * session served start to finish.
 */

#ifndef TTS_TESTS_SERVE_SESSION_HH
#define TTS_TESTS_SERVE_SESSION_HH

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "serve/daemon.hh"
#include "serve/mux.hh"
#include "serve/protocol.hh"
#include "util/error.hh"

namespace tts {
namespace servetest {

using namespace tts::serve;

/** Reply frames may exceed the request limits; read them whole. */
inline FrameLimits
replyLimits()
{
    FrameLimits limits;
    limits.maxPayloadBytes = 1u << 20;
    return limits;
}

/**
 * Blocking write of `bytes` to `fd`.  @return False once the reader
 * is gone (a test process ignores SIGPIPE, see serveWire()).
 */
inline bool
writeAll(int fd, const std::string &bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/** Blocking full write of one framed payload to `fd`. */
inline void
sendFrame(int fd, const std::string &payload)
{
    ASSERT_TRUE(writeAll(fd, encodeFrame(payload)))
        << std::strerror(errno);
}

/**
 * Blocking write of one framed payload to `fd` the way a slow client
 * sends it: the frame header, a stall of `stall_ms`, then the
 * payload.
 */
inline void
sendFrameStalled(int fd, const std::string &payload, double stall_ms)
{
    const std::string frame = encodeFrame(payload);
    const std::size_t header = frame.size() - payload.size();
    ASSERT_TRUE(writeAll(fd, frame.substr(0, header)))
        << std::strerror(errno);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(stall_ms));
    ASSERT_TRUE(writeAll(fd, frame.substr(header)))
        << std::strerror(errno);
}

/**
 * Blocking read of one reply frame from `fd`.  Reads a byte at a
 * time so nothing past the frame is consumed.
 *
 * @throws Error when the stream ends first or the frame is bad.
 */
inline Reply
recvReply(int fd)
{
    FrameDecoder decoder(replyLimits());
    FrameResult frame;
    char c = 0;
    while (!decoder.next(&frame)) {
        if (::read(fd, &c, 1) != 1)
            throw Error("reply stream ended early");
        decoder.feed(&c, 1);
    }
    if (frame.status != FrameStatus::Ok)
        throw Error("bad reply frame: " + frame.diagnostic);
    return Reply::fromJson(frame.payload);
}

/** What one session served by serveWire() answered. */
struct SessionRun
{
    /** Every reply, in the order the session wrote them. */
    std::vector<Reply> replies;
    /** The reply stream's end: Eof when it closed on a frame
     *  boundary. */
    FrameResult tail;
    MuxStats stats;
};

/**
 * Serve `wire` as one session of a fresh SessionMux on `daemon`,
 * reading replies until the mux closes the session.  By default the
 * session reads one pipe and writes another, the shape of
 * `tts_serve stdio`; with `socket` it is one end of a socketpair.
 * The whole wire is written, then the request side is closed.
 */
inline SessionRun
serveWire(Daemon &daemon, MuxOptions options, const std::string &wire,
          bool socket = false)
{
    // A session that ends early closes its read side under the
    // writer below; that must be a failed write, not a signal.
    std::signal(SIGPIPE, SIG_IGN);
    int requests[2];
    int replies[2];
    if (socket) {
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, requests), 0);
        replies[0] = requests[1];
        replies[1] = requests[0];
    } else {
        EXPECT_EQ(::pipe(requests), 0);
        EXPECT_EQ(::pipe(replies), 0);
    }
    options.exitAfterSessions = 1;
    SessionMux mux(daemon, options);
    mux.adopt(requests[0], replies[1]);
    std::thread loop([&mux] { mux.run(); });
    std::thread writer([&] {
        writeAll(requests[1], wire);
        if (socket)
            ::shutdown(requests[1], SHUT_WR);
        else
            ::close(requests[1]);
    });

    SessionRun run;
    FrameDecoder decoder(replyLimits());
    char buf[4096];
    for (;;) {
        FrameResult frame;
        while (decoder.next(&frame)) {
            if (frame.status != FrameStatus::Ok) {
                ADD_FAILURE() << "bad reply frame: "
                              << frame.diagnostic;
                break;
            }
            run.replies.push_back(Reply::fromJson(frame.payload));
        }
        const ssize_t n = ::read(replies[0], buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        decoder.feed(buf, static_cast<std::size_t>(n));
    }
    run.tail = decoder.finish();
    writer.join();
    loop.join();
    run.stats = mux.stats();
    ::close(replies[0]);
    return run;
}

} // namespace servetest
} // namespace tts

#endif // TTS_TESTS_SERVE_SESSION_HH
