/**
 * @file
 * The session loop of the scenario daemon: every framed session,
 * socket or stdio, runs here.
 *
 * SessionMux is one poll() loop that accepts connections on a Unix
 * socket (or adopts already-connected fds: stdin/stdout, or a test's
 * socketpair), feeds each session's bytes through a FrameDecoder,
 * and dispatches decoded requests to the shared Daemon with
 * submitAsync().  Worker callbacks post completed replies to the
 * loop through a self-pipe, so the loop never blocks on evaluation
 * and a slow evaluation never blocks the loop.
 *
 * Ordering and isolation invariants:
 *
 *  - Replies within one session go out in request order, always -
 *    each accepted frame reserves an ordered reply slot at decode
 *    time and the writer only drains ready slots from the front.
 *  - A slow *client* cannot head-of-line-block other sessions:
 *    writes are nonblocking and buffer per session; the loop moves
 *    on the instant a socket stops accepting bytes.
 *  - A slow or disconnected client cannot poison the daemon: its
 *    in-flight evaluations complete normally (warming the shared
 *    cache) and their replies are counted as discarded, never
 *    delivered to a dead fd.
 *  - The pipeline window bounds requests, not reads: a session has
 *    at most pipelineWindow requests outstanding, and a request is
 *    outstanding until its reply is written.  Frames past the
 *    window wait in its decoder and are dispatched as replies go
 *    out; its fd is read only when the decoder holds no complete
 *    frame.  So one client pipelining thousands of frames in one
 *    write cannot overrun the admission queue, and a client that
 *    stops reading holds its session to one window of replies.
 *
 * Pipe sessions: a session may read one fd and write another.
 * Writes go through send(MSG_NOSIGNAL), so a vanished socket peer
 * is an EPIPE return; a pipe is not a socket and gets write(), which
 * raises SIGPIPE when its reader is gone.  A process that serves
 * pipes must therefore ignore SIGPIPE (tts_serve does at startup);
 * the failed write then marks the session dead like a vanished
 * socket peer.  The mux sets O_NONBLOCK on every session fd and
 * puts the original file-status flags back before closing it, so
 * an adopted stdin/stdout is not left nonblocking for the processes
 * that share it.
 *
 * Thread model: run() owns every Session; daemon workers only touch
 * the completion queue (mutex + self-pipe).  stop() and adopt() are
 * safe to call from any thread.
 */

#ifndef TTS_SERVE_MUX_HH
#define TTS_SERVE_MUX_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/daemon.hh"
#include "serve/protocol.hh"

namespace tts {
namespace serve {

/** Session-mux sizing knobs. */
struct MuxOptions
{
    /** Frame limits applied to every session's requests. */
    FrameLimits limits;
    /** Concurrent sessions served; the accept loop simply stops
     *  accepting at capacity (the listen backlog queues), and
     *  adopt() past it refuses the fd. */
    std::size_t maxSessions = 64;
    /** Requests outstanding (dispatched, reply not yet written)
     *  per session; later frames wait in the session's decoder.
     *  0 = the daemon's queue capacity. */
    std::size_t pipelineWindow = 0;
    /** run() returns once this many sessions have fully closed;
     *  0 = run until stop(). */
    std::size_t exitAfterSessions = 0;
};

/** Monotonic counters describing one mux's lifetime. */
struct MuxStats
{
    std::uint64_t sessionsAccepted = 0;
    std::uint64_t sessionsClosed = 0;
    std::uint64_t sessionsRefused = 0;
    std::uint64_t framesOk = 0;
    std::uint64_t framesMalformed = 0;
    std::uint64_t repliesWritten = 0;
    /** Replies never delivered because their client vanished. */
    std::uint64_t repliesDiscarded = 0;
    std::uint64_t peakSessions = 0;

    /** @return Every counter as a flat kv map (for kv_json). */
    std::map<std::string, double> toMap() const;
};

class SessionMux
{
  public:
    /**
     * @param daemon  The shared evaluation daemon (not owned; must
     *        outlive the mux).
     * @param options Sizing knobs.
     */
    SessionMux(Daemon &daemon, MuxOptions options);

    /** Closes the listen socket and every live session fd. */
    ~SessionMux();

    SessionMux(const SessionMux &) = delete;
    SessionMux &operator=(const SessionMux &) = delete;

    /**
     * Bind and listen on a Unix-domain socket.  An existing file at
     * `path` is unlinked first (a stale socket from a previous run),
     * and the path is unlinked again on destruction.
     *
     * @throws FatalError on socket/bind/listen failure.
     */
    void listenUnix(const std::string &path);

    /**
     * Adopt an already-connected stream as a session that reads
     * `read_fd` and writes `write_fd` (stdin and stdout, or the two
     * ends of a test's pipes).  Safe from any thread; both fds are
     * owned by the mux from here on.  Refused (fds closed, counted)
     * past maxSessions.
     */
    void adopt(int read_fd, int write_fd);

    /** Adopt a connected socket, read and written on one fd. */
    void adopt(int fd) { adopt(fd, fd); }

    /**
     * Serve until stop() or until exitAfterSessions sessions have
     * closed.  Runs the poll loop on the calling thread.
     */
    void run();

    /** Make run() return promptly.  Safe from any thread. */
    void stop();

    /** @return A snapshot of the lifetime counters. */
    MuxStats stats() const;

    const MuxOptions &options() const { return options_; }

  private:
    struct Session;
    struct Shared;

    void acceptReady();
    void drainWake();
    void addSession(int read_fd, int write_fd);
    void readSession(Session &s);
    void pumpSession(const std::shared_ptr<Session> &s);
    void dispatchFrame(const std::shared_ptr<Session> &s,
                       FrameResult frame);
    void reserveErrorSlot(Session &s, const FrameResult &frame);
    void flushSession(Session &s);
    void closeSession(const std::shared_ptr<Session> &s);

    Daemon &daemon_;
    MuxOptions options_;
    std::size_t window_ = 1;
    std::shared_ptr<Shared> shared_;
    int listenFd_ = -1;
    std::string listenPath_;
    std::vector<std::shared_ptr<Session>> sessions_;
    MuxStats stats_;
};

} // namespace serve
} // namespace tts

#endif // TTS_SERVE_MUX_HH
