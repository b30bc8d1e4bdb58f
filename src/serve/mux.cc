#include "serve/mux.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <mutex>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/obs.hh"
#include "util/error.hh"

namespace tts {
namespace serve {

namespace {

/** Cached `serve.mux.*` instrument references. */
struct Metrics
{
    obs::Counter &sessions =
        obs::registry().counter("serve.mux.sessions");
    obs::Counter &replies =
        obs::registry().counter("serve.mux.replies");
    obs::Counter &discarded =
        obs::registry().counter("serve.mux.discarded");
};

Metrics &
metrics()
{
    static Metrics m;
    return m;
}

void
setNonblocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    require(flags >= 0 &&
                ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
            "mux: fcntl(O_NONBLOCK) failed: " +
                std::string(std::strerror(errno)));
}

} // namespace

std::map<std::string, double>
MuxStats::toMap() const
{
    return {
        {"mux.sessions_accepted",
         static_cast<double>(sessionsAccepted)},
        {"mux.sessions_closed", static_cast<double>(sessionsClosed)},
        {"mux.sessions_refused",
         static_cast<double>(sessionsRefused)},
        {"mux.frames_ok", static_cast<double>(framesOk)},
        {"mux.frames_malformed",
         static_cast<double>(framesMalformed)},
        {"mux.replies_written", static_cast<double>(repliesWritten)},
        {"mux.replies_discarded",
         static_cast<double>(repliesDiscarded)},
        {"mux.peak_sessions", static_cast<double>(peakSessions)},
    };
}

/**
 * One connected client.  Mutated only by the poll loop; daemon
 * workers reach it exclusively through Shared's completion queue.
 */
struct SessionMux::Session
{
    int fd = -1;
    FrameDecoder decoder;
    /** In-order reply slots; front is the next to write. */
    struct Slot
    {
        bool ready = false;
        std::string payload;
    };
    std::deque<Slot> slots;
    /** Session-local sequence of slots.front() (slot i lives at
     *  deque index seq - baseSeq). */
    std::uint64_t baseSeq = 0;
    std::uint64_t nextSeq = 0;
    /** Bytes framed for this client but not yet written. */
    std::string writeBuf;
    std::size_t writePos = 0;
    /** EOF or unrecoverable frame: no more reads, drain and close. */
    bool readClosed = false;
    /** fd gone (disconnect / write error): discard completions. */
    bool dead = false;

    explicit Session(FrameLimits limits) : decoder(limits) {}

    std::size_t outstanding() const { return slots.size(); }
    bool wantsWrite() const { return writePos < writeBuf.size(); }
};

/**
 * State shared with daemon-worker callbacks (and adopt()/stop()
 * callers).  Holds the self-pipe; kept alive by shared_ptr so a
 * callback completing after the mux died still has somewhere safe
 * to land.
 */
struct SessionMux::Shared
{
    std::mutex mu;
    struct Completion
    {
        std::shared_ptr<Session> session;
        std::uint64_t seq = 0;
        std::string payload;
    };
    std::vector<Completion> completions;
    std::vector<int> adopted;
    bool stopRequested = false;
    /** The mux is gone; completions are silently dropped. */
    bool closed = false;
    int wakeRead = -1;
    int wakeWrite = -1;

    Shared()
    {
        int fds[2];
        require(::pipe(fds) == 0,
                "mux: self-pipe creation failed: " +
                    std::string(std::strerror(errno)));
        wakeRead = fds[0];
        wakeWrite = fds[1];
        setNonblocking(wakeRead);
        setNonblocking(wakeWrite);
    }

    ~Shared()
    {
        ::close(wakeRead);
        ::close(wakeWrite);
    }

    /** Nudge the poll loop (a full pipe is fine: the loop drains
     *  the queue, not the pipe bytes, one-to-one). */
    void wake()
    {
        const char b = 0;
        ssize_t rc = ::write(wakeWrite, &b, 1);
        (void)rc;
    }

    void post(Completion c)
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            if (closed)
                return;
            completions.push_back(std::move(c));
        }
        wake();
    }
};

SessionMux::SessionMux(Daemon &daemon, MuxOptions options)
    : daemon_(daemon), options_(options),
      shared_(std::make_shared<Shared>())
{
    require(options_.maxSessions >= 1,
            "mux: maxSessions must be >= 1");
    window_ = options_.pipelineWindow != 0
        ? options_.pipelineWindow
        : daemon_.config().queueCapacity;
    if (window_ == 0)
        window_ = 1;
}

SessionMux::~SessionMux()
{
    {
        std::lock_guard<std::mutex> lock(shared_->mu);
        shared_->closed = true;
        for (int fd : shared_->adopted)
            ::close(fd);
        shared_->adopted.clear();
    }
    for (const auto &s : sessions_) {
        if (s->fd >= 0)
            ::close(s->fd);
        s->dead = true;
    }
    if (listenFd_ >= 0)
        ::close(listenFd_);
    if (!listenPath_.empty())
        ::unlink(listenPath_.c_str());
}

void
SessionMux::listenUnix(const std::string &path)
{
    require(listenFd_ < 0, "mux: already listening");
    sockaddr_un addr{};
    require(path.size() < sizeof(addr.sun_path),
            "mux: socket path too long: " + path);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    require(fd >= 0, "mux: socket() failed: " +
                         std::string(std::strerror(errno)));
    ::unlink(path.c_str()); // A stale socket from a previous run.
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        const std::string why = std::strerror(errno);
        ::close(fd);
        fatal("mux: bind(" + path + ") failed: " + why);
    }
    if (::listen(fd, 64) != 0) {
        const std::string why = std::strerror(errno);
        ::close(fd);
        fatal("mux: listen(" + path + ") failed: " + why);
    }
    setNonblocking(fd);
    listenFd_ = fd;
    listenPath_ = path;
}

void
SessionMux::adopt(int fd)
{
    {
        std::lock_guard<std::mutex> lock(shared_->mu);
        if (!shared_->closed) {
            shared_->adopted.push_back(fd);
            fd = -1;
        }
    }
    if (fd >= 0) {
        ::close(fd); // The mux is gone; refuse quietly.
        return;
    }
    shared_->wake();
}

void
SessionMux::stop()
{
    {
        std::lock_guard<std::mutex> lock(shared_->mu);
        shared_->stopRequested = true;
    }
    shared_->wake();
}

MuxStats
SessionMux::stats() const
{
    std::lock_guard<std::mutex> lock(shared_->mu);
    return stats_;
}

std::shared_ptr<SessionMux::Session>
SessionMux::addSession(int fd)
{
    setNonblocking(fd);
    auto s = std::make_shared<Session>(options_.limits);
    s->fd = fd;
    sessions_.push_back(s);
    {
        std::lock_guard<std::mutex> lock(shared_->mu);
        ++stats_.sessionsAccepted;
        stats_.peakSessions = std::max(
            stats_.peakSessions,
            static_cast<std::uint64_t>(sessions_.size()));
    }
    TTS_OBS_COUNT(metrics().sessions, 1);
    return s;
}

void
SessionMux::acceptReady()
{
    for (;;) {
        if (sessions_.size() >= options_.maxSessions)
            return;
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN or a transient accept error: poll on.
        }
        addSession(fd);
    }
}

void
SessionMux::reserveErrorSlot(const std::shared_ptr<Session> &s,
                             const FrameResult &frame)
{
    Session::Slot slot;
    slot.ready = true;
    slot.payload =
        Reply::errorReply(ErrorKind::Malformed, frame.diagnostic)
            .toJson();
    s->slots.push_back(std::move(slot));
    ++s->nextSeq;
    std::lock_guard<std::mutex> lock(shared_->mu);
    ++stats_.framesMalformed;
}

void
SessionMux::dispatchFrame(const std::shared_ptr<Session> &s,
                          FrameResult frame)
{
    const std::uint64_t seq = s->nextSeq++;
    s->slots.emplace_back(); // Reserve the ordered reply slot now.
    {
        std::lock_guard<std::mutex> lock(shared_->mu);
        ++stats_.framesOk;
    }
    std::shared_ptr<Shared> shared = shared_;
    daemon_.submitAsync(
        std::move(frame.payload),
        [shared, s, seq](Reply reply) {
            Shared::Completion c;
            c.session = s;
            c.seq = seq;
            c.payload = reply.toJson();
            shared->post(std::move(c));
        });
}

void
SessionMux::readSession(const std::shared_ptr<Session> &s)
{
    if (s->readClosed || s->dead)
        return; // A lingering POLLHUP after EOF must not re-finish.
    char buf[64 * 1024];
    for (;;) {
        const ssize_t n = ::read(s->fd, buf, sizeof(buf));
        if (n > 0) {
            s->decoder.feed(buf, static_cast<std::size_t>(n));
            break; // One chunk per poll round keeps sessions fair.
        }
        if (n == 0) {
            s->readClosed = true;
            FrameResult tail = s->decoder.finish();
            if (tail.status == FrameStatus::Malformed)
                reserveErrorSlot(s, tail);
            break;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        // Hard read error: the client is gone.  In-flight
        // evaluations still complete; their replies are discarded.
        s->readClosed = true;
        s->dead = true;
        break;
    }
    FrameResult frame;
    while (!s->readClosed && s->decoder.next(&frame)) {
        if (frame.status == FrameStatus::Malformed) {
            reserveErrorSlot(s, frame);
            if (!frame.recoverable)
                s->readClosed = true;
        } else {
            dispatchFrame(s, std::move(frame));
        }
    }
}

void
SessionMux::flushSession(const std::shared_ptr<Session> &s)
{
    if (s->dead || s->fd < 0)
        return;
    // Frame every ready reply at the front of the slot queue.
    while (!s->slots.empty() && s->slots.front().ready) {
        s->writeBuf += encodeFrame(s->slots.front().payload);
        s->slots.pop_front();
        ++s->baseSeq;
        {
            std::lock_guard<std::mutex> lock(shared_->mu);
            ++stats_.repliesWritten;
        }
        TTS_OBS_COUNT(metrics().replies, 1);
    }
    // Push bytes until the socket pushes back.  MSG_NOSIGNAL: a
    // peer that hung up must surface as EPIPE here, not SIGPIPE.
    while (s->wantsWrite()) {
        const ssize_t n =
            ::send(s->fd, s->writeBuf.data() + s->writePos,
                   s->writeBuf.size() - s->writePos, MSG_NOSIGNAL);
        if (n > 0) {
            s->writePos += static_cast<std::size_t>(n);
            continue;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return; // Slow client: poll for POLLOUT, serve others.
        s->dead = true; // EPIPE/ECONNRESET: client vanished.
        return;
    }
    s->writeBuf.clear();
    s->writePos = 0;
}

void
SessionMux::closeSession(const std::shared_ptr<Session> &s)
{
    if (s->fd >= 0) {
        ::close(s->fd);
        s->fd = -1;
    }
    s->dead = true;
    sessions_.erase(
        std::remove(sessions_.begin(), sessions_.end(), s),
        sessions_.end());
    std::lock_guard<std::mutex> lock(shared_->mu);
    ++stats_.sessionsClosed;
}

void
SessionMux::drainWake()
{
    char buf[256];
    while (::read(shared_->wakeRead, buf, sizeof(buf)) > 0) {
    }
    std::vector<Shared::Completion> completions;
    std::vector<int> adopted;
    {
        std::lock_guard<std::mutex> lock(shared_->mu);
        completions.swap(shared_->completions);
        adopted.swap(shared_->adopted);
    }
    for (int fd : adopted) {
        if (sessions_.size() >= options_.maxSessions) {
            ::close(fd);
            std::lock_guard<std::mutex> lock(shared_->mu);
            ++stats_.sessionsRefused;
            continue;
        }
        addSession(fd);
    }
    for (Shared::Completion &c : completions) {
        Session &s = *c.session;
        if (s.dead) {
            {
                std::lock_guard<std::mutex> lock(shared_->mu);
                ++stats_.repliesDiscarded;
            }
            TTS_OBS_COUNT(metrics().discarded, 1);
            continue;
        }
        invariant(c.seq >= s.baseSeq &&
                      c.seq - s.baseSeq < s.slots.size(),
                  "mux: completion for an unreserved reply slot");
        Session::Slot &slot =
            s.slots[static_cast<std::size_t>(c.seq - s.baseSeq)];
        slot.payload = std::move(c.payload);
        slot.ready = true;
    }
}

void
SessionMux::run()
{
    std::vector<pollfd> fds;
    // Poll-index bookkeeping: rebuilt every round, parallel with
    // `polled` so revents map back to sessions.
    std::vector<std::shared_ptr<Session>> polled;
    for (;;) {
        {
            std::lock_guard<std::mutex> lock(shared_->mu);
            if (shared_->stopRequested)
                return;
            if (options_.exitAfterSessions > 0 &&
                stats_.sessionsClosed >= options_.exitAfterSessions)
                return;
        }

        fds.clear();
        polled.clear();
        fds.push_back(
            pollfd{shared_->wakeRead, POLLIN, 0});
        const bool canAccept = listenFd_ >= 0 &&
            sessions_.size() < options_.maxSessions;
        if (canAccept)
            fds.push_back(pollfd{listenFd_, POLLIN, 0});
        for (const auto &s : sessions_) {
            short events = 0;
            if (!s->readClosed && s->outstanding() < window_)
                events |= POLLIN;
            if (s->wantsWrite())
                events |= POLLOUT;
            // A drained, read-closed session closes below; a
            // window-full session waits on completions only.
            fds.push_back(pollfd{s->fd, events, 0});
            polled.push_back(s);
        }

        const int rc = ::poll(fds.data(),
                              static_cast<nfds_t>(fds.size()), -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            fatal("mux: poll() failed: " +
                  std::string(std::strerror(errno)));
        }

        std::size_t idx = 0;
        if (fds[idx++].revents & POLLIN)
            drainWake();
        if (canAccept) {
            if (fds[idx].revents & POLLIN)
                acceptReady();
            ++idx;
        }
        for (std::size_t i = 0; i < polled.size(); ++i) {
            const std::shared_ptr<Session> &s = polled[i];
            const short got = fds[idx + i].revents;
            if (got & (POLLIN | POLLHUP | POLLERR))
                readSession(s);
            flushSession(s);
        }

        // Sweep: close drained or dead sessions.  Dead sessions
        // may still have evaluations in flight - those complete
        // against the shared cache and are discarded on arrival.
        std::vector<std::shared_ptr<Session>> doomed;
        for (const auto &s : sessions_)
            if (s->dead ||
                (s->readClosed && s->slots.empty() &&
                 !s->wantsWrite()))
                doomed.push_back(s);
        for (const auto &s : doomed)
            closeSession(s);
    }
}

} // namespace serve
} // namespace tts
