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

/** Set O_NONBLOCK on `fd`. @return Its file-status flags before. */
int
setNonblocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    require(flags >= 0 &&
                ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
            "mux: fcntl(O_NONBLOCK) failed: " +
                std::string(std::strerror(errno)));
    return flags;
}

void
closeFds(int read_fd, int write_fd)
{
    ::close(read_fd);
    if (write_fd != read_fd)
        ::close(write_fd);
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
    int readFd = -1;
    int writeFd = -1;
    /** File-status flags of each fd before the mux set O_NONBLOCK. */
    int readFlags = 0;
    int writeFlags = 0;
    /** send() said ENOTSOCK: the write fd is a pipe; use write(). */
    bool pipeOut = false;
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
    /** Replies framed into writeBuf since it was last empty. */
    std::uint64_t unsentReplies = 0;
    /** read() returned EOF or an error: the fd is read no more. */
    bool inputEnded = false;
    /** No more frames are taken (the decoder is spent, or a frame
     *  was unrecoverable): drain and close. */
    bool readClosed = false;
    /** fd gone (disconnect / write error): discard completions. */
    bool dead = false;

    explicit Session(FrameLimits limits) : decoder(limits) {}

    /** Requests not yet answered on the wire: reserved slots plus
     *  replies framed but not fully written.  Counting the latter
     *  holds a client that stops reading to one window of replies. */
    std::size_t outstanding() const
    {
        return slots.size() + static_cast<std::size_t>(unsentReplies);
    }
    bool wantsWrite() const { return writePos < writeBuf.size(); }

    /** Put back each fd's flags, then close it.  The write fd goes
     *  first: when both fds share one open file (a terminal on
     *  stdin and stdout), the read fd saved the true originals. */
    void release()
    {
        if (readFd < 0)
            return;
        if (writeFd != readFd)
            ::fcntl(writeFd, F_SETFL, writeFlags);
        ::fcntl(readFd, F_SETFL, readFlags);
        closeFds(readFd, writeFd);
        readFd = writeFd = -1;
    }
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
    /** (read fd, write fd) pairs waiting for the loop. */
    std::vector<std::pair<int, int>> adopted;
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
        for (const auto &fds : shared_->adopted)
            closeFds(fds.first, fds.second);
        shared_->adopted.clear();
    }
    for (const auto &s : sessions_) {
        s->release();
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
SessionMux::adopt(int read_fd, int write_fd)
{
    bool queued = false;
    {
        std::lock_guard<std::mutex> lock(shared_->mu);
        if (!shared_->closed) {
            shared_->adopted.emplace_back(read_fd, write_fd);
            queued = true;
        }
    }
    if (!queued) {
        closeFds(read_fd, write_fd); // The mux is gone; refuse quietly.
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

void
SessionMux::addSession(int read_fd, int write_fd)
{
    auto s = std::make_shared<Session>(options_.limits);
    s->readFd = read_fd;
    s->writeFd = write_fd;
    s->readFlags = setNonblocking(read_fd);
    if (write_fd != read_fd)
        s->writeFlags = setNonblocking(write_fd);
    sessions_.push_back(s);
    {
        std::lock_guard<std::mutex> lock(shared_->mu);
        ++stats_.sessionsAccepted;
        stats_.peakSessions = std::max(
            stats_.peakSessions,
            static_cast<std::uint64_t>(sessions_.size()));
    }
    TTS_OBS_COUNT(metrics().sessions, 1);
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
        addSession(fd, fd);
    }
}

void
SessionMux::reserveErrorSlot(Session &s, const FrameResult &frame)
{
    Session::Slot slot;
    slot.ready = true;
    slot.payload =
        Reply::errorReply(ErrorKind::Malformed, frame.diagnostic)
            .toJson();
    s.slots.push_back(std::move(slot));
    ++s.nextSeq;
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
SessionMux::readSession(Session &s)
{
    char buf[64 * 1024];
    for (;;) {
        const ssize_t n = ::read(s.readFd, buf, sizeof(buf));
        if (n > 0) {
            s.decoder.feed(buf, static_cast<std::size_t>(n));
            return; // One chunk per poll round keeps sessions fair.
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return;
        s.inputEnded = true;
        // A hard read error means the client is gone.  In-flight
        // evaluations still complete; their replies are discarded.
        if (n < 0)
            s.dead = true;
        return;
    }
}

void
SessionMux::pumpSession(const std::shared_ptr<Session> &s)
{
    for (;;) {
        // Frame every ready reply at the front of the slot queue and
        // write before taking more: a client that is gone is found
        // dead here, not after the window refilled.
        while (!s->dead && !s->slots.empty() &&
               s->slots.front().ready) {
            s->writeBuf += encodeFrame(s->slots.front().payload);
            s->slots.pop_front();
            ++s->baseSeq;
            ++s->unsentReplies;
        }
        flushSession(*s);
        if (s->dead || s->readClosed || s->outstanding() >= window_)
            return;
        // The window has room: take the next buffered frame.
        FrameResult frame;
        if (!s->decoder.next(&frame)) {
            if (!s->inputEnded)
                return; // The decoder needs bytes: poll for them.
            // EOF, and no complete frame is left to dispatch.
            frame = s->decoder.finish();
            s->readClosed = true;
            if (frame.status == FrameStatus::Eof)
                return;
        }
        if (frame.status == FrameStatus::Ok) {
            dispatchFrame(s, std::move(frame));
        } else {
            reserveErrorSlot(*s, frame);
            if (!frame.recoverable)
                s->readClosed = true;
        }
    }
}

void
SessionMux::flushSession(Session &s)
{
    // Push bytes until the fd pushes back.  MSG_NOSIGNAL: a socket
    // peer that hung up must surface as EPIPE here, not SIGPIPE.  A
    // pipe is no socket; it gets write() (see mux.hh on SIGPIPE).
    while (!s.dead && s.wantsWrite()) {
        const char *data = s.writeBuf.data() + s.writePos;
        const std::size_t len = s.writeBuf.size() - s.writePos;
        const ssize_t n = s.pipeOut
            ? ::write(s.writeFd, data, len)
            : ::send(s.writeFd, data, len, MSG_NOSIGNAL);
        if (n > 0) {
            s.writePos += static_cast<std::size_t>(n);
            continue;
        }
        if (errno == ENOTSOCK && !s.pipeOut) {
            s.pipeOut = true;
            continue;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return; // Slow client: poll for POLLOUT, serve others.
        s.dead = true; // EPIPE/ECONNRESET: client vanished.
    }
    if (s.dead || s.unsentReplies == 0)
        return;
    s.writeBuf.clear();
    s.writePos = 0;
    {
        std::lock_guard<std::mutex> lock(shared_->mu);
        stats_.repliesWritten += s.unsentReplies;
    }
    TTS_OBS_COUNT(metrics().replies, s.unsentReplies);
    s.unsentReplies = 0;
}

void
SessionMux::closeSession(const std::shared_ptr<Session> &s)
{
    s->release();
    // A dead session's replies are never delivered: those framed
    // but unsent, and every slot still queued.
    const std::uint64_t discarded =
        s->dead ? s->unsentReplies + s->slots.size() : 0;
    s->dead = true;
    sessions_.erase(
        std::remove(sessions_.begin(), sessions_.end(), s),
        sessions_.end());
    {
        std::lock_guard<std::mutex> lock(shared_->mu);
        ++stats_.sessionsClosed;
        stats_.repliesDiscarded += discarded;
    }
    TTS_OBS_COUNT(metrics().discarded, discarded);
}

void
SessionMux::drainWake()
{
    char buf[256];
    while (::read(shared_->wakeRead, buf, sizeof(buf)) > 0) {
    }
    std::vector<Shared::Completion> completions;
    std::vector<std::pair<int, int>> adopted;
    {
        std::lock_guard<std::mutex> lock(shared_->mu);
        completions.swap(shared_->completions);
        adopted.swap(shared_->adopted);
    }
    for (const auto &fds : adopted) {
        if (sessions_.size() >= options_.maxSessions) {
            closeFds(fds.first, fds.second);
            std::lock_guard<std::mutex> lock(shared_->mu);
            ++stats_.sessionsRefused;
            continue;
        }
        addSession(fds.first, fds.second);
    }
    for (Shared::Completion &c : completions) {
        Session &s = *c.session;
        if (s.dead)
            continue; // Counted as discarded when it closed.
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
        fds.push_back(
            pollfd{shared_->wakeRead, POLLIN, 0});
        const bool canAccept = listenFd_ >= 0 &&
            sessions_.size() < options_.maxSessions;
        if (canAccept)
            fds.push_back(pollfd{listenFd_, POLLIN, 0});
        // Two entries per session: its read fd while the window has
        // room (the decoder then holds no complete frame), and its
        // write fd while bytes wait.  poll() skips an fd of -1, so a
        // window-full session waits on completions only.
        const std::size_t first = fds.size();
        const std::size_t polled = sessions_.size();
        for (const auto &s : sessions_) {
            const bool reads = !s->inputEnded && !s->readClosed &&
                !s->dead && s->outstanding() < window_;
            fds.push_back(pollfd{reads ? s->readFd : -1, POLLIN, 0});
            fds.push_back(pollfd{s->wantsWrite() ? s->writeFd : -1,
                                 POLLOUT, 0});
        }

        const int rc = ::poll(fds.data(),
                              static_cast<nfds_t>(fds.size()), -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            fatal("mux: poll() failed: " +
                  std::string(std::strerror(errno)));
        }

        if (fds[0].revents & POLLIN)
            drainWake();
        if (canAccept && (fds[1].revents & POLLIN))
            acceptReady();
        // Sessions added above sit past `polled`; none is removed
        // before the sweep.
        for (std::size_t i = 0; i < polled; ++i)
            if (fds[first + 2 * i].revents &
                (POLLIN | POLLHUP | POLLERR))
                readSession(*sessions_[i]);
        for (const auto &s : sessions_)
            pumpSession(s);

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
