/**
 * @file
 * serve_mixed: an open-loop Poisson request stream into the stack
 * `tts_serve socket` runs - a SessionMux listening on a Unix socket
 * in front of a Daemon with the default cache (256 entries) and miss
 * batching window - followed by closed-loop replays of the same
 * document sequence.
 *
 * One generator thread drives kSessions Unix-socket sessions.
 * Documents come from a pool four times the cache capacity with
 * Zipf-skewed popularity; the hottest ones (all quick outage studies)
 * are warmed through warmFromManifest before timing.  The tail mixes
 * outage, cooling, resilience, plant (economizer and MPC) and fleet
 * studies, and a fleet document always arrives with two other fleet
 * documents at the same instant, so concurrent fleet misses meet in
 * the MissBatcher's window.
 */

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "cache/result_cache.hh"
#include "core/run_config.hh"
#include "exec/parallel.hh"
#include "plant/study.hh"
#include "serve/daemon.hh"
#include "serve/eval.hh"
#include "serve/manifest.hh"
#include "serve/mux.hh"
#include "serve/protocol.hh"
#include "server/server_spec.hh"
#include "util/units.hh"
#include "workload/google_trace.hh"

namespace perfbench {

namespace {

using namespace tts;

enum Kind
{
    Outage,
    Cooling,
    Resilience,
    PlantEconomizer,
    PlantMpc,
    Fleet,
    kKinds
};

const char *const kKindNames[kKinds] = {
    "outage", "cooling", "resilience",
    "plant_economizer", "plant_mpc", "fleet"};

/** Pool shares of the non-hot documents, per kind. */
constexpr double kKindShare[kKinds] = {0.55, 0.12, 0.10, 0.08, 0.05, 0.10};

constexpr std::size_t kPool = 1024;  // 4x the default cache capacity
constexpr std::size_t kHot = 48;     // warmed through the manifest
constexpr double kZipf = 1.3;        // popularity ~ 1 / rank^1.3
constexpr double kRatePerS = 500.0;  // offered open-loop arrivals
constexpr std::size_t kSessions = 4;
constexpr std::size_t kWindow = 8;   // closed-loop requests per session
constexpr std::size_t kBurst = 3;    // fleet documents per arrival

struct Doc
{
    Kind kind = Outage;
    std::string json;
    std::string frame; //!< The document as a tts-frame on the wire.
};

/** One request of a phase: which document, on which session, when. */
struct Item
{
    std::size_t doc = 0;
    std::size_t session = 0;
    double dueS = 0.0;
};

/** The seeded inputs: document pool plus the request sequence. */
struct Inputs
{
    std::vector<Doc> pool;
    std::vector<Item> items;
};

/** Deterministic draws on top of the standardized mt19937_64. */
class Draw
{
  public:
    explicit Draw(std::uint64_t seed) : g_(seed) {}
    double uniform() { return static_cast<double>(g_() >> 11) * 0x1p-53; }
    std::size_t below(std::size_t n)
    {
        return static_cast<std::size_t>(uniform() * static_cast<double>(n));
    }
    double exponential(double rate)
    {
        return -std::log1p(-uniform()) / rate;
    }
    template <typename T>
    void shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::mt19937_64 g_;
};

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

/** Every distinct document of one kind (shuffled by the caller). */
std::vector<std::string>
grid(Kind k)
{
    std::vector<std::string> out;
    std::vector<double> utils;
    for (int u = 50; u <= 95; u += 5)
        utils.push_back(u / 100.0);
    for (int p = 0; p < 3; ++p) {
        const std::string head = "\"platform\":" + std::to_string(p);
        for (double u : utils) {
            const std::string ut = ",\"util\":" + num(u);
            switch (k) {
              case Outage:
                for (int m2 = 95; m2 <= 117; ++m2) // 0 or 48..58 C
                    for (double wax : {0.0, 2.0, 3.0, 4.0}) {
                        const double melt = m2 == 95 ? 0.0 : m2 / 2.0;
                        out.push_back("{\"study\":\"outage\"," + head + ut +
                                      ",\"melt_c\":" + num(melt) +
                                      ",\"wax_l\":" + num(wax) + "}");
                    }
                break;
              case Cooling:
                for (double melt : {0, 50, 51, 52, 53, 54, 55, 56})
                    out.push_back("{\"study\":\"cooling\"," + head + ut +
                                  ",\"days\":0.25,\"melt_c\":" +
                                  num(melt) + "}");
                break;
              case Resilience:
                for (const char *sc : {"plant_trip_total",
                                       "partial_trip_sensor_drift",
                                       "crash_fan_storm"})
                    for (double h : {1800.0, 2400.0})
                        out.push_back(
                            "{\"study\":\"resilience\"," + head + ut +
                            ",\"scenario\":\"" + sc +
                            "\",\"horizon_s\":" + num(h) + "}");
                break;
              case PlantEconomizer:
                for (int servers : {48, 96})
                    for (double melt : {0, 52, 54})
                        out.push_back(
                            "{\"study\":\"plant\"," + head + ut +
                            ",\"servers\":" + std::to_string(servers) +
                            ",\"days\":0.25,\"melt_c\":" + num(melt) +
                            ",\"plant_backend\":\"economizer\"}");
                break;
              case PlantMpc:
                // A 3 h horizon keeps an MPC miss near 50 ms: a few of
                // them at once must not fill the 64-deep admission
                // queue at 500 req/s.
                for (int servers : {48, 96, 144})
                    out.push_back(
                        "{\"study\":\"plant\"," + head + ut +
                        ",\"servers\":" + std::to_string(servers) +
                        ",\"days\":0.125,\"plant_backend\":\"mpc\"}");
                break;
              case Fleet:
                if (u != 0.6 && u != 0.75)
                    break;
                for (int servers : {480, 960, 2016, 4032})
                    for (double days : {0.25, 0.5, 1.0})
                        for (const char *pl :
                             {"uniform", "wax-aware", "efficiency-first"})
                            out.push_back(
                                "{\"study\":\"fleet\"," + head + ut +
                                ",\"servers\":" + std::to_string(servers) +
                                ",\"days\":" + num(days) +
                                ",\"placement\":\"" + pl + "\"}");
                break;
              default:
                break;
            }
        }
    }
    return out;
}

std::string
frameOf(const std::string &json)
{
    std::ostringstream out;
    serve::writeFrame(out, json);
    return out.str();
}

/**
 * Build the pool and an open-loop schedule of @p duration_s seconds.
 * Class counts are fixed (stratified); the seed picks which documents
 * of each class, their popularity ranks, and the arrival times.
 */
Inputs
makeInputs(std::uint64_t seed, double duration_s)
{
    Draw d(seed);
    Inputs in;
    std::vector<Kind> kinds(kHot, Outage);
    for (int k = 0; k < kKinds; ++k) {
        const auto n = static_cast<std::size_t>(
            std::lround(kKindShare[k] * (kPool - kHot)));
        kinds.insert(kinds.end(), n, static_cast<Kind>(k));
    }
    kinds.resize(kPool, Outage);
    std::vector<Kind> tail(kinds.begin() + kHot, kinds.end());
    d.shuffle(tail);
    std::copy(tail.begin(), tail.end(), kinds.begin() + kHot);

    std::vector<std::vector<std::string>> grids;
    for (int k = 0; k < kKinds; ++k) {
        grids.push_back(grid(static_cast<Kind>(k)));
        d.shuffle(grids.back());
    }
    std::vector<std::size_t> used(kKinds, 0);
    std::vector<std::size_t> fleet_ranks;
    for (std::size_t rank = 0; rank < kPool; ++rank) {
        const Kind k = kinds[rank];
        if (used[k] >= grids[k].size())
            throw std::runtime_error("serve_mixed: document grid exhausted");
        Doc doc;
        doc.kind = k;
        doc.json = grids[k][used[k]++];
        doc.frame = frameOf(doc.json);
        in.pool.push_back(std::move(doc));
        if (k == Fleet)
            fleet_ranks.push_back(rank);
    }
    std::vector<std::size_t> fleet_pos(kPool, 0);
    for (std::size_t i = 0; i < fleet_ranks.size(); ++i)
        fleet_pos[fleet_ranks[i]] = i;

    std::vector<double> cum(kPool);
    double total = 0.0;
    for (std::size_t r = 0; r < kPool; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), kZipf);
        cum[r] = total;
    }
    std::size_t session = 0;
    for (double t = d.exponential(kRatePerS); t < duration_s;
         t += d.exponential(kRatePerS)) {
        const std::size_t rank = std::min<std::size_t>(
            std::lower_bound(cum.begin(), cum.end(), d.uniform() * total) -
                cum.begin(),
            kPool - 1);
        const std::size_t n = in.pool[rank].kind == Fleet ? kBurst : 1;
        for (std::size_t j = 0; j < n; ++j) {
            Item it;
            it.doc = j == 0 ? rank
                            : fleet_ranks[(fleet_pos[rank] + j) %
                                          fleet_ranks.size()];
            it.session = session++ % kSessions;
            it.dueS = t;
            in.items.push_back(it);
        }
    }
    return in;
}

std::string
manifestOf(const Inputs &in)
{
    std::string m = "tts-serve-manifest v1\n# hottest documents\n";
    for (std::size_t r = 0; r < kHot; ++r)
        m += in.pool[r].json + "\n";
    return m;
}

/** Timestamps and reply of one request. */
struct Record
{
    Clock::time_point due, sendStart, sendEnd, read;
    std::string reply;
    bool answered = false;
};

/** A Daemon + SessionMux on a Unix socket, and kSessions clients. */
class Stack
{
  public:
    Stack(const Inputs &in, const std::string &sock, Tracer &t,
          std::int64_t parent)
    {
        serve::DaemonConfig cfg;
        cfg.workers = std::max<std::size_t>(1, nproc() - 1);
        std::int64_t sp = t.begin("serve.Daemon", parent);
        daemon_ = std::make_unique<serve::Daemon>(cfg);
        t.end(sp);
        sp = t.begin("serve.warmFromManifest", parent);
        std::istringstream manifest(manifestOf(in));
        warm_ = serve::warmFromManifest(manifest, *daemon_);
        t.end(sp);
        sp = t.begin("serve.SessionMux", parent);
        mux_ = std::make_unique<serve::SessionMux>(*daemon_,
                                                   serve::MuxOptions{});
        mux_->listenUnix(sock);
        // Connect before the poll loop starts (the listen backlog holds
        // the sessions), so a failure here leaves no thread to join.
        try {
            for (std::size_t s = 0; s < kSessions; ++s)
                fds_.push_back(connectTo(sock));
        } catch (...) {
            for (int fd : fds_)
                ::close(fd);
            throw;
        }
        thread_ = std::thread([this] { mux_->run(); });
        t.end(sp);
    }

    ~Stack()
    {
        for (int fd : fds_)
            ::close(fd);
        if (mux_)
            mux_->stop();
        if (thread_.joinable())
            thread_.join();
        if (daemon_)
            daemon_->shutdown();
    }

    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;

    const std::vector<int> &fds() const { return fds_; }
    serve::Daemon &daemon() { return *daemon_; }
    serve::SessionMux &mux() { return *mux_; }
    const serve::WarmStats &warm() const { return warm_; }

  private:
    static int connectTo(const std::string &path)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof(addr.sun_path))
            throw std::runtime_error("socket path too long: " + path);
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            throw std::runtime_error("socket() failed");
        if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd);
            throw std::runtime_error("connect(" + path + ") failed");
        }
        // A stalled server must not hang the generator forever.
        timeval tv{10, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
        return fd;
    }

    std::unique_ptr<serve::Daemon> daemon_;
    std::unique_ptr<serve::SessionMux> mux_;
    serve::WarmStats warm_;
    std::thread thread_;
    std::vector<int> fds_;
};

void
sendAll(int fd, const std::string &bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                                 MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            throw std::runtime_error("serve_mixed: send failed: " +
                                     std::string(std::strerror(errno)));
        off += static_cast<std::size_t>(n);
    }
}

/**
 * The generator: sends requests and reads replies on every session
 * from one thread.  Open loop sends each request at its due time;
 * closed loop keeps kWindow requests outstanding per session.
 * Replies arrive in request order per session.
 */
class Generator
{
  public:
    Generator(const Inputs &in, const std::vector<int> &fds)
        : in_(in), fds_(fds), decoders_(fds.size()), fifo_(fds.size())
    {
    }

    /** @return One record per item; throws when the stack stalls. */
    std::vector<Record> openLoop()
    {
        std::vector<Record> rec(in_.items.size());
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < rec.size(); ++i)
            rec[i].due = t0 + std::chrono::nanoseconds(static_cast<
                                  std::int64_t>(in_.items[i].dueS * 1e9));
        std::size_t next = 0, done = 0;
        const Clock::time_point limit = rec.empty()
            ? t0
            : rec.back().due + std::chrono::seconds(60);
        while (done < rec.size()) {
            Clock::time_point now = Clock::now();
            while (next < rec.size() && rec[next].due <= now) {
                send(next, in_.items[next].session, rec);
                ++next;
                now = Clock::now();
            }
            if (now > limit)
                throw std::runtime_error("serve_mixed: open loop stalled");
            const Clock::time_point wake = next < rec.size()
                ? rec[next].due
                : now + std::chrono::milliseconds(100);
            done += receive(wake - now, rec);
        }
        return rec;
    }

    /** Replay every item in order, kWindow outstanding per session. */
    std::vector<Record> closedLoop()
    {
        std::vector<Record> rec(in_.items.size());
        std::size_t next = 0, done = 0;
        for (std::size_t s = 0; s < fds_.size(); ++s)
            for (std::size_t w = 0; w < kWindow && next < rec.size(); ++w)
                send(next++, s, rec);
        const Clock::time_point limit =
            Clock::now() + std::chrono::seconds(120);
        while (done < rec.size()) {
            if (Clock::now() > limit)
                throw std::runtime_error(
                    "serve_mixed: closed loop stalled");
            std::vector<std::size_t> freed;
            done += receive(std::chrono::milliseconds(100), rec, &freed);
            for (std::size_t s : freed)
                if (next < rec.size())
                    send(next++, s, rec);
        }
        return rec;
    }

  private:
    void send(std::size_t i, std::size_t s, std::vector<Record> &rec)
    {
        Record &r = rec[i];
        r.sendStart = Clock::now();
        if (r.due == Clock::time_point{})
            r.due = r.sendStart;
        sendAll(fds_[s], in_.pool[in_.items[i].doc].frame);
        r.sendEnd = Clock::now();
        fifo_[s].push_back(i);
    }

    /** Wait up to @p wait for replies; @return replies read. */
    std::size_t receive(Clock::duration wait, std::vector<Record> &rec,
                        std::vector<std::size_t> *freed = nullptr)
    {
        std::vector<pollfd> pfds;
        for (int fd : fds_)
            pfds.push_back(pollfd{fd, POLLIN, 0});
        const auto ns = std::max<std::int64_t>(
            0, std::chrono::duration_cast<std::chrono::nanoseconds>(wait)
                   .count());
        timespec ts{static_cast<time_t>(ns / 1000000000),
                    static_cast<long>(ns % 1000000000)};
        const int rc = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
        if (rc < 0 && errno != EINTR)
            throw std::runtime_error("serve_mixed: ppoll failed");
        std::size_t got = 0;
        char buf[65536];
        for (std::size_t s = 0; rc > 0 && s < pfds.size(); ++s) {
            if (!(pfds[s].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            const ssize_t n =
                ::recv(fds_[s], buf, sizeof(buf), MSG_DONTWAIT);
            if (n == 0)
                throw std::runtime_error(
                    "serve_mixed: server closed a session");
            if (n < 0) {
                if (errno == EAGAIN || errno == EINTR)
                    continue;
                throw std::runtime_error("serve_mixed: recv failed");
            }
            const Clock::time_point at = Clock::now();
            decoders_[s].feed(buf, static_cast<std::size_t>(n));
            serve::FrameResult fr;
            while (decoders_[s].next(&fr)) {
                if (fr.status != serve::FrameStatus::Ok ||
                    fifo_[s].empty())
                    throw std::runtime_error(
                        "serve_mixed: bad reply frame: " + fr.diagnostic);
                Record &r = rec[fifo_[s].front()];
                fifo_[s].pop_front();
                r.read = at;
                r.reply = std::move(fr.payload);
                r.answered = true;
                ++got;
                if (freed)
                    freed->push_back(s);
            }
        }
        return got;
    }

    const Inputs &in_;
    const std::vector<int> &fds_;
    std::vector<serve::FrameDecoder> decoders_;
    std::vector<std::deque<std::size_t>> fifo_;
};

/** One open loop and its closed-loop replays, on one stack. */
struct PhaseRun
{
    std::vector<double> setupS;
    std::vector<Record> open;
    std::vector<std::vector<Record>> replays;
    std::vector<double> replayWallS;
    serve::DaemonStats daemon;
    serve::MuxStats mux;
    serve::BatchStats batch;
    cache::ResultCache::Counters cache;
    std::size_t warmFailed = 0;
    /** The open-loop phase span: parent of the request spans. */
    std::int64_t openSpan = -1;
};

std::string
socketPath(const Options &o, const char *tag)
{
    return o.outDir + "/" + tag + "-" + std::to_string(::getpid()) +
           ".sock";
}

/**
 * Set the stack up @p setups times (the last one serves), then run
 * the open loop and @p replays closed-loop replays.  Set-up ends when
 * the first reply (a warmed document) is read.
 */
PhaseRun
runPhases(const Options &o, const Inputs &in, int setups, int replays,
          Tracer &t, std::int64_t parent = -1)
{
    PhaseRun out;
    std::unique_ptr<Stack> stack;
    const std::string sock = socketPath(o, "serve");
    for (int i = 0; i < setups; ++i) {
        stack.reset();
        const std::int64_t sp = t.begin("serve.setup", parent);
        const auto t0 = Clock::now();
        stack = std::make_unique<Stack>(in, sock, t, sp);
        sendAll(stack->fds()[0], in.pool[0].frame);
        serve::FrameDecoder dec;
        serve::FrameResult fr;
        char buf[65536];
        while (!dec.next(&fr)) {
            const ssize_t n = ::recv(stack->fds()[0], buf, sizeof(buf), 0);
            if (n <= 0)
                throw std::runtime_error("serve_mixed: no first reply");
            dec.feed(buf, static_cast<std::size_t>(n));
        }
        if (fr.status != serve::FrameStatus::Ok)
            throw std::runtime_error("serve_mixed: bad first reply");
        out.setupS.push_back(seconds(t0, Clock::now()));
        t.end(sp);
        out.warmFailed += stack->warm().failed;
    }
    Generator gen(in, stack->fds());
    out.openSpan = t.begin("serve.open_loop", parent);
    out.open = gen.openLoop();
    t.end(out.openSpan);
    for (int k = 0; k < replays; ++k) {
        const std::int64_t sp = t.begin("serve.closed_loop", parent);
        const auto c0 = Clock::now();
        out.replays.push_back(gen.closedLoop());
        out.replayWallS.push_back(seconds(c0, Clock::now()));
        t.end(sp);
    }
    out.daemon = stack->daemon().stats();
    out.mux = stack->mux().stats();
    out.batch = stack->daemon().batchStats();
    out.cache = stack->daemon().cacheCounters();
    return out;
}

/** A parsed reply and whether it is a correct answer. */
struct Verdict
{
    serve::Reply reply;
    bool ok = false;
};

/** Daemon-free serve::evaluate of every document the replies cover. */
class References
{
  public:
    explicit References(const Inputs &in) : in_(in) {}

    /** Evaluate (in parallel) every document not yet evaluated. */
    void cover(const std::vector<Record> &rec)
    {
        std::set<std::size_t> seen;
        std::vector<std::size_t> todo;
        for (std::size_t i = 0; i < rec.size(); ++i) {
            const std::size_t d = in_.items[i].doc;
            if (!results_.count(d) && seen.insert(d).second)
                todo.push_back(d);
        }
        const auto got = exec::parallel_map(todo, [this](std::size_t d) {
            return serve::evaluate(serve::parseRequest(in_.pool[d].json));
        });
        for (std::size_t i = 0; i < todo.size(); ++i)
            results_[todo[i]] = got[i];
    }

    /** Parse and check every reply of a phase. */
    std::vector<Verdict> judge(const std::vector<Record> &rec) const
    {
        std::vector<Verdict> out(rec.size());
        for (std::size_t i = 0; i < rec.size(); ++i) {
            const std::size_t d = in_.items[i].doc;
            try {
                out[i].reply = serve::Reply::fromJson(rec[i].reply);
            } catch (const std::exception &) {
                continue;
            }
            const serve::Reply &r = out[i].reply;
            out[i].ok = rec[i].answered && r.ok &&
                r.fingerprintValue ==
                    serve::fingerprint(serve::parseRequest(in_.pool[d].json)) &&
                r.result == results_.at(d);
        }
        return out;
    }

    const serve::Result &result(std::size_t doc) const
    {
        return results_.at(doc);
    }

  private:
    const Inputs &in_;
    std::map<std::size_t, serve::Result> results_;
};

/** Latency (ms) from the due time to the reply being read. */
double
latencyMs(const Record &r)
{
    return millis(r.due, r.read);
}

std::size_t
countBad(const std::vector<Verdict> &v)
{
    return static_cast<std::size_t>(std::count_if(
        v.begin(), v.end(), [](const Verdict &x) { return !x.ok; }));
}

/** End-to-end serve metrics of one phase pair. */
void
reportEndToEnd(const Options &o, Report &r, const PhaseRun &run,
               const std::vector<Verdict> &open)
{
    std::vector<double> hit, miss;
    std::size_t within = 0;
    for (std::size_t i = 0; i < open.size(); ++i) {
        const double ms = latencyMs(run.open[i]);
        if (!open[i].ok)
            continue;
        const bool is_hit = open[i].reply.cacheHit;
        (is_hit ? hit : miss).push_back(ms);
        if (ms <= (is_hit ? o.hitLimitMs : o.missLimitMs))
            ++within;
    }
    r.latency("hit", hit);
    r.latency("miss", miss);
    r.metric("slo_ratio",
             static_cast<double>(within) /
                 static_cast<double>(open.size()),
             "ratio", open.size(),
             "hit<=" + num(o.hitLimitMs) + "ms miss<=" +
                 num(o.missLimitMs) + "ms, base=open-loop requests");
    r.metric("sat_rps",
             static_cast<double>(run.open.size()) / median(run.replayWallS),
             "req/s", run.replays.size() * run.open.size(),
             "closed loop, " + std::to_string(kSessions) + " sessions x " +
                 std::to_string(kWindow) + " outstanding, median replay");
}

/**
 * Front-end probes on the workload's own documents: frame codec,
 * parse, canonical text, fingerprint, and the reply codec on the
 * results of the documents the run answered.  @return A value that
 * depends on every call, so none can be optimized away.
 */
std::size_t
probeFrontEnd(const Inputs &in, const References &refs, Report &r,
              Tracer &t)
{
    auto probe = [&](const char *name, auto &&fn) {
        const std::int64_t sp = t.begin(std::string("probe.") + name);
        std::size_t calls = 0;
        const auto t0 = Clock::now();
        do {
            for (std::size_t d = 0; d < in.pool.size(); ++d)
                fn(d);
            calls += in.pool.size();
        } while (seconds(t0, Clock::now()) < 0.05);
        const double us = millis(t0, Clock::now()) * 1e3 /
            static_cast<double>(calls);
        t.end(sp);
        r.metric(name, us, "us", calls, "mean per call over the pool");
    };
    std::vector<serve::Request> reqs;
    for (const Doc &d : in.pool)
        reqs.push_back(serve::parseRequest(d.json));
    std::size_t sink = 0;
    probe("serve.frame_us", [&](std::size_t d) {
        std::ostringstream os;
        serve::writeFrame(os, in.pool[d].json);
        serve::FrameDecoder dec;
        const std::string bytes = os.str();
        dec.feed(bytes.data(), bytes.size());
        serve::FrameResult fr;
        sink += dec.next(&fr) ? fr.payload.size() : 0;
    });
    probe("serve.parse_us", [&](std::size_t d) {
        sink += serve::parseRequest(in.pool[d].json).servers;
    });
    probe("serve.canon_us", [&](std::size_t d) {
        sink += serve::canonicalText(reqs[d]).size();
    });
    probe("serve.fingerprint_us", [&](std::size_t d) {
        sink += serve::fingerprint(reqs[d]) & 1;
    });
    // Replies of the documents the run answered (the rest of the pool
    // was never evaluated).
    std::vector<std::size_t> answered;
    for (const Item &it : in.items)
        answered.push_back(it.doc);
    std::sort(answered.begin(), answered.end());
    answered.erase(std::unique(answered.begin(), answered.end()),
                   answered.end());
    const std::int64_t sp = t.begin("probe.serve.reply_us");
    std::size_t calls = 0;
    const auto t0 = Clock::now();
    do {
        for (std::size_t d : answered) {
            const serve::Reply rep = serve::Reply::okReply(
                serve::fingerprint(reqs[d]), false, 1.0, refs.result(d));
            sink += serve::Reply::fromJson(rep.toJson()).result.size();
        }
        calls += answered.size();
    } while (seconds(t0, Clock::now()) < 0.05);
    t.end(sp);
    r.metric("serve.reply_us",
             millis(t0, Clock::now()) * 1e3 / static_cast<double>(calls),
             "us", calls, "Reply::toJson + fromJson per reply");
    return sink;
}

/**
 * The cache alone at its default capacity, replaying the sequence's
 * canonical texts: find, and insert on a miss.
 */
void
probeCache(const Inputs &in, const References &refs, Report &r, Tracer &t)
{
    std::vector<std::string> canon;
    std::vector<std::uint64_t> fps;
    for (const Doc &d : in.pool) {
        const serve::Request q = serve::parseRequest(d.json);
        canon.push_back(serve::canonicalText(q));
        fps.push_back(serve::fingerprint(q));
    }
    const std::int64_t sp = t.begin("probe.cache");
    cache::ResultCache c(cache::CacheConfig{});
    std::vector<double> find_ns, insert_ns;
    serve::Result out;
    for (const Item &it : in.items) {
        const auto f0 = Clock::now();
        const bool hit = c.find(fps[it.doc], canon[it.doc], &out);
        const auto f1 = Clock::now();
        find_ns.push_back(
            std::chrono::duration<double, std::nano>(f1 - f0).count());
        if (!hit) {
            const auto i0 = Clock::now();
            c.insert(fps[it.doc], canon[it.doc], refs.result(it.doc));
            insert_ns.push_back(std::chrono::duration<double, std::nano>(
                                    Clock::now() - i0)
                                    .count());
        }
    }
    t.end(sp);
    auto mean = [](const std::vector<double> &v) {
        double s = 0.0;
        for (double x : v)
            s += x;
        return v.empty() ? 0.0 : s / static_cast<double>(v.size());
    };
    r.metric("cache.find_us", mean(find_ns) / 1e3, "us", find_ns.size(),
             "ResultCache::find, capacity 256");
    r.metric("cache.insert_us", mean(insert_ns) / 1e3, "us",
             insert_ns.size(), "ResultCache::insert, capacity 256");
}

/**
 * The plant a served MPC miss builds (the pool's first MPC document),
 * under every backend, and trace synthesis at its horizon.  @return A
 * value that depends on every call.
 */
std::size_t
probePlant(const Inputs &in, Report &r, Tracer &t)
{
    std::size_t sink = 0;
    std::size_t mpc = 0;
    while (in.pool[mpc].kind != PlantMpc)
        ++mpc;
    const serve::Request q = serve::parseRequest(in.pool[mpc].json);
    workload::GoogleTraceParams tp;
    tp.durationS = units::days(q.days);
    std::vector<double> trace_ms;
    workload::WorkloadTrace trace;
    for (int i = 0; i < 20; ++i) {
        const std::int64_t sp = t.begin("workload.makeGoogleTrace");
        const auto t0 = Clock::now();
        trace = workload::makeGoogleTrace(tp);
        trace_ms.push_back(millis(t0, Clock::now()));
        t.end(sp);
    }
    r.metric("workload.trace_ms.served", median(trace_ms), "ms",
             trace_ms.size(),
             "makeGoogleTrace at " + num(q.days) + " days");
    core::RunConfig run_cfg;
    run_cfg.serverCount = q.servers;
    run_cfg.utilization = q.utilization;
    run_cfg.meltTempC = q.meltC;
    run_cfg.waxLiters = q.waxLiters;
    const server::ServerSpec spec = q.platform == 1
        ? server::x4470Spec()
        : q.platform == 2 ? server::openComputeSpec()
                          : server::rd330Spec();
    plant::PlantScenario scenario;
    scenario.loadW = plant::clusterCoolingLoad(
        spec, run_cfg.waxConfig(), q.servers, trace);
    scenario.serverCount = q.servers;
    for (const auto &[name, kind] :
         {std::pair{"crac", plant::BackendKind::Crac},
          std::pair{"economizer", plant::BackendKind::Economizer},
          std::pair{"hot_water", plant::BackendKind::HotWater},
          std::pair{"mpc", plant::BackendKind::Mpc}}) {
        plant::PlantConfig cfg;
        cfg.options.kind = kind;
        cfg.recordSeries = false;
        std::vector<double> ms;
        for (int i = 0; i < 3; ++i) {
            const std::int64_t sp =
                t.begin(std::string("plant.runPlant.") + name);
            const auto t0 = Clock::now();
            const plant::PlantResult pr = plant::runPlant(scenario, cfg);
            ms.push_back(millis(t0, Clock::now()));
            t.end(sp);
            sink += pr.steps;
        }
        r.metric(std::string("plant.run_ms.") + name, median(ms), "ms",
                 ms.size(), "runPlant on a served plant_mpc scenario");
    }
    return sink;
}

} // namespace

void
runServeMixed(const Options &o, Report &r)
{
    exec::setGlobalThreads(nproc());
    const Inputs in = makeInputs(o.seed, o.seconds);
    std::printf("# serve_mixed pool=%zu requests=%zu sessions=%zu "
                "workers=%zu\n",
                in.pool.size(), in.items.size(), kSessions,
                std::max<std::size_t>(1, nproc() - 1));
    Tracer off(false);
    // Three replays: a median resists one replay slowed by the host.
    const PhaseRun run = runPhases(o, in, 9, 3, off);
    r.check(run.warmFailed == 0, "serve_mixed manifest warm-up failed");

    References refs(in);
    refs.cover(run.open);
    const std::vector<Verdict> open = refs.judge(run.open);
    r.checks(open.size(), countBad(open), "serve_mixed open-loop replies");
    for (const std::vector<Record> &replay : run.replays) {
        const std::vector<Verdict> v = refs.judge(replay);
        r.checks(v.size(), countBad(v), "serve_mixed closed-loop replies");
    }

    r.metric("setup_s", median(run.setupS), "s", run.setupS.size(),
             "Daemon + manifest warm-up + SessionMux + sessions, to "
             "the first reply");
    r.metric("wall_s", median(run.replayWallS), "s",
             run.replayWallS.size(),
             "closed-loop replay of the request sequence, median");
    r.metric("peak_rss_mb", peakRssMb(), "MiB");
    r.metric("fail_ratio",
             static_cast<double>(r.failed()) /
                 static_cast<double>(r.attempted()),
             "ratio", r.attempted(), "base=requests");
    reportEndToEnd(o, r, run, open);
}

void
runServeLayers(const Options &o, Report &r, Tracer &t)
{
    exec::setGlobalThreads(nproc());
    // The traced run carries two phase pairs; keep each short.
    const double span_s = std::min(o.seconds, 8.0);
    const Inputs in = makeInputs(o.seed, span_s);
    Tracer off(false);
    const PhaseRun plain = runPhases(o, in, 1, 1, off);
    const std::int64_t root = t.begin("serve_mixed");
    const PhaseRun run = runPhases(o, in, 1, 1, t, root);
    t.end(root);
    r.check(plain.warmFailed == 0 && run.warmFailed == 0,
            "serve_mixed manifest warm-up failed");

    References refs(in);
    refs.cover(run.open);
    for (const PhaseRun *p : {&plain, &run}) {
        const std::vector<Verdict> a = refs.judge(p->open);
        const std::vector<Verdict> b = refs.judge(p->replays[0]);
        r.checks(a.size(), countBad(a), "serve_mixed open-loop replies");
        r.checks(b.size(), countBad(b), "serve_mixed closed-loop replies");
    }
    const std::vector<Verdict> open = refs.judge(run.open);

    // Request spans: due -> read, with the reply's eval_ms; children
    // split it into generator lateness, the send, and the wait.
    std::vector<double> non_eval, late;
    std::vector<std::vector<double>> eval_ms(kKinds);
    for (std::size_t i = 0; i < run.open.size(); ++i) {
        const Record &rec = run.open[i];
        Span s;
        s.name = "serve.request";
        s.startNs = t.at(rec.due);
        s.endNs = t.at(rec.read);
        s.parent = run.openSpan;
        s.request = i + 1;
        s.evalMs = open[i].reply.evalMs;
        const std::int64_t id = t.add(s);
        const std::pair<const char *, std::pair<Clock::time_point,
                                                Clock::time_point>>
            parts[] = {{"gen.late", {rec.due, rec.sendStart}},
                       {"gen.send", {rec.sendStart, rec.sendEnd}},
                       {"serve.reply_wait", {rec.sendEnd, rec.read}}};
        for (const auto &[name, iv] : parts) {
            Span c;
            c.name = name;
            c.startNs = t.at(iv.first);
            c.endNs = t.at(iv.second);
            c.parent = id;
            c.request = i + 1;
            t.add(c);
        }
        late.push_back(millis(rec.due, rec.sendStart));
        if (!open[i].ok)
            continue;
        non_eval.push_back(latencyMs(rec) - open[i].reply.evalMs);
        if (!open[i].reply.cacheHit)
            eval_ms[in.pool[in.items[i].doc].kind].push_back(
                open[i].reply.evalMs);
    }
    r.metric("serve.non_eval_p50_ms", percentile(non_eval, 50.0), "ms",
             non_eval.size());
    r.metric("serve.non_eval_p99_ms", percentile(non_eval, 99.0), "ms",
             non_eval.size(),
             "beyond=" + std::to_string(beyond(non_eval, 99.0)));
    for (int k = 0; k < kKinds; ++k)
        r.metric(std::string("serve.eval_ms.") + kKindNames[k],
                 median(eval_ms[k]), "ms", eval_ms[k].size(),
                 "median reply eval_ms of evaluated requests");
    const serve::DaemonStats &ds = run.daemon;
    r.metric("serve.evaluations", static_cast<double>(ds.evaluations),
             "count");
    r.metric("serve.coalesced", static_cast<double>(ds.coalesced), "count");
    r.metric("serve.shed", static_cast<double>(ds.shed), "count");
    r.metric("serve.retries", static_cast<double>(ds.retries), "count");
    r.metric("serve.queue_peak", static_cast<double>(ds.queuePeak),
             "count");
    r.metric("mux.frames_ok", static_cast<double>(run.mux.framesOk),
             "count");
    r.metric("mux.replies_written",
             static_cast<double>(run.mux.repliesWritten), "count");
    r.metric("mux.peak_sessions", static_cast<double>(run.mux.peakSessions),
             "count");
    r.metric("gen.late_p99_ms", percentile(late, 99.0), "ms", late.size(),
             "beyond=" + std::to_string(beyond(late, 99.0)));
    r.metric("batch.sweeps", static_cast<double>(run.batch.sweeps), "count");
    r.metric("batch.jobs", static_cast<double>(run.batch.jobs), "count");
    r.metric("batch.coalesced", static_cast<double>(run.batch.coalesced),
             "count");
    r.metric("batch.largest", static_cast<double>(run.batch.largestBatch),
             "count");
    const auto &cc = run.cache;
    r.metric("cache.hits", static_cast<double>(cc.hits), "count");
    r.metric("cache.misses", static_cast<double>(cc.misses), "count");
    r.metric("cache.inserts", static_cast<double>(cc.inserts), "count");
    r.metric("cache.evictions", static_cast<double>(cc.evictions), "count");
    r.metric("cache.collisions", static_cast<double>(cc.collisions),
             "count");
    r.metric("cache.hit_ratio",
             static_cast<double>(cc.hits) /
                 static_cast<double>(std::max<std::uint64_t>(
                     1, cc.hits + cc.misses)),
             "ratio", cc.hits + cc.misses,
             "base=cache lookups (cache.hits + cache.misses)");
    r.metric("trace.overhead.serve_mixed",
             run.replayWallS[0] - plain.replayWallS[0], "s", 1,
             "traced minus untraced closed-loop wall");

    std::size_t sink = probeFrontEnd(in, refs, r, t);
    probeCache(in, refs, r, t);
    sink += probePlant(in, r, t);
    std::printf("# serve_mixed probes done (%zu)\n", sink % 10);
}

bool
selftestServe()
{
    // A short real run, then the reply check against a deliberately
    // wrong reference: one result value nudged by one ulp.
    Options o;
    o.seconds = 0.5;
    const Inputs in = makeInputs(kDefaultSeed, o.seconds);
    Tracer off(false);
    exec::setGlobalThreads(nproc());
    const PhaseRun run = runPhases(o, in, 1, 1, off);
    References refs(in);
    refs.cover(run.open);
    const std::vector<Verdict> v = refs.judge(run.open);
    const bool ok = countBad(v) == 0;
    std::printf("selftest serve: %zu replies %s\n", v.size(),
                ok ? "pass" : "FAIL (expected pass)");

    Record wrong = run.open[0];
    serve::Reply rep = serve::Reply::fromJson(wrong.reply);
    rep.result.begin()->second =
        std::nextafter(rep.result.begin()->second, 1e300);
    wrong.reply = rep.toJson();
    const bool value = !refs.judge({wrong})[0].ok;
    rep = serve::Reply::fromJson(run.open[0].reply);
    rep.fingerprintValue ^= 1;
    wrong.reply = rep.toJson();
    const bool fp = !refs.judge({wrong})[0].ok;
    wrong.reply =
        serve::Reply::errorReply(serve::ErrorKind::Overloaded, "x").toJson();
    const bool err = !refs.judge({wrong})[0].ok;
    std::printf("selftest serve: 1-ulp result caught=%d, wrong "
                "fingerprint caught=%d, error reply caught=%d\n",
                value, fp, err);
    return ok && value && fp && err;
}

} // namespace perfbench
