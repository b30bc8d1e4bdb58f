/**
 * @file
 * tts_serve - the scenario-serving daemon and its client.
 *
 * Usage:
 *   tts_serve stdio  [daemon flags]
 *   tts_serve socket --socket=PATH [--once] [--max-sessions=N]
 *                    [--window=N] [daemon flags]
 *   tts_serve send   --socket=PATH [request on stdin]
 *   tts_serve call   [request on stdin]
 *
 * Daemon flags (stdio and socket modes):
 *   [--workers=N] [--queue=N] [--deadline-ms=D] [--retries=N]
 *   [--backoff-ms=D] [--max-bytes=N] [--cache=FILE]
 *   [--cache-cap=N] [--persist-every=N] [--stats=FILE]
 *   [--manifest=FILE] [--batch-window-ms=D] [--batch-max=N]
 *
 * `stdio` serves one framed session: length-prefixed request frames
 * on stdin, one reply frame per request on stdout, in order - the
 * simplest way to drive the daemon from a script or a test harness:
 *
 *   printf 'tts-frame 20\n{"study": "outage"}\n' | tts_serve stdio
 *
 * `socket` listens on a Unix domain socket and serves many
 * concurrent framed sessions.  Both modes run the same session loop
 * (the SessionMux): every session gets in-order replies, slow
 * clients only slow themselves, and concurrent fleet-backed cache
 * misses batch into shared sweeps.  --once exits after the first
 * session closes, which makes demos and tests self-terminating;
 * --max-sessions bounds concurrency and --window bounds the
 * requests a session has outstanding (stdio uses the defaults).
 * --manifest=FILE pre-warms the cache from a scenario manifest
 * *before* any session opens, so the first real client already hits
 * warm entries.  `send` is the matching client: it reads one
 * request document from stdin, frames it, and prints the reply
 * payload.  `call` skips the transport entirely and answers
 * one request in-process - same parser, same evaluation, same reply
 * JSON - so scripts can smoke-test a request without a daemon.
 *
 * Requests are flat kv-json (see DESIGN.md section 16), e.g.:
 *
 *   {"study": "outage", "util": 0.9, "wax_l": 8, "horizon_s": 600}
 *
 * The daemon caches results content-addressed by the request's
 * canonical fingerprint; --cache=FILE persists the cache across
 * restarts through the CRC-protected checkpoint path (a corrupt
 * snapshot is quarantined to FILE.corrupt, never fatal).  --stats
 * dumps lifetime serving counters as kv-json on exit: the daemon's
 * and the cache's, plus the session loop's in stdio and socket mode.
 * A reply reader that goes away (`tts_serve stdio | head`) ends its
 * session, not the process: in-flight work completes, the cache
 * persists and --stats is written.
 */

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "cache/result_cache.hh"
#include "serve/daemon.hh"
#include "serve/manifest.hh"
#include "serve/mux.hh"
#include "util/cli.hh"
#include "util/error.hh"
#include "util/kv_json.hh"

using namespace tts;

namespace {

struct DaemonFlags
{
    std::size_t workers = 0;
    std::size_t queue = 64;
    double deadlineMs = 0.0;
    std::size_t retries = 3;
    double backoffMs = 0.5;
    std::size_t maxBytes = 64 * 1024;
    std::string cachePath;
    std::size_t cacheCap = 256;
    std::size_t persistEvery = 0;
    std::string statsPath;
    std::string manifestPath;
    double batchWindowMs = 2.0;
    std::size_t batchMax = 16;
};

void
addDaemonFlags(cli::Parser &p, DaemonFlags &f)
{
    p.addSize("workers", &f.workers,
              "worker threads (0 = TTS_THREADS / hardware)");
    p.addSize("queue", &f.queue, "admission queue capacity");
    p.addDouble("deadline-ms", &f.deadlineMs,
                "default per-request deadline (0 = none)");
    p.addSize("retries", &f.retries,
              "evaluation attempts per request");
    p.addDouble("backoff-ms", &f.backoffMs,
                "base retry backoff (doubles per attempt)");
    p.addSize("max-bytes", &f.maxBytes,
              "largest accepted request/frame payload");
    p.addString("cache", &f.cachePath,
                "result-cache snapshot file (empty = in-memory)");
    p.addSize("cache-cap", &f.cacheCap, "cached results (LRU)");
    p.addSize("persist-every", &f.persistEvery,
              "auto-persist the cache every N inserts (0 = only "
              "on shutdown)");
    p.addString("stats", &f.statsPath,
                "write serving counters as kv-json on exit");
    p.addString("manifest", &f.manifestPath,
                "warm the cache from a scenario manifest at "
                "startup");
    p.addDouble("batch-window-ms", &f.batchWindowMs,
                "miss-batching window for fleet studies (0 = off)");
    p.addSize("batch-max", &f.batchMax,
              "largest miss batch (unique requests per sweep)");
}

serve::DaemonConfig
configOf(const DaemonFlags &f)
{
    serve::DaemonConfig config;
    config.workers = f.workers;
    config.queueCapacity = f.queue;
    config.defaultDeadlineMs = f.deadlineMs;
    config.retryBudget = f.retries;
    config.retryBackoffBaseMs = f.backoffMs;
    config.maxRequestBytes = f.maxBytes;
    config.cache.path = f.cachePath;
    config.cache.capacity = f.cacheCap;
    config.cache.persistEveryInserts = f.persistEvery;
    config.batch.windowMs = f.batchWindowMs;
    config.batch.maxBatch = f.batchMax;
    return config;
}

/** Warm the cache from --manifest before any transport opens. */
void
warmIfRequested(serve::Daemon &daemon, const DaemonFlags &flags)
{
    if (flags.manifestPath.empty())
        return;
    const serve::WarmStats warm =
        serve::warmManifestFile(flags.manifestPath, daemon);
    std::cerr << "tts_serve: warmed " << warm.warmed << "/"
              << warm.entries << " manifest entries ("
              << warm.alreadyCached << " already cached, "
              << warm.failed << " failed)\n";
    for (const std::string &failure : warm.failures)
        std::cerr << "tts_serve: manifest " << failure << "\n";
}

/** --stats: daemon and cache counters, plus the mux's if one ran. */
void
writeStats(const std::string &path, const serve::Daemon &daemon,
           const serve::MuxStats *mux)
{
    if (path.empty())
        return;
    std::map<std::string, double> kv = daemon.stats().toMap();
    const auto cache = daemon.cacheCounters();
    kv["serve.cache.hits"] = static_cast<double>(cache.hits);
    kv["serve.cache.misses"] = static_cast<double>(cache.misses);
    kv["serve.cache.evictions"] =
        static_cast<double>(cache.evictions);
    kv["serve.cache.collisions"] =
        static_cast<double>(cache.collisions);
    kv["serve.cache.persists"] = static_cast<double>(cache.persists);
    if (mux) {
        const std::map<std::string, double> m = mux->toMap();
        kv.insert(m.begin(), m.end());
    }
    writeKvJsonFile(path, kv);
}

/**
 * Serve framed sessions on one SessionMux: connections on the Unix
 * socket at `path`, or, with no path, one session reading stdin and
 * writing stdout.
 */
int
runMux(const DaemonFlags &flags, serve::MuxOptions options,
       const std::string &path)
{
    serve::Daemon daemon(configOf(flags));
    if (daemon.cacheLoadOutcome() ==
        cache::CacheLoadOutcome::Quarantined)
        std::cerr << "tts_serve: cache snapshot was corrupt; "
                     "quarantined to "
                  << flags.cachePath << ".corrupt\n";
    // Warm before any session opens: the first client already sees
    // the manifest's entries resident.
    warmIfRequested(daemon, flags);

    options.limits.maxPayloadBytes = flags.maxBytes;
    serve::SessionMux mux(daemon, options);
    if (path.empty()) {
        mux.adopt(STDIN_FILENO, STDOUT_FILENO);
    } else {
        mux.listenUnix(path);
        std::cerr << "tts_serve: listening on " << path << "\n";
    }
    mux.run();

    daemon.shutdown();
    const serve::MuxStats stats = mux.stats();
    writeStats(flags.statsPath, daemon, &stats);
    return 0;
}

std::string
readAll(std::istream &in)
{
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

int
runSend(const std::string &path)
{
    require(!path.empty(), "send mode needs --socket=PATH");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    require(path.size() < sizeof(addr.sun_path),
            "socket path too long: " + path);
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  path.c_str());
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    require(fd >= 0, "socket() failed");
    require(::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) == 0,
            "connect(" + path + ") failed - is tts_serve socket "
                               "running?");
    const std::string frame = serve::encodeFrame(readAll(std::cin));
    for (std::size_t off = 0; off < frame.size();) {
        const ssize_t n = ::send(fd, frame.data() + off,
                                 frame.size() - off, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break; // The reply read below reports the failure.
        off += static_cast<std::size_t>(n);
    }
    ::shutdown(fd, SHUT_WR);
    serve::FrameDecoder decoder;
    serve::FrameResult reply;
    char buf[4096];
    while (!decoder.next(&reply)) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            reply = decoder.finish();
            break;
        }
        decoder.feed(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    require(reply.status == serve::FrameStatus::Ok,
            "no reply frame: " + reply.diagnostic);
    std::cout << reply.payload;
    const serve::Reply parsed = serve::Reply::fromJson(reply.payload);
    return parsed.ok ? 0 : 1;
}

int
runCall(const DaemonFlags &flags)
{
    serve::DaemonConfig config = configOf(flags);
    config.workers = 1;
    serve::Daemon daemon(config);
    const serve::Reply reply = daemon.call(readAll(std::cin));
    daemon.shutdown();
    std::cout << reply.toJson();
    writeStats(flags.statsPath, daemon, nullptr);
    return reply.ok ? 0 : 1;
}

int
usage(std::ostream &out, int code)
{
    out << "usage: tts_serve <stdio|socket|send|call> [--help]\n"
           "  stdio   serve framed requests on stdin/stdout\n"
           "  socket  serve connections on a Unix socket\n"
           "  send    client: frame stdin, print the reply\n"
           "  call    answer one request in-process\n";
    return code;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(std::cerr, 2);
    const std::string command = argv[1];
    if (command == "--help" || command == "-h")
        return usage(std::cout, 0);

    DaemonFlags flags;
    std::string socket_path;
    bool once = false;
    std::size_t max_sessions = 64;
    std::size_t window = 0;
    cli::Parser p("tts_serve " + command);
    if (command == "stdio" || command == "call") {
        addDaemonFlags(p, flags);
    } else if (command == "socket") {
        addDaemonFlags(p, flags);
        p.addString("socket", &socket_path, "Unix socket path");
        p.addFlag("once", &once,
                  "exit after the first session closes");
        p.addSize("max-sessions", &max_sessions,
                  "concurrent sessions served");
        p.addSize("window", &window,
                  "outstanding requests per session (0 = queue "
                  "capacity)");
    } else if (command == "send") {
        p.addString("socket", &socket_path, "Unix socket path");
    } else {
        std::cerr << "tts_serve: unknown command '" << command
                  << "'\n";
        return usage(std::cerr, 2);
    }
    switch (p.parse(argc - 2, argv + 2)) {
      case cli::Status::Help:
        std::cout << p.helpText();
        return 0;
      case cli::Status::Error:
        std::cerr << p.error() << "\n";
        return 2;
      case cli::Status::Ok:
        break;
    }

    // A vanished reader must surface as a failed write that ends its
    // session, not as a signal that kills the process before the
    // cache persists and --stats is written.
    std::signal(SIGPIPE, SIG_IGN);
    try {
        serve::MuxOptions options;
        if (command == "stdio") {
            options.exitAfterSessions = 1;
            return runMux(flags, options, "");
        }
        if (command == "socket") {
            require(!socket_path.empty(),
                    "socket mode needs --socket=PATH");
            options.maxSessions = max_sessions;
            options.pipelineWindow = window;
            options.exitAfterSessions = once ? 1 : 0;
            return runMux(flags, options, socket_path);
        }
        if (command == "send")
            return runSend(socket_path);
        return runCall(flags);
    } catch (const Error &e) {
        std::cerr << "tts_serve: " << e.what() << "\n";
        return 1;
    }
}
